"""Conjunctive queries and resolved-answer evaluation.

A resolved answer is a tuple returned by the query on every minimal resolved
instance. Two evaluation paths produce them:

- rewrite: for join-safe queries over fast-path MD sets, each atom touching
  changeable attributes is replaced by a copy that existentially ignores the
  stored value and instead demands, for every free variable at a changeable
  position, that the bound value win a strict majority inside the closure
  block of the witness position. Evaluated on the dirty instance, that is
  the original query over one view per atom in which each such position
  holds its block's unique winner (rows whose block has none drop out).
  Polynomial, no instances materialized.
- oracle: evaluate the query on each MRI of the exhaustive chase, built
  one at a time, and intersect the answer sets.

Every evaluation is the one indexed join of `join.py`. Query text is read
through the MD text's `mds.TokenStream`, and `str` of a query gives text
that parses back to the same query: a constant is written by `join.quote`,
which doubles any quote inside it.

Join safety (what the rewrite needs): no constant sits at a changeable
position, and no non-free variable with two or more occurrences does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BoundsExceededError, InputError, NotEligibleError, ParseError
from .join import Const, Var, join, quote
from .mds import MDSet, TokenStream, classify, eqr_class
from .relation import Attr, Instance, Schema
from .resolver import OracleBounds, minimal_states
from .taclosure import ta_closure


@dataclass(frozen=True)
class Atom:
    rel: str
    terms: tuple

    def __str__(self) -> str:
        return f"{self.rel}({', '.join(str(t) for t in self.terms)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    name: str
    head: tuple[Var, ...]
    atoms: tuple[Atom, ...]

    @property
    def free(self) -> frozenset[str]:
        return frozenset(v.name for v in self.head)

    def __str__(self) -> str:
        head = f"{self.name}({', '.join(str(v) for v in self.head)})"
        return f"{head} :- {', '.join(str(a) for a in self.atoms)}"


@dataclass(frozen=True)
class AnswerSet:
    tuples: tuple[tuple[str, ...], ...]
    provenance: str  # "direct" | "rewrite" | "oracle"
    # the rewritten query behind a "rewrite" answer set
    rewritten: RewrittenQuery | None = field(default=None, compare=False, repr=False)
    # the is_ujcq verdict behind a resolved_answers answer set
    ujcq: tuple[bool, str | None] | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, item) -> bool:
        return tuple(item) in self.tuples

    @property
    def boolean_true(self) -> bool:
        return () in self.tuples

    def as_json(self) -> list[list[str]]:
        return [list(t) for t in self.tuples]


# ---------------------------------------------------------------------------
# Parsing

def _parse_term(ts: TokenStream) -> Var | Const:
    kind, text = ts.peek()
    if kind not in ("number", "string", "ident"):
        raise ParseError(f"expected a term, got {text!r}")
    ts.take(kind)
    if kind == "number":
        return Const(text)
    if kind == "string":
        return Const(text[1:-1].replace("''", "'"))
    if not text[0].islower():
        raise ParseError(f"variables are lower-case, got {text!r}")
    return Var(text)


def parse_query(text: str, schema: Schema) -> ConjunctiveQuery:
    """Parse `Q(x, y) :- R(x, 'c'), S(y, z)` against the schema.

    Head terms must be variables; every head variable must occur in the
    body; atom arities must match the schema. Variables are lower-case
    identifiers, constants are 'quoted' (a quote inside is written '') or
    integer literals. The text is read through the MD text's TokenStream.

    Free-variable repetition is legal here; whether a query is join-safe
    for the rewrite is a separate check (is_ujcq).
    """
    ts = TokenStream(text, "query")
    name = ts.take("ident")
    ts.take("lparen")
    head: list[Var] = []
    if not ts.skip("rparen"):
        while True:
            term = _parse_term(ts)
            if not isinstance(term, Var):
                raise ParseError("head terms must be variables")
            head.append(term)
            if not ts.skip("comma"):
                break
        ts.take("rparen")
    ts.take("impl")
    atoms: list[Atom] = []
    while True:
        rel = ts.take("ident")
        if not schema.has_relation(rel):
            raise InputError(f"query mentions unknown relation {rel!r}")
        ts.take("lparen")
        terms = [_parse_term(ts)]
        while ts.skip("comma"):
            terms.append(_parse_term(ts))
        ts.take("rparen")
        arity = schema.relation(rel).arity
        if len(terms) != arity:
            raise InputError(
                f"atom over {rel} has {len(terms)} terms, relation has arity {arity}"
            )
        atoms.append(Atom(rel, tuple(terms)))
        if not ts.skip("comma"):
            break
    ts.skip("dot")
    kind, rest = ts.peek()
    if kind != "end":
        raise ParseError(f"trailing input in query: {rest!r}")
    body_vars = {t.name for a in atoms for t in a.terms if isinstance(t, Var)}
    for v in head:
        if v.name not in body_vars:
            raise InputError(f"head variable {v.name} does not occur in the body")
    return ConjunctiveQuery(name, tuple(head), tuple(atoms))


# ---------------------------------------------------------------------------
# Plain evaluation

def _eval_tuples(q: ConjunctiveQuery, d: Instance) -> set[tuple[str, ...]]:
    sources = [[row for _, row in d.rows(atom.rel)] for atom in q.atoms]
    return set(join(q.head, [atom.terms for atom in q.atoms], sources))


def eval_cq(q: ConjunctiveQuery, d: Instance) -> AnswerSet:
    """Evaluate the query directly on the instance."""
    return AnswerSet(tuple(sorted(_eval_tuples(q, d))), "direct")


# ---------------------------------------------------------------------------
# Join safety

def is_ujcq(q: ConjunctiveQuery, mdset: MDSet) -> tuple[bool, str | None]:
    """Check join safety for the rewrite; returns (verdict, witness).

    The witness names the first offending constant or variable.
    """
    occurrences: dict[str, int] = {}
    for atom in q.atoms:
        for term in atom.terms:
            if isinstance(term, Var):
                occurrences[term.name] = occurrences.get(term.name, 0) + 1
    free = q.free
    schema = mdset.schema
    for idx, atom in enumerate(q.atoms, start=1):
        attrs = schema.relation(atom.rel).attrs
        for j, term in enumerate(atom.terms):
            attr = (atom.rel, attrs[j])
            if attr not in mdset.changeable:
                continue
            if isinstance(term, Const):
                return False, (
                    f"constant {quote(term.value)} sits at changeable position "
                    f"{atom.rel}[{attrs[j]}] (atom {idx})"
                )
            if term.name not in free and occurrences[term.name] >= 2:
                return False, (
                    f"variable {term.name} occurs {occurrences[term.name]} times "
                    f"and sits at changeable position {atom.rel}[{attrs[j]}] "
                    f"(atom {idx})"
                )
    return True, None


# ---------------------------------------------------------------------------
# Rewriting

@dataclass(frozen=True)
class MajorityCondition:
    """One strict-majority requirement: the value of `var` must be the unique
    winner of the closure block anchored at position `pos` of the atom."""

    pos: int
    var: str
    attr: Attr
    klass: tuple[Attr, ...]


@dataclass(frozen=True)
class RewrittenAtom:
    original: Atom
    primed: Atom | None  # None: the atom is untouched
    conditions: tuple[MajorityCondition, ...]


@dataclass(frozen=True)
class RewrittenQuery:
    name: str
    head: tuple[Var, ...]
    atoms: tuple[RewrittenAtom, ...]
    mdset: MDSet

    def render(self) -> str:
        head = f"{self.name}({', '.join(str(v) for v in self.head)})"
        parts = []
        for ra in self.atoms:
            if ra.primed is None:
                parts.append(str(ra.original))
            else:
                parts.append(_render_rewritten(ra, self.mdset.schema))
        return f"{head} :- {', '.join(parts)}"

    def __str__(self) -> str:
        return self.render()


def _render_count(
    schema: Schema, member: Attr, ordinal: int, value_var: str,
    anchor: str, exclude: str | None,
) -> str:
    rschema = schema.relation(member[0])
    slot = rschema.index(member[1])
    terms = [
        value_var if k == slot else f"{name.lower()}{ordinal}'"
        for k, name in enumerate(rschema.attrs)
    ]
    atom_txt = f"{member[0]}({', '.join(terms)})"
    ta_txt = f"ta({anchor}, {atom_txt}[{member[1]}])"
    guard = f", {value_var} != {exclude}" if exclude else ""
    return f"#{{{atom_txt} : {ta_txt}{guard}}}"


def _render_rewritten(ra: RewrittenAtom, schema: Schema) -> str:
    primed_vars = ", ".join(
        str(ra.primed.terms[c.pos]) for c in ra.conditions
    )
    pieces = [str(ra.primed)]
    for c in ra.conditions:
        anchor = f"{ra.primed}[{c.attr[1]}]"
        sum1 = " + ".join(
            _render_count(schema, member, k, c.var, anchor, None)
            for k, member in enumerate(c.klass, start=1)
        )
        sum2 = " + ".join(
            _render_count(schema, member, k, f"{c.var}''", anchor, c.var)
            for k, member in enumerate(c.klass, start=1)
        )
        pieces.append(f"forall {c.var}'' ({sum1} > {sum2})")
    return f"exists {primed_vars} ({' & '.join(pieces)})"


def rewrite(q: ConjunctiveQuery, mdset: MDSet) -> RewrittenQuery:
    """Instance-independent rewriting of a join-safe query over a fast set.

    Checks its own eligibility: a query that is not join-safe (is_ujcq) or
    an MD set outside the fast classes (classify) raises one
    NotEligibleError that names every failing reason.

    Atoms without free variables at changeable positions pass through. Every
    other atom gets a primed copy (the stored value at those positions is
    existentially quantified away) plus one strict-majority condition per
    affected position, summed over the position's match-class.
    """
    ok, witness = is_ujcq(q, mdset)
    cls = classify(mdset)
    reasons = [] if ok else [f"query is not join-safe for rewriting: {witness}"]
    if not cls.fast:
        reasons.append(
            f"rewriting applies to NonInteracting, SimpleCycle and HitSimpleCycle "
            f"sets; this set classifies as {cls.label}"
        )
    if reasons:
        raise NotEligibleError("; ".join(reasons))
    free = q.free
    out = []
    for atom in q.atoms:
        attrs = mdset.schema.relation(atom.rel).attrs
        cpos = [
            j
            for j, term in enumerate(atom.terms)
            if isinstance(term, Var)
            and term.name in free
            and (atom.rel, attrs[j]) in mdset.changeable
        ]
        if not cpos:
            out.append(RewrittenAtom(atom, None, ()))
            continue
        per_var = {}
        for j in cpos:
            per_var[atom.terms[j].name] = per_var.get(atom.terms[j].name, 0) + 1
        primed_terms = list(atom.terms)
        conditions = []
        for j in cpos:
            var = atom.terms[j]
            primed_name = (
                f"{var.name}'" if per_var[var.name] == 1 else f"{var.name}'{j + 1}"
            )
            primed_terms[j] = Var(primed_name)
            attr = (atom.rel, attrs[j])
            conditions.append(
                MajorityCondition(j, var.name, attr, eqr_class(mdset, attr))
            )
        out.append(RewrittenAtom(atom, Atom(atom.rel, tuple(primed_terms)), tuple(conditions)))
    return RewrittenQuery(f"{q.name}'", q.head, tuple(out), mdset)


def eval_rewritten(rq: RewrittenQuery, d: Instance) -> AnswerSet:
    """Evaluate a rewritten query on the original instance.

    The majority conditions reduce to: the closure block of the witness
    position must have a unique most frequent value, and that value is what
    the free variable binds to. Summing the per-relation counts of the
    match-class over TA-linked tuples is exactly the block frequency table,
    so no per-candidate iteration is needed. Evaluation is therefore plain
    evaluation of the original query over one view per atom: each condition
    position holds its block's unique winner, and a row drops out when one
    of those blocks has no unique winner.

    The winners are the partition's `slot_winners`, one count of (class,
    value) pairs over the closure's classes: no block is listed, sorted or
    tallied. A view is a set of rows, kept in first-seen order: the
    duplicates that the MDs resolve become identical rows, and since the
    answer is a set, the join reads each distinct row once.
    """
    partition = ta_closure(d, rq.mdset)
    winner = partition.slot_winners.__getitem__

    def view(ra: RewrittenAtom) -> dict[tuple[str, ...], None]:
        table = d.data.get(ra.original.rel, {})
        rows = table.values()
        if not ra.conditions or not table:
            return dict.fromkeys(rows)
        # each condition column is replaced by its slots' winners, read
        # column-wise, and a row with a block that has none drops out
        columns: list = list(zip(*rows))
        for c in ra.conditions:
            columns[c.pos] = map(winner, map(partition.slots[c.attr].__getitem__, table))
        return dict.fromkeys([row for row in zip(*columns) if None not in row])

    body = [ra.original.terms for ra in rq.atoms]
    results = set(join(rq.head, body, [view(ra) for ra in rq.atoms]))
    return AnswerSet(tuple(sorted(results)), "rewrite", rq, ujcq=(True, None))


# ---------------------------------------------------------------------------
# Entry point

def resolved_answers(
    q: ConjunctiveQuery,
    d: Instance,
    mdset: MDSet,
    mode: str = "auto",
    bounds: OracleBounds | None = None,
) -> AnswerSet:
    """Answers true on every minimal resolved instance.

    mode "rewrite" insists on the fast path and raises rewrite's
    NotEligibleError when the query or the MD set disqualifies it; "oracle"
    intersects over the MRIs, built one at a time (so max_materialized does
    not apply); "auto" tries the rewrite and falls back to the oracle when
    rewrite refuses. The answer set keeps the
    query's is_ujcq verdict as `ujcq`: (True, None) on the rewrite path,
    which only a join-safe query reaches.
    """
    if mode not in ("auto", "rewrite", "oracle"):
        raise InputError(f"unknown answer mode {mode!r}")
    refusal = None
    if mode != "oracle":
        try:
            rq = rewrite(q, mdset)
        except NotEligibleError as exc:
            if mode == "rewrite":
                raise
            refusal = exc
        else:
            return eval_rewritten(rq, d)
    try:
        space, winners, _ = minimal_states(d, mdset, bounds or OracleBounds())
    except BoundsExceededError as exc:
        if refusal is not None:
            raise BoundsExceededError(
                f"{exc} (and the rewrite path was not available: {refusal})"
            ) from exc
        raise
    common: set[tuple[str, ...]] | None = None
    for state in winners:
        tuples = _eval_tuples(q, space.instance(state))
        common = tuples if common is None else common & tuples
        if not common:
            break
    return AnswerSet(tuple(sorted(common or set())), "oracle", ujcq=is_ujcq(q, mdset))

