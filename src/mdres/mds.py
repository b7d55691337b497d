"""Matching dependencies: parsing, the dependency graph, and the classifier.

An MD has the shape `R[A1] ~s1 S[B1], ... -> R[C1] == S[E1], ...`: when the
left-hand similarity conditions hold on a pair of tuples, the right-hand
attribute pairs must be made equal. Each condition and match is oriented
onto the MD's two relations in sorted order: across two relations the end
in the first one comes first; on a relation matched with itself the left
end is the first tuple and the right end the second, as written. A set of
MDs is kept in standard form: MDs whose conditions are equal as written
(once oriented, in any order) merge their right-hand sides. MDs are
separated by `;` (one after the last MD is optional) and `#`
starts a comment that runs to the end of the line.

`TokenStream` is the one tokenizer of the package: MD text here and query
text in `query.py` are both read through it, so the two grammars split text
the same way and word their errors the same way ("unexpected character ...
in MD text", "expected ident in query, got ...").

The classifier places a set into one of six buckets that drive everything
downstream. Three of them admit the fast resolution path:

- NonInteracting: the dependency graph has no edges.
- SimpleCycle: the graph is one cycle and the MDs are symmetric in the sense
  that every corresponding pair relates an attribute to itself, with at most
  one changeable left-hand attribute per MD.
- HitSimpleCycle: same MD shape, and every graph vertex is on a cycle or
  points directly at one.

Two-MD chains (exactly one edge) get the easy/hard analysis based on
equivalent sets and component structure; everything else is Unknown.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Mapping

from .dsets import DisjointSet
from .errors import InputError, NotEligibleError, ParseError
from .relation import Attr, Schema, format_attr
from . import similarity
from .similarity import EQUALITY, SimilaritySpec

FAST_LABELS = frozenset({"NonInteracting", "SimpleCycle", "HitSimpleCycle"})


@dataclass(frozen=True)
class Conjunct:
    """One left-hand condition: `left ~sim right`."""

    left: Attr
    right: Attr
    sim: str

    def __str__(self) -> str:
        op = "=" if self.sim == "=" else f"~{self.sim}"
        return f"{format_attr(self.left)} {op} {format_attr(self.right)}"


@dataclass(frozen=True)
class MD:
    mid: str
    left_rel: str
    right_rel: str
    lhs: tuple[Conjunct, ...]
    rhs: tuple[tuple[Attr, Attr], ...]

    @property
    def lhs_attrs(self) -> frozenset[Attr]:
        return frozenset(a for c in self.lhs for a in (c.left, c.right))

    @property
    def rhs_attrs(self) -> frozenset[Attr]:
        return frozenset(a for pair in self.rhs for a in pair)

    @property
    def sims_used(self) -> frozenset[str]:
        return frozenset(c.sim for c in self.lhs)

    def __str__(self) -> str:
        lhs = ", ".join(str(c) for c in self.lhs)
        rhs = ", ".join(
            f"{format_attr(c)} == {format_attr(e)}" for c, e in self.rhs
        )
        return f"{self.mid}: {lhs} -> {rhs}"


@dataclass(eq=False)
class MDSet:
    """A standard-form set of MDs together with its schema and similarities.

    `domain`, when given, returns the values that unchecked transitivity
    verdicts are checked against; it is called only when a verdict is first
    needed (see `transitive`).
    """

    mds: tuple[MD, ...]
    schema: Schema
    sims: dict[str, SimilaritySpec]
    domain: Callable[[], Iterable[str]] | None = field(default=None, repr=False)
    _verdicts: dict[SimilaritySpec, bool] = field(
        default_factory=dict, init=False, repr=False
    )

    @cached_property
    def _by_id(self) -> dict[str, MD]:
        return {md.mid: md for md in self.mds}

    def by_id(self, mid: str) -> MD:
        try:
            return self._by_id[mid]
        except KeyError:
            raise InputError(f"no MD named {mid!r}") from None

    @cached_property
    def changeable(self) -> frozenset[Attr]:
        return frozenset(a for md in self.mds for a in md.rhs_attrs)

    @cached_property
    def graph(self) -> "MDGraph":
        return build_md_graph(self)

    def transitive(self, spec: SimilaritySpec) -> bool | None:
        """The spec's transitivity verdict, None when it cannot be decided.

        Only a declared lev can be unchecked: it is checked against the
        set's domain on first read, and the verdict is kept for later reads.
        """
        if spec.transitive is not None or self.domain is None:
            return spec.transitive
        verdict = self._verdicts.get(spec)
        if verdict is None:
            verdict = similarity.verify_transitivity(spec, self.domain())
            self._verdicts[spec] = verdict
        return verdict


@dataclass(frozen=True)
class MDGraph:
    """Dependency graph: an edge a -> b when RHS(a) shares attributes with LHS(b)."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    @property
    def edgeless(self) -> bool:
        return not self.edges

    # Built once per graph: the closure asks for every MD's predecessors.
    @cached_property
    def _successors(self) -> dict[str, tuple[str, ...]]:
        return _adjacency(self.edges)

    @cached_property
    def _predecessors(self) -> dict[str, tuple[str, ...]]:
        return _adjacency((b, a) for a, b in self.edges)

    def successors(self, mid: str) -> tuple[str, ...]:
        return self._successors.get(mid, ())

    def predecessors(self, mid: str) -> tuple[str, ...]:
        return self._predecessors.get(mid, ())

    def on_cycle(self, mid: str) -> bool:
        """True when some path of length >= 1 leads from mid back to itself."""
        seen: set[str] = set()
        frontier = list(self.successors(mid))
        while frontier:
            v = frontier.pop()
            if v == mid:
                return True
            if v in seen:
                continue
            seen.add(v)
            frontier.extend(self.successors(v))
        return False

    def is_single_cycle(self) -> bool:
        if any(
            len(self.successors(v)) != 1 or len(self.predecessors(v)) != 1
            for v in self.vertices
        ):
            return False
        start = self.vertices[0]
        v, length = self.successors(start)[0], 1
        while v != start:
            v, length = self.successors(v)[0], length + 1
        return length == len(self.vertices)


def _adjacency(edges: Iterable[tuple[str, str]]) -> dict[str, tuple[str, ...]]:
    """Each edge source's targets, sorted."""
    adj: dict[str, list[str]] = {}
    for a, b in sorted(edges):
        adj.setdefault(a, []).append(b)
    return {a: tuple(bs) for a, bs in adj.items()}


@dataclass(frozen=True)
class ESInfo:
    """An equivalent set of a two-MD chain, with its boundedness verdict."""

    attrs: tuple[Attr, ...]
    bound: bool
    side: str  # relation name the set belongs to

    def __str__(self) -> str:
        members = ", ".join(format_attr(a) for a in self.attrs)
        return f"{{{members}}} ({'bound' if self.bound else 'unbound'}, side {self.side})"


@dataclass(frozen=True)
class Classification:
    label: str
    evidence: tuple[str, ...]

    @property
    def fast(self) -> bool:
        return self.label in FAST_LABELS


# ---------------------------------------------------------------------------
# Parsing

# One regex splits the text into tokens, and a token's kind is read off its
# text. Its alternatives are tried in order: `ident`, the most common token,
# comes first, which is safe because no other kind starts with a letter or
# `_`; `:-`, `->` and `==` come before `-5` and `=`; a single character that
# is no token's start ends up as a one-character token of its own.
_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\s+|\#[^\n]*|:-|->|==|-?\d+|'(?:[^']|'')*'|.")
_PUNCTUATION = {
    ":-": "impl", "->": "arrow", "==": "matcheq", "=": "eq", "~": "tilde", ",": "comma",
    ";": "semi", ".": "dot", "(": "lparen", ")": "rparen", "[": "lbrack", "]": "rbrack",
}
_END = ("end", "end of input")


class TokenStream:
    """The tokens of MD text or query text, read left to right.

    Both grammars share one token set; a kind one grammar never uses is a
    parse error there, never a different split. `what` names the text in
    every error message.
    """

    def __init__(self, text: str, what: str):
        self.what = what
        self.tokens = []
        for token in _TOKEN_RE.findall(text):
            kind = _PUNCTUATION.get(token)
            if kind is None:
                first = token[0]  # \s is str.isspace, \d is str.isdecimal
                if first == "_" or first.isascii() and first.isalpha():
                    kind = "ident"
                elif first.isspace() or first == "#":
                    continue  # blanks and comments
                elif first == "'" and len(token) > 1:
                    kind = "string"
                elif first.isdecimal() or first == "-" and len(token) > 1:
                    kind = "number"
                else:
                    raise ParseError(f"unexpected character {token!r} in {what}")
            self.tokens.append((kind, token))
        self.tokens.append(_END)  # never taken, so the stream never runs out
        self.i = 0

    def peek(self) -> tuple[str, str]:
        """The next token as (kind, text); ("end", "end of input") after the last."""
        return self.tokens[self.i]

    def take(self, kind: str) -> str:
        """The text of the next token, which must be of `kind`."""
        got, text = self.tokens[self.i]
        if got != kind:
            raise ParseError(f"expected {kind} in {self.what}, got {text!r}")
        self.i += 1
        return text

    def skip(self, kind: str) -> bool:
        """Take the next token if it is of `kind`; whether it was."""
        if self.tokens[self.i][0] != kind:
            return False
        self.i += 1
        return True


def _parse_attr(ts: TokenStream, schema: Schema) -> tuple[Attr, str]:
    """An attribute `Rel[Name]` and its domain tag."""
    rel = ts.take("ident")
    ts.take("lbrack")
    name = ts.take("ident")
    ts.take("rbrack")
    if not schema.has_attr((rel, name)):
        raise InputError(f"unknown attribute {format_attr((rel, name))}")
    rschema = schema.relation(rel)
    return (rel, name), rschema.tags[rschema.index(name)]


def parse_mds(
    text: str,
    schema: Schema,
    sims: Mapping[str, SimilaritySpec] | None = None,
    domain: Callable[[], Iterable[str]] | None = None,
) -> MDSet:
    """Parse MD text into a standard-form MDSet, one MD at a time.

    MDs are separated by `;`; one after the last MD is optional. Each MD is
    oriented (`_orient`) before the next is read, so the first bad MD is
    the one reported. On a relation matched with itself the left end of a
    condition or match is the first tuple and the right end the second.
    MDs whose conditions are equal as written, in any order, merge: their
    matches are concatenated without repeats, and ids m1, m2, ... are
    assigned over the merged list. `domain` becomes the set's `domain`.
    """
    sims = dict(sims or {})
    sims.setdefault("=", EQUALITY)
    ts = TokenStream(text, "MD text")
    merged: dict[frozenset[Conjunct], tuple[str, str, tuple[Conjunct, ...], dict]] = {}
    while ts.peek() is not _END:
        conds = _read_side(ts, schema, sims)
        ts.take("arrow")
        matches = _read_side(ts, schema)
        rels = sorted({a[0] for left, _, right in conds + matches for a in (left, right)})
        if len(rels) > 2:
            raise InputError(
                f"an MD relates exactly two relation occurrences, got {rels}"
            )
        pair = (rels[0], rels[-1])
        lhs = tuple(
            Conjunct(*_orient("condition", c, pair), sim=c[1].lstrip("~")) for c in conds
        )
        rhs = merged.setdefault(frozenset(lhs), (*pair, lhs, {}))[3]
        rhs.update(dict.fromkeys(_orient("match", m, pair) for m in matches))
        if ts.peek() is not _END:
            ts.take("semi")
    if not merged:
        raise InputError("no MDs given")
    mds = tuple(
        MD(f"m{i}", left_rel, right_rel, lhs, tuple(rhs))
        for i, (left_rel, right_rel, lhs, rhs) in enumerate(merged.values(), start=1)
    )
    used = {c.sim for md in mds for c in md.lhs}
    return MDSet(
        mds, schema, {n: s for n, s in sims.items() if n in used or n == "="}, domain
    )


def _read_side(
    ts: TokenStream, schema: Schema, sims: Mapping[str, SimilaritySpec] | None = None
) -> list[tuple[Attr, str, Attr]]:
    """One side of an MD as written: `attr op attr` items, comma separated.

    With `sims`, conditions (op `=` or `~name` for a known similarity);
    without, matches (op `==`). Both ends of an item share a domain tag.
    """
    kind = "condition" if sims is not None else "match"
    items = []
    while True:
        left, tag = _parse_attr(ts, schema)
        if sims is None:
            op = ts.take("matcheq")
        elif ts.skip("eq"):
            op = "="
        elif ts.skip("tilde"):
            name = ts.take("ident")
            if name not in sims:
                raise InputError(f"unknown similarity {name!r}")
            op = "~" + name
        else:
            raise ParseError(
                "expected a similarity operator (= or ~name) in MD text, "
                f"got {ts.peek()[1]!r}"
            )
        right, right_tag = _parse_attr(ts, schema)
        if tag != right_tag:
            raise InputError(
                f"{kind} {format_attr(left)} / {format_attr(right)}: "
                "domain tags differ"
            )
        items.append((left, op, right))
        if not ts.skip("comma"):
            return items


def _orient(
    kind: str, item: tuple[Attr, str, Attr], pair: tuple[str, str]
) -> tuple[Attr, Attr]:
    """The ends of a condition or match, the one in pair[0] first.

    Similarities and matches are symmetric, so swapping the ends is
    harmless. Within one relation the ends stay as written.
    """
    left, op, right = item
    if (left[0], right[0]) == pair:
        return left, right
    if (right[0], left[0]) == pair:
        return right, left
    raise InputError(
        f"{kind} {format_attr(left)} {op} {format_attr(right)} stays inside "
        "one relation while the MD spans two"
    )


# ---------------------------------------------------------------------------
# Graph and structural helpers

def build_md_graph(mdset: MDSet) -> MDGraph:
    readers: dict[Attr, list[str]] = {}  # attribute -> MDs conditioning on it
    for md in mdset.mds:
        for attr in md.lhs_attrs:
            readers.setdefault(attr, []).append(md.mid)
    edges = frozenset(
        (a.mid, b)
        for a in mdset.mds
        for attr in a.rhs_attrs
        for b in readers.get(attr, ())
    )
    return MDGraph(tuple(md.mid for md in mdset.mds), edges)


def previous_set(graph: MDGraph, mid: str) -> frozenset[str]:
    """All MDs with a directed path into mid, plus mid itself."""
    if mid not in graph.vertices:
        raise InputError(f"no MD named {mid!r} in the graph")
    seen = {mid}
    frontier = [mid]
    while frontier:
        v = frontier.pop()
        for p in graph.predecessors(v):
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return frozenset(seen)


def _classes(items: Iterable, pairs: Iterable[tuple]) -> list[tuple]:
    """The connected components of the items and of the items the pairs
    mention, under the pairs: every component, singletons included, as a
    sorted tuple, in sorted order. The items are numbered for a
    dsets.DisjointSet."""
    pairs = list(pairs)
    names = list(dict.fromkeys(chain(items, chain.from_iterable(pairs))))
    number = {item: i for i, item in enumerate(names)}
    classes = DisjointSet(len(names))
    for a, b in pairs:
        classes.union(number[a], number[b])
    return sorted([tuple(sorted(map(names.__getitem__, c))) for c in classes.blocks()])


def eqr_classes(mdset: MDSet) -> tuple[tuple[Attr, ...], ...]:
    """Classes of changeable attributes under the closure of the match relation."""
    return tuple(_classes(mdset.changeable, chain.from_iterable(md.rhs for md in mdset.mds)))


def eqr_class(mdset: MDSet, attr: Attr) -> tuple[Attr, ...]:
    """The class holding attr; an unchangeable attribute is a class of its own."""
    if attr not in mdset.changeable:
        return (attr,)
    return next(c for c in eqr_classes(mdset) if attr in c)


# ---------------------------------------------------------------------------
# Two-MD chain analysis (side space)
#
# A chain m1 -> m2 is analyzed over "side attributes" ("L"/"R" occurrence
# copies). For two distinct relations this is plain renaming; for a single
# relation matched against itself it keeps the two occurrences apart.
# parse_mds orients every condition and match over sorted relation names, so
# the left end of each is side L and the right end side R, and the two MDs
# of a chain agree on which occurrence is which.

_SIDE_L = "L"
_SIDE_R = "R"


class _SideView:
    def __init__(self, m1: MD, m2: MD):
        if (m1.left_rel, m1.right_rel) != (m2.left_rel, m2.right_rel):
            raise NotEligibleError(
                "the two MDs of a chain must span the same relations"
            )
        self.rel_l, self.rel_r = m1.left_rel, m1.right_rel
        self.same_rel = self.rel_l == self.rel_r
        self.lhs1 = [_sides(c.left, c.right) for c in m1.lhs]
        self.rhs1 = [_sides(a, b) for a, b in m1.rhs]
        self.lhs2 = [_sides(c.left, c.right) for c in m2.lhs]
        self.lhs1_attrs = {a for p in self.lhs1 for a in p}
        self.lhs2_attrs = {a for p in self.lhs2 for a in p}
        self.rhs1_attrs = {a for p in self.rhs1 for a in p}

    def real(self, side_attr) -> Attr:
        return (self.rel_l if side_attr[0] == _SIDE_L else self.rel_r, side_attr[1])

    def show(self, side_attr) -> str:
        base = format_attr(self.real(side_attr))
        if self.same_rel:
            base += "@left" if side_attr[0] == _SIDE_L else "@right"
        return base

    def side_name(self, side: str) -> str:
        if not self.same_rel:
            return self.rel_l if side == _SIDE_L else self.rel_r
        return f"{self.rel_l}/left" if side == _SIDE_L else f"{self.rel_l}/right"

    def equivalent_sets(self, side: str):
        """TC classes of the relating-relation restricted to one side: the
        side's attributes in one component of m1's matches or of m2's
        conditions share a class. Only classes that touch LHS(m2) are kept."""
        links = []
        for comp in _classes((), self.rhs1) + _classes((), self.lhs2):
            on_side = [a for a in comp if a[0] == side]
            links += [(on_side[0], a) for a in on_side[1:]]
        items = [a for a in self.rhs1_attrs | self.lhs2_attrs if a[0] == side]
        return [c for c in _classes(items, links) if any(a in self.lhs2_attrs for a in c)]


def _sides(left: Attr, right: Attr):
    """A condition's or match's two ends as side attributes."""
    return (_SIDE_L, left[1]), (_SIDE_R, right[1])


def _chain_edge(mdset: MDSet) -> tuple[MD, MD] | None:
    g = mdset.graph
    if len(g.vertices) != 2 or len(g.edges) != 1:
        return None
    (a, b) = next(iter(g.edges))
    if a == b:
        return None
    return mdset.by_id(a), mdset.by_id(b)


def equivalent_sets(mdset: MDSet) -> list[ESInfo]:
    """Equivalent sets of a two-MD chain over distinct relations."""
    edge = _chain_edge(mdset)
    if edge is None:
        raise NotEligibleError("equivalent sets are defined for two-MD chains only")
    m1, m2 = edge
    if m1.left_rel == m1.right_rel:
        raise NotEligibleError(
            "equivalent sets over a self-matched relation are not exposed; "
            "classification handles that case internally"
        )
    view = _SideView(m1, m2)
    out = []
    for side in (_SIDE_L, _SIDE_R):
        for cls in view.equivalent_sets(side):
            attrs = tuple(sorted(view.real(a) for a in cls))
            bound = any(a in view.lhs1_attrs for a in cls)
            out.append(ESInfo(attrs, bound, view.side_name(side)))
    return out


def _classify_chain(mdset: MDSet) -> Classification:
    m1, m2 = _chain_edge(mdset)  # type: ignore[misc]
    evidence = [f"chain: {m1.mid} feeds {m2.mid}"]
    try:
        view = _SideView(m1, m2)
    except NotEligibleError as exc:
        return Classification("Unknown", (*evidence, str(exc)))

    overlap = view.rhs1_attrs & view.lhs2_attrs
    l_comps_m1 = _classes((), view.lhs1)

    side_ok: dict[str, bool] = {}
    for side in (_SIDE_L, _SIDE_R):
        name = view.side_name(side)
        held = []
        if not any(a[0] == side for a in overlap):
            held.append(
                f"(i) no {name} attribute is shared between the targets of "
                f"{m1.mid} and the conditions of {m2.mid}"
            )
        es = view.equivalent_sets(side)
        unbound = [c for c in es if not any(a in view.lhs1_attrs for a in c)]
        if not unbound:
            held.append(
                f"(ii) every equivalent set on {name} is bound"
                + (f" ({len(es)} sets)" if es else " (no sets)")
            )
        comp_ok = all(
            any(a[0] == side and a in view.lhs2_attrs for a in comp)
            for comp in l_comps_m1
        )
        if comp_ok:
            held.append(
                f"(iii) each condition component of {m1.mid} reaches the "
                f"conditions of {m2.mid} through a {name} attribute"
            )
        if held:
            side_ok[side] = True
            evidence.append(f"side {name}: " + held[0])
        else:
            side_ok[side] = False
            shared = sorted(view.show(a) for a in overlap if a[0] == side)
            ubs = ["{" + ", ".join(view.show(a) for a in c) + "}" for c in unbound]
            evidence.append(
                f"side {name}: no easiness clause holds "
                f"(shared attributes: {shared or 'none'}; "
                f"unbound equivalent sets: {ubs or 'none'})"
            )

    syntactic_easy = side_ok[_SIDE_L] and side_ok[_SIDE_R]

    used = sorted(m1.sims_used | m2.sims_used)
    sims = mdset.sims
    flags = {
        name: (mdset.transitive(sims[name]) if name in sims else None) for name in used
    }
    non_transitive = sorted(n for n, f in flags.items() if f is False)
    unchecked = sorted(n for n, f in flags.items() if f is None)

    if syntactic_easy and not non_transitive and not unchecked:
        evidence.append(f"similarities transitive: {', '.join(used)}")
        return Classification("LinearPairEasy", tuple(evidence))

    if syntactic_easy and unchecked and not non_transitive:
        evidence.append(
            "transitivity not yet checked for: " + ", ".join(unchecked)
        )
        return Classification("Unknown", tuple(evidence))

    if non_transitive:
        evidence.append(
            "non-transitive similarities break the easiness condition: "
            + ", ".join(non_transitive)
        )

    rhs_shared = sorted(m1.rhs_attrs & m2.rhs_attrs)
    if not rhs_shared:
        evidence.append(f"targets of {m1.mid} and {m2.mid} are disjoint")
        evidence.append(
            "hardness assumes each similarity admits unboundedly many "
            "mutually dissimilar values"
        )
        return Classification("LinearPairHard", tuple(evidence))

    evidence.append(
        "targets overlap ("
        + ", ".join(format_attr(a) for a in rhs_shared)
        + "); neither the easy nor the hard criterion applies"
    )
    return Classification("Unknown", tuple(evidence))


def classify(mdset: MDSet) -> Classification:
    """Structural classification of an MD set.

    A two-MD chain reads the transitivity verdicts of the set's similarity
    specs: specs checked against the instance at hand, or specs the set
    checks against its own domain on first read. Without either, an
    unchecked lev verdict leaves the chain Unknown.
    """
    g = mdset.graph
    if g.edgeless:
        return Classification(
            "NonInteracting", ("dependency graph has no edges",)
        )

    pair_fail = None
    for md in mdset.mds:
        bad = [f"condition {c}" for c in md.lhs if c.left != c.right] + [
            f"match {format_attr(a)} == {format_attr(b)}" for a, b in md.rhs if a != b
        ]
        if bad:
            pair_fail = f"{bad[0]} of {md.mid} relates distinct attributes"
            break

    lhs_fail = None
    for md in mdset.mds:
        touched = sorted(md.lhs_attrs & mdset.changeable)
        if len(touched) > 1:
            lhs_fail = (
                f"{md.mid} conditions on {len(touched)} changeable attributes "
                f"({', '.join(format_attr(a) for a in touched)})"
            )
            break

    if pair_fail is None and lhs_fail is None:
        symmetric_ev = (
            "every condition and match relates an attribute to itself",
            "each MD conditions on at most one changeable attribute",
        )
        if g.is_single_cycle():
            cycle = " -> ".join(g.vertices + (g.vertices[0],))
            return Classification(
                "SimpleCycle", (f"dependency graph is the cycle {cycle}",) + symmetric_ev
            )
        on_cycle = {v for v in g.vertices if g.on_cycle(v)}
        if on_cycle and all(
            v in on_cycle or any(w in on_cycle for w in g.successors(v))
            for v in g.vertices
        ):
            outside = sorted(set(g.vertices) - on_cycle)
            ev = (
                "every MD is on a cycle"
                if not outside
                else "every MD is on a cycle or feeds one directly "
                f"(off-cycle: {', '.join(outside)})"
            )
            return Classification("HitSimpleCycle", (ev,) + symmetric_ev)

    if _chain_edge(mdset) is not None:
        return _classify_chain(mdset)

    reasons = ["no fast structure and not a two-MD chain"]
    if pair_fail:
        reasons.append(pair_fail)
    if lhs_fail:
        reasons.append(lhs_fail)
    return Classification("Unknown", tuple(reasons))
