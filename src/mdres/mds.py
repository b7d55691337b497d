"""Matching dependencies: parsing, the dependency graph, and the classifier.

An MD has the shape `R[A1] ~s1 S[B1], ... -> R[C1] == S[E1], ...`: when the
left-hand similarity conditions hold on a pair of tuples, the right-hand
attribute pairs must be made equal. A set of MDs is kept in standard form
(no two MDs share a left-hand side; right-hand sides of duplicates merge).
MDs are separated by `;` (one after the last MD is optional) and `#`
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
from typing import Callable, Iterable, Mapping, Sequence

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

    def canonical(self):
        return (frozenset((self.left, self.right)), self.sim)


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

    def by_id(self, mid: str) -> MD:
        for md in self.mds:
            if md.mid == mid:
                return md
        raise InputError(f"no MD named {mid!r}")

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

    def successors(self, mid: str) -> tuple[str, ...]:
        return tuple(sorted(b for a, b in self.edges if a == mid))

    def predecessors(self, mid: str) -> tuple[str, ...]:
        return tuple(sorted(a for a, b in self.edges if b == mid))

    def on_cycle(self, mid: str) -> bool:
        """True when some path of length >= 1 leads from mid back to itself."""
        seen: set[str] = set()
        frontier = [b for a, b in self.edges if a == mid]
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
        outs = {v: self.successors(v) for v in self.vertices}
        ins = {v: self.predecessors(v) for v in self.vertices}
        if any(len(outs[v]) != 1 or len(ins[v]) != 1 for v in self.vertices):
            return False
        start = self.vertices[0]
        seen = [start]
        v = outs[start][0]
        while v != start:
            seen.append(v)
            v = outs[v][0]
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class AttrPartition:
    """Partition of a set of attributes into blocks."""

    blocks: tuple[tuple[Attr, ...], ...]

    def block_of(self, attr: Attr) -> tuple[Attr, ...]:
        for block in self.blocks:
            if attr in block:
                return block
        raise InputError(f"{format_attr(attr)} is not covered by this partition")


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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<impl>:-)
  | (?P<arrow>->)
  | (?P<matcheq>==)
  | (?P<eq>=)
  | (?P<tilde>~)
  | (?P<comma>,)
  | (?P<semi>;)
  | (?P<dot>\.)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbrack>\[)
  | (?P<rbrack>\])
  | (?P<number>-?\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<bad>.)
""",
    re.VERBOSE,
)
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
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r} in {what}")
            if kind != "ws" and kind != "comment":
                self.tokens.append((kind, m.group()))
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


def _parse_attr(ts: TokenStream, schema: Schema) -> Attr:
    rel = ts.take("ident")
    ts.take("lbrack")
    name = ts.take("ident")
    ts.take("rbrack")
    attr = (rel, name)
    if not schema.has_attr(attr):
        raise InputError(f"unknown attribute {format_attr(attr)}")
    return attr


def _attr_tag(schema: Schema, attr: Attr) -> str:
    rschema = schema.relation(attr[0])
    return rschema.tags[rschema.index(attr[1])]


def parse_mds(
    text: str,
    schema: Schema,
    sims: Mapping[str, SimilaritySpec] | None = None,
    domain: Callable[[], Iterable[str]] | None = None,
) -> MDSet:
    """Parse MD text into a standard-form MDSet.

    MDs are separated by `;`; one after the last MD is optional. Ids m1,
    m2, ... are assigned in input order; MDs with the same left-hand side
    are merged (their right-hand sides are concatenated) and ids reassigned
    over the merged list. `domain` becomes the set's `MDSet.domain`.
    """
    sims = dict(sims or {})
    sims.setdefault("=", EQUALITY)
    ts = TokenStream(text, "MD text")
    raw = []
    while ts.peek() is not _END:
        conjuncts = []
        while True:
            left = _parse_attr(ts, schema)
            if ts.skip("eq"):
                sim_name = "="
            elif ts.skip("tilde"):
                sim_name = ts.take("ident")
                if sim_name not in sims:
                    raise InputError(f"unknown similarity {sim_name!r}")
            else:
                raise ParseError(
                    "expected a similarity operator (= or ~name) in MD text, "
                    f"got {ts.peek()[1]!r}"
                )
            right = _parse_attr(ts, schema)
            if _attr_tag(schema, left) != _attr_tag(schema, right):
                raise InputError(
                    f"condition {format_attr(left)} / {format_attr(right)}: "
                    "domain tags differ"
                )
            conjuncts.append(Conjunct(left, right, sim_name))
            if not ts.skip("comma"):
                break
        ts.take("arrow")
        matches = []
        while True:
            left = _parse_attr(ts, schema)
            ts.take("matcheq")
            right = _parse_attr(ts, schema)
            if _attr_tag(schema, left) != _attr_tag(schema, right):
                raise InputError(
                    f"match {format_attr(left)} / {format_attr(right)}: "
                    "domain tags differ"
                )
            matches.append((left, right))
            if not ts.skip("comma"):
                break
        raw.append((conjuncts, matches))
        if ts.peek() is not _END:
            ts.take("semi")
    if not raw:
        raise InputError("no MDs given")

    normalized = [_normalize(conjs, matches) for conjs, matches in raw]

    # Standard form: merge MDs with equal left-hand sides, in first-seen order.
    merged: dict[frozenset, list] = {}
    for left_rel, right_rel, conjs, matches in normalized:
        key = frozenset(c.canonical() for c in conjs)
        if key not in merged:
            merged[key] = [left_rel, right_rel, list(conjs), []]
        for pair in matches:
            if pair not in merged[key][3]:
                merged[key][3].append(pair)
    mds = tuple(
        MD(f"m{i}", left_rel, right_rel, tuple(conjs), tuple(matches))
        for i, (left_rel, right_rel, conjs, matches) in enumerate(merged.values(), start=1)
    )
    used = {c.sim for md in mds for c in md.lhs}
    return MDSet(
        mds, schema, {n: s for n, s in sims.items() if n in used or n == "="}, domain
    )


def _normalize(conjuncts: Sequence[Conjunct], matches: Sequence[tuple[Attr, Attr]]):
    """Orient an MD so the two relation occurrences appear in a fixed order.

    Every condition and match must span the same two relations (or a single
    relation related to itself). Similarities and matches are symmetric, so
    swapping the sides of individual conditions is harmless.
    """
    rels: set[str] = set()
    for c in conjuncts:
        rels.update((c.left[0], c.right[0]))
    for left, right in matches:
        rels.update((left[0], right[0]))
    if len(rels) > 2:
        raise InputError(
            f"an MD relates exactly two relation occurrences, got {sorted(rels)}"
        )
    if len(rels) == 1:
        rel = next(iter(rels))
        return rel, rel, tuple(conjuncts), tuple(matches)
    left_rel, right_rel = sorted(rels)
    oriented_conjs = []
    for c in conjuncts:
        if c.left[0] == left_rel and c.right[0] == right_rel:
            oriented_conjs.append(c)
        elif c.left[0] == right_rel and c.right[0] == left_rel:
            oriented_conjs.append(Conjunct(c.right, c.left, c.sim))
        else:
            raise InputError(
                f"condition {c} stays inside one relation while the MD spans two"
            )
    oriented_matches = []
    for left, right in matches:
        if left[0] == left_rel and right[0] == right_rel:
            oriented_matches.append((left, right))
        elif left[0] == right_rel and right[0] == left_rel:
            oriented_matches.append((right, left))
        else:
            raise InputError(
                f"match {format_attr(left)} == {format_attr(right)} stays inside "
                "one relation while the MD spans two"
            )
    return left_rel, right_rel, tuple(oriented_conjs), tuple(oriented_matches)


# ---------------------------------------------------------------------------
# Graph and structural helpers

def build_md_graph(mdset: MDSet) -> MDGraph:
    vertices = tuple(md.mid for md in mdset.mds)
    edges = set()
    for a in mdset.mds:
        for b in mdset.mds:
            if a.rhs_attrs & b.lhs_attrs:
                edges.add((a.mid, b.mid))
    return MDGraph(vertices, frozenset(edges))


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


def _components(pairs: Iterable[tuple]) -> list[tuple]:
    """The connected components of the items the pairs mention."""
    ds: DisjointSet = DisjointSet()
    for a, b in pairs:
        ds.union(a, b)
    return ds.groups()


def eqr_classes(mdset: MDSet) -> AttrPartition:
    """Classes of changeable attributes under the closure of the match relation."""
    ds: DisjointSet[Attr] = DisjointSet(mdset.changeable)
    for md in mdset.mds:
        for left, right in md.rhs:
            ds.union(left, right)
    return AttrPartition(tuple(ds.groups()))


def eqr_class(mdset: MDSet, attr: Attr) -> tuple[Attr, ...]:
    if attr not in mdset.changeable:
        return (attr,)
    return eqr_classes(mdset).block_of(attr)


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
        ds = DisjointSet(a for a in self.rhs1_attrs | self.lhs2_attrs if a[0] == side)
        for pairs in (self.rhs1, self.lhs2):
            for comp in _components(pairs):
                on_side = [a for a in comp if a[0] == side]
                for a in on_side[1:]:
                    ds.union(on_side[0], a)
        return [c for c in ds.groups() if any(a in self.lhs2_attrs for a in c)]


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
    l_comps_m1 = _components(view.lhs1)

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
        for c in md.lhs:
            if c.left != c.right:
                pair_fail = f"condition {c} of {md.mid} relates distinct attributes"
                break
        if pair_fail:
            break
        for left, right in md.rhs:
            if left != right:
                pair_fail = (
                    f"match {format_attr(left)} == {format_attr(right)} of "
                    f"{md.mid} relates distinct attributes"
                )
                break
        if pair_fail:
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
