"""Slow, definition-shaped reference implementations.

These deliberately avoid the package's algorithms (union-find, semi-naive
evaluation, block counters) so that agreement is meaningful: each function
walks the defining condition directly, however inefficiently.
"""

from __future__ import annotations

import itertools
from collections import Counter

from mdres import Instance, MDSet, similar
from mdres.query import Const
from mdres.relation import Position


def ref_levenshtein(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    table = {}

    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        if (i, j) not in table:
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[(i, j)] = min(
                dist(i - 1, j) + 1,
                dist(i, j - 1) + 1,
                dist(i - 1, j - 1) + cost,
            )
        return table[(i, j)]

    return dist(len(a), len(b))


def ref_verify_transitivity(spec, domain) -> list[tuple[str, str, str]]:
    """Violating triples (x, y, z), x < z, by trying every middle value."""
    values = sorted(set(domain))
    if spec.kind == "eq":
        return []
    violations = []
    for i, x in enumerate(values):
        for z in values[i + 1 :]:
            if similar(spec, x, z):
                continue
            for y in values:
                if y == x or y == z:
                    continue
                if similar(spec, x, y) and similar(spec, y, z):
                    violations.append((x, y, z))
    violations.sort()
    return violations


def _lhs_pairs(md, instance: Instance, sims):
    """Ordered tuple-id pairs satisfying the similarity condition of one MD."""
    left = instance.tids(md.left_rel)
    right = instance.tids(md.right_rel)
    out = []
    for t1, t2 in itertools.product(left, right):
        ok = True
        for conj in md.lhs:
            spec = sims[conj.sim]
            v1 = instance.value(Position(t1, conj.left))
            v2 = instance.value(Position(t2, conj.right))
            if not similar(spec, v1, v2):
                ok = False
                break
        if ok:
            out.append((t1, t2))
    return out


def ref_linked_position_pairs(instance: Instance, mdset: MDSet):
    """All position pairs related by some MD's matching on this instance."""
    pairs = set()
    for md in mdset.mds:
        for t1, t2 in _lhs_pairs(md, instance, mdset.sims):
            for left, right in md.rhs:
                p = Position(t1, left)
                q = Position(t2, right)
                pairs.add((p, q))
                pairs.add((q, p))
    return pairs


def ref_modifiable(instance: Instance, mdset: MDSet) -> frozenset[Position]:
    """Least fixpoint of the recursive modifiability condition.

    A position is modifiable when it is linked to a position holding a
    different value, or to one already known to be modifiable.
    """
    linked = ref_linked_position_pairs(instance, mdset)
    current: set[Position] = set()
    changed = True
    while changed:
        changed = False
        for p, q in linked:
            if p in current:
                continue
            if instance.value(p) != instance.value(q) or q in current:
                current.add(p)
                changed = True
    return frozenset(current)


def ref_stable(instance: Instance, mdset: MDSet) -> bool:
    """Directly: every similarity-satisfying pair already agrees on targets."""
    for md in mdset.mds:
        for t1, t2 in _lhs_pairs(md, instance, mdset.sims):
            for left, right in md.rhs:
                if instance.value(Position(t1, left)) != instance.value(Position(t2, right)):
                    return False
    return True


def ref_ta_blocks(instance: Instance, mdset: MDSet):
    """Tuple-attribute closure as a reachability computation.

    Builds the seed edge set position by position, then takes connected
    components with a plain BFS instead of union-find.
    """
    adj: dict[Position, set[Position]] = {}
    universe = [
        Position(tid, attr)
        for attr in sorted(mdset.changeable)
        for tid in instance.tids(attr[0])
    ]
    for p in universe:
        adj[p] = set()
    for target in mdset.mds:
        for feeder_id in sorted(_feeders(mdset, target.mid)):
            feeder = mdset.by_id(feeder_id)
            if (feeder.left_rel, feeder.right_rel) != (target.left_rel, target.right_rel):
                continue
            for t1, t2 in _lhs_pairs(feeder, instance, mdset.sims):
                for left, right in target.rhs:
                    p = Position(t1, left)
                    q = Position(t2, right)
                    adj[p].add(q)
                    adj[q].add(p)
    seen: set[Position] = set()
    blocks = []
    for start in universe:
        if start in seen:
            continue
        comp = []
        queue = [start]
        seen.add(start)
        while queue:
            node = queue.pop()
            comp.append(node)
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        blocks.append(tuple(sorted(comp)))
    return tuple(sorted(blocks))


def _feeders(mdset: MDSet, mid: str) -> set[str]:
    """Ids with a directed path to mid in the MD graph, plus mid itself."""
    graph = mdset.graph
    reach = {mid}
    frontier = [mid]
    while frontier:
        node = frontier.pop()
        for pred in graph.predecessors(node):
            if pred not in reach:
                reach.add(pred)
                frontier.append(pred)
    return reach


def ref_eval_cq(q, d: Instance) -> set[tuple[str, ...]]:
    """Direct answers by nested loops: every row of each atom is tried
    against every partial binding."""
    results: set[tuple[str, ...]] = set()

    def rec(k: int, binding: dict):
        if k == len(q.atoms):
            results.add(tuple(binding[v.name] for v in q.head))
            return
        atom = q.atoms[k]
        for _, row in d.rows(atom.rel):
            nb = binding
            copied = False
            ok = True
            for term, value in zip(atom.terms, row):
                if isinstance(term, Const):
                    if term.value != value:
                        ok = False
                        break
                else:
                    bound = nb.get(term.name)
                    if bound is None:
                        if not copied:
                            nb = dict(nb)
                            copied = True
                        nb[term.name] = value
                    elif bound != value:
                        ok = False
                        break
            if ok:
                rec(k + 1, nb)

    rec(0, {})
    return results


def ref_certain_answers(query, instances) -> frozenset[tuple[str, ...]]:
    """Intersection of the direct answers over a family of instances."""
    result: frozenset | None = None
    for inst in instances:
        answers = frozenset(ref_eval_cq(query, inst))
        result = answers if result is None else (result & answers)
        if not result:
            break
    return result if result is not None else frozenset()


def ref_key_repairs(instance: Instance, rel: str, key: tuple[str, ...]):
    """Brute-force majority repairs of a keyed relation, as row sets."""
    attrs = instance.schema.relation(rel).attrs
    key_idx = [attrs.index(a) for a in key]
    nonkey = [a for a in attrs if a not in key]
    groups: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for tid in instance.tids(rel):
        row = instance.row(rel, tid)
        groups.setdefault(tuple(row[i] for i in key_idx), []).append(row)
    per_group: list[list[tuple[str, ...]]] = []
    for key_vals in sorted(groups):
        rows = groups[key_vals]
        pools = []
        for attr in attrs:
            idx = attrs.index(attr)
            if attr in key:
                pools.append([rows[0][idx]])
                continue
            counts = Counter(r[idx] for r in rows)
            best = max(counts.values())
            pools.append(sorted(v for v, c in counts.items() if c == best))
        per_group.append([tuple(choice) for choice in itertools.product(*pools)])
    repairs = []
    for combo in itertools.product(*per_group):
        repairs.append(frozenset(combo))
    return sorted(repairs, key=sorted)
