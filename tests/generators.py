"""Seeded random case builders for the equivalence and property suites."""

from __future__ import annotations

import random
import string

from mdres import Instance, MDSet, Schema, load_instance, parse_mds, parse_schema
from mdres.query import ConjunctiveQuery, parse_query
from mdres.similarity import SimilaritySpec

VALUE_POOL = ("u", "v", "w", "x")


def rand_table_sim(rng: random.Random, name: str = "s") -> SimilaritySpec:
    """Random symmetric similarity table over the fixed value pool."""
    pairs = set()
    for i, a in enumerate(VALUE_POOL):
        for b in VALUE_POOL[i + 1 :]:
            if rng.random() < 0.4:
                pairs.add((a, b))
                pairs.add((b, a))
    return SimilaritySpec(name=name, kind="table", pairs=frozenset(pairs),
                          transitive=_table_is_transitive(pairs))


def _table_is_transitive(pairs) -> bool:
    mentioned = {a for a, _ in pairs}
    for x in mentioned:
        for y in mentioned:
            for z in mentioned:
                if len({x, y, z}) < 3:
                    continue
                if (x, y) in pairs and (y, z) in pairs and (x, z) not in pairs:
                    return False
    return True


def rand_ni_case(rng: random.Random):
    """Schema, instance and a non-interacting MD set over 1..2 relations.

    Non-interaction is arranged structurally: condition attributes and target
    attributes come from disjoint pools, so no target can ever feed a
    condition.
    """
    two_rels = rng.random() < 0.5
    if two_rels:
        schema = parse_schema(
            "relation R(A:str, B:str, C:str)\nrelation S(E:str, F:str, G:str)"
        )
        cond = {"R": ["A"], "S": ["E"]}
        targets = {"R": ["B", "C"], "S": ["F", "G"]}
    else:
        schema = parse_schema("relation R(A:str, B:str, C:str, E:str)")
        cond = {"R": ["A", "B"]}
        targets = {"R": ["C", "E"]}
    sims = {"s": rand_table_sim(rng)}
    lines = []
    rels = [r.name for r in schema.relations]
    used_lhs = set()
    for _ in range(rng.randrange(1, 3)):
        left, right = sorted((rng.choice(rels), rng.choice(rels)))
        lhs_left = rng.choice(cond[left])
        lhs_right = rng.choice(cond[right])
        if (left, lhs_left, right, lhs_right) in used_lhs:
            continue
        used_lhs.add((left, lhs_left, right, lhs_right))
        rhs_left = rng.choice(targets[left])
        rhs_right = rng.choice(targets[right])
        lines.append(
            f"{left}[{lhs_left}] ~s {right}[{lhs_right}] -> "
            f"{left}[{rhs_left}] == {right}[{rhs_right}]"
        )
    if not lines:
        lines.append("R[A] ~s R[A] -> R[C] == R[C]")
    mdset = parse_mds(";".join(lines), schema, sims)
    instance = rand_instance(rng, schema, max_tuples=8)
    return schema, instance, mdset


def rand_hsc_case(rng: random.Random):
    """Schema, instance and a hit-simple-cyclic MD set on one relation.

    A two-MD cycle over attributes A and B, optionally with a tail MD whose
    condition attribute C stays unchangeable: its only edge points into the
    cycle, which is exactly the HSC shape.
    """
    schema = parse_schema("relation R(A:str, B:str, C:str, E:str)")
    sims = {"s": rand_table_sim(rng)}
    lines = [
        "R[A] ~s R[A] -> R[B] == R[B]",
        "R[B] ~s R[B] -> R[A] == R[A]",
    ]
    if rng.random() < 0.5:
        lines.append("R[C] ~s R[C] -> R[A] == R[A], R[E] == R[E]")
    mdset = parse_mds(";".join(lines), schema, sims)
    instance = rand_instance(rng, schema, max_tuples=6)
    return schema, instance, mdset


def rand_chain_case(rng: random.Random):
    """Schema, instance and a chain shaped like fixtures/hard_chain.

    The first MD targets the columns the second MD's conditions read, so a
    chase step can change which tuples the second MD links. Which columns
    play the three parts (first condition, shared, last target) is drawn at
    random, and so is whether the second MD repeats the first condition.
    """
    schema = parse_schema(
        "relation R(A:str, B:str, C:str)\nrelation S(E:str, F:str, G:str)"
    )
    sims = {"s": rand_table_sim(rng)}
    first, shared, last = (
        (f"R[{'ABC'[i]}]", f"S[{'EFG'[i]}]") for i in rng.sample(range(3), 3)
    )
    cond1 = f"{first[0]} {rng.choice(('=', '~s'))} {first[1]}"
    cond2 = f"{shared[0]} {rng.choice(('=', '~s'))} {shared[1]}"
    if rng.random() < 0.3:
        cond2 = f"{cond1}, {cond2}"
    mdset = parse_mds(
        f"{cond1} -> {shared[0]} == {shared[1]};"
        f"{cond2} -> {last[0]} == {last[1]}",
        schema, sims,
    )
    instance = rand_instance(rng, schema, max_tuples=7)
    return schema, instance, mdset


def rand_overlap_chain_case(rng: random.Random):
    """Schema, instance and a chain shaped like fixtures/overlap_pair.

    The first MD targets R[C] and S[G]. The second MD's conditions read that
    target in two or three conjuncts, against each other or against a
    condition column, so which tuples it links moves as the chase fills in
    the target. Every conjunct is `=` or the table sim.
    """
    schema = parse_schema(
        "relation R(A:str, B:str, C:str, H:str)\nrelation S(E:str, F:str, G:str, I:str)"
    )
    sims = {"s": rand_table_sim(rng)}
    first = [("R[A]", "S[E]")]
    if rng.random() < 0.5:
        first.append(("R[B]", "S[F]"))
    reads = [("R[C]", "S[G]"), ("R[A]", "S[G]"), ("R[C]", "S[E]"),
             ("R[B]", "S[G]"), ("R[C]", "S[F]")]
    second = rng.sample(reads, rng.randrange(2, 4))

    def conds(pairs):
        return ", ".join(f"{a} {rng.choice(('=', '~s'))} {b}" for a, b in pairs)

    mdset = parse_mds(
        f"{conds(first)} -> R[C] == S[G];{conds(second)} -> R[H] == S[I]",
        schema, sims,
    )
    instance = rand_instance(rng, schema, max_tuples=7)
    return schema, instance, mdset


def rand_dup_case(rng: random.Random):
    """Schema, instance of 20-60 tuples in planted duplicate groups, and a
    non-interacting MD set over two relations.

    A group's tuples copy one row and differ only at target attributes,
    where each cell keeps the group's value or, now and then, takes another
    one; once the MDs resolve them, the copies are identical rows.
    """
    schema = parse_schema(
        "relation R(A:str, B:str, C:str)\nrelation S(E:str, F:str, G:str)"
    )
    sims = {"s": rand_table_sim(rng)}
    lines = [
        f"R[A] {rng.choice(('=', '~s'))} R[A] -> R[B] == R[B], R[C] == R[C]",
        f"S[E] {rng.choice(('=', '~s'))} S[E] -> S[F] == S[F]",
    ]
    if rng.random() < 0.5:
        lines.append("R[A] = S[E] -> R[B] == S[F]")
    mdset = parse_mds(";".join(lines), schema, sims)
    targets = {"R": (1, 2), "S": (1,)}
    rows: dict[str, list[list[str]]] = {"R": [], "S": []}
    total = rng.randrange(20, 61)
    while sum(map(len, rows.values())) < total:
        rel = rng.choice(("R", "S"))
        base = [rng.choice(VALUE_POOL) for _ in range(3)]
        for _ in range(rng.randrange(2, 7)):
            row = list(base)
            for j in targets[rel]:
                if rng.random() < 0.25:
                    row[j] = rng.choice(VALUE_POOL)
            rows[rel].append(row)
    return schema, load_instance(schema, rows), mdset


def rand_instance(rng: random.Random, schema: Schema, max_tuples: int = 8) -> Instance:
    rows: dict[str, list[list[str]]] = {r.name: [] for r in schema.relations}
    names = list(rows)
    for _ in range(rng.randrange(2, max_tuples + 1)):
        rel = rng.choice(names)
        arity = schema.relation(rel).arity
        rows[rel].append([rng.choice(VALUE_POOL) for _ in range(arity)])
    for name in names:
        # every relation needs at least one row for join queries to matter
        if not rows[name]:
            arity = schema.relation(name).arity
            rows[name].append([rng.choice(VALUE_POOL) for _ in range(arity)])
    return load_instance(schema, rows)


def rand_ujcq(rng: random.Random, schema: Schema, mdset: MDSet,
              max_atoms: int = 3) -> ConjunctiveQuery:
    """Random join-safe query.

    Constants and shared existential variables sit only at unchangeable
    positions; changeable positions receive either a fresh single-use
    variable or a head variable (head variables may repeat).
    """
    changeable = mdset.changeable
    rels = [r.name for r in schema.relations]
    join_pool = ["j1", "j2"]
    head_vars: list[str] = []
    atoms = []
    fresh = 0
    for _ in range(rng.randrange(1, max_atoms + 1)):
        rel = rng.choice(rels)
        attrs = schema.relation(rel).attrs
        terms = []
        for attr in attrs:
            roll = rng.random()
            if (rel, attr) in changeable:
                if roll < 0.45 and head_vars and rng.random() < 0.4:
                    terms.append(rng.choice(head_vars))
                elif roll < 0.7:
                    name = f"h{len(head_vars) + 1}"
                    head_vars.append(name)
                    terms.append(name)
                else:
                    fresh += 1
                    terms.append(f"e{fresh}")
            else:
                if roll < 0.25:
                    terms.append(f"'{rng.choice(VALUE_POOL)}'")
                elif roll < 0.55:
                    terms.append(rng.choice(join_pool))
                elif roll < 0.8 and head_vars and rng.random() < 0.3:
                    terms.append(rng.choice(head_vars))
                else:
                    fresh += 1
                    terms.append(f"e{fresh}")
        atoms.append(f"{rel}({', '.join(terms)})")
    head = ", ".join(dict.fromkeys(head_vars))
    text = f"Q({head}) :- {', '.join(atoms)}"
    return parse_query(text, schema)


def rand_keyed_case(rng: random.Random):
    """Keyed relation with duplicate keys, plus its MD encoding."""
    schema = parse_schema("relation K(Name:str, P:str, Q:str)")
    keys = ["k1", "k2"]
    rows = []
    for _ in range(rng.randrange(3, 8)):
        rows.append([rng.choice(keys), rng.choice(VALUE_POOL[:3]),
                     rng.choice(VALUE_POOL[:3])])
    instance = load_instance(schema, {"K": rows})
    mdset = parse_mds(
        "K[Name] = K[Name] -> K[P] == K[P], K[Q] == K[Q]", schema
    )
    return schema, instance, mdset


def dn_instance(n: int):
    """The scaling family: n duplicate pairs, each contributing two choices."""
    schema = parse_schema("relation R(A:str, B:str)")
    rows = []
    for i in range(1, n + 1):
        rows.append([f"a{i}", f"c{2 * i - 1}"])
        rows.append([f"a{i}", f"c{2 * i}"])
    instance = load_instance(schema, {"R": rows})
    mdset = parse_mds("R[A] = R[A] -> R[B] == R[B]", schema)
    return schema, instance, mdset


LEV_CLUSTER_SIMS = "sim s = lev <= 1\n"


def lev_cluster_instance(n: int, size: int = 4, seed: int = 0):
    """n isolated clusters of `size` spelling variants under lev <= 1.

    A value is a five-letter cluster code and one variant letter. The code's
    last letter is a check letter, so two codes differ in at least two
    positions: values of one cluster are one substitution apart, and values
    of two clusters at least two, since all have one length. One tuple per
    value, shuffled, under `R[A] ~s R[A] -> R[B] == R[B]`.
    """
    rng = random.Random(seed)
    letters = string.ascii_lowercase
    rows = []
    for number in rng.sample(range(26**4), n):
        digits = [number // 26**e % 26 for e in range(4)]
        code = "".join(letters[d] for d in digits) + letters[sum(digits) % 26]
        for variant in letters[:size]:
            rows.append([code + variant, f"b{len(rows)}"])
    rng.shuffle(rows)
    schema = parse_schema("relation R(A:str, B:str)")
    sims = {"s": SimilaritySpec(name="s", kind="lev", max_distance=1)}
    mdset = parse_mds("R[A] ~s R[A] -> R[B] == R[B]", schema, sims)
    return schema, load_instance(schema, {"R": rows}), mdset


PLANTED_SCHEMA = "relation R(K:str, N:str, C:str)\nrelation S(C:str, P:str)\n"
PLANTED_MDS = "R[K] = R[K] -> R[N] == R[N];\nS[C] = S[C] -> S[P] == S[P];\n"
PLANTED_QUERY = "Q(k, x, p) :- R(k, x, c), S(c, p)\n"


def planted_majority_instance(n: int, keys: int = 1000, seed: int = 0):
    """n key groups of three R tuples with a planted 2-1 majority on N,
    joined on C to an S with one tuple per key.

    Group i is three copies of one row (k<i>, _, c<j>) whose N values are
    n<i>a and n<i>b, one of them twice; either may be the smaller. S holds
    (c<j>, p<j>) for j < keys. Rows are shuffled. Returns the schema, the
    instance, the MD set and the sorted answers of PLANTED_QUERY on every
    MRI: one (k<i>, majority value, p<j>) per group.
    """
    rng = random.Random(seed)
    schema = parse_schema(PLANTED_SCHEMA)
    r_rows, answers = [], []
    for i in range(n):
        j = rng.randrange(keys)
        major, minor = rng.sample((f"n{i}a", f"n{i}b"), 2)
        r_rows += [[f"k{i}", value, f"c{j}"] for value in (major, major, minor)]
        answers.append((f"k{i}", major, f"p{j}"))
    s_rows = [[f"c{j}", f"p{j}"] for j in range(keys)]
    rng.shuffle(r_rows)
    rng.shuffle(s_rows)
    instance = load_instance(schema, {"R": r_rows, "S": s_rows})
    return schema, instance, parse_mds(PLANTED_MDS, schema), sorted(answers)


LINK_SCHEMA = parse_schema(
    "relation R(A:str, B:str, C:str)\nrelation S(E:str, F:str, G:str)"
)
LINK_VALUES = ("u", "v", "w", "x", "uv", "vw", "uvw", "wu")


def rand_link_case(rng: random.Random, values: tuple[str, ...] = LINK_VALUES):
    """Instance and MD set mixing `=`, `lev <= k` and table conjuncts.

    Each MD has 1-3 target pairs: two attributes of one relation when it
    matches R or S with itself, cross-relation pairs when it matches R with
    S. With up to 20 rows per relation, one tid list sits in many groups
    and is linked on several target pairs. Cells are drawn from `values`.
    """
    sims = {
        "l": SimilaritySpec(name="l", kind="lev", max_distance=rng.randint(0, 2)),
        "t": rand_table_sim(rng, "t"),
    }
    attrs = {r.name: r.attrs for r in LINK_SCHEMA.relations}
    lines = []
    for _ in range(rng.randint(1, 3)):
        left, right = rng.choice((("R", "R"), ("R", "S"), ("S", "S")))
        conjuncts = []
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("=", "~l", "~t"))
            conjuncts.append(
                f"{left}[{rng.choice(attrs[left])}] {op} "
                f"{right}[{rng.choice(attrs[right])}]"
            )
        targets = [
            f"{left}[{rng.choice(attrs[left])}] == {right}[{rng.choice(attrs[right])}]"
            for _ in range(rng.randint(1, 3))
        ]
        lines.append(
            f"{', '.join(dict.fromkeys(conjuncts))} -> {', '.join(dict.fromkeys(targets))}"
        )
    mdset = parse_mds(";".join(lines), LINK_SCHEMA, sims)
    rows = {
        rel: [[rng.choice(values) for _ in range(3)]
              for _ in range(rng.randint(1, 20))]
        for rel in ("R", "S")
    }
    return load_instance(LINK_SCHEMA, rows), mdset
