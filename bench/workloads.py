"""Seeded inputs for the benchmark workloads.

`build(name, seed, base)` returns the files to write under `base` and the
ops to run on them. An op is one `mdres` command line plus the facts its
output must show. Expected values come from what the generator planted,
never from running mdres; the one exception is the oracle workload, whose
fast-path cases are cross-checked against `fast_mri_family` (see
`checks.py`).

Generation uses only the standard library, so the same seed gives the same
bytes on any machine.
"""

from __future__ import annotations

import random
import string
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import prod
from pathlib import Path

WORKLOADS = ("eq_join", "lev_cluster", "oracle_chase")


@dataclass
class Op:
    """One CLI invocation. `kind` names the metric the op is timed under."""

    kind: str
    args: list[str]
    expect: dict
    label: str = ""


@dataclass
class Workload:
    base: Path
    files: dict[str, str] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)

    def write(self) -> None:
        for rel, text in self.files.items():
            path = self.base / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8", newline="")

    def path(self, rel: str) -> str:
        return str(self.base / rel)


def build(name: str, seed: int, base: Path) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (expected one of {WORKLOADS})")
    wl = Workload(Path(base))
    rng = random.Random(f"{name}:{seed}")
    {"eq_join": _eq_join, "lev_cluster": _lev_cluster, "oracle_chase": _oracle_chase}[
        name
    ](wl, rng)
    return wl


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _tokens(rng: random.Random, n: int, prefix: str, length: int = 5) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < n:
        tok = prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if tok not in seen:
            seen.add(tok)
            out.append(tok)
    return out


def _argmax(values: list[str]) -> list[str]:
    freq = Counter(values)
    best = max(freq.values())
    return sorted(v for v, n in freq.items() if n == best)


def _inputs(wl: Workload, case: str, mds: str, sims: str | None = None) -> list[str]:
    args = [
        "--schema", wl.path(f"{case}/schema.txt"),
        "--data", wl.path(f"{case}/data"),
        "--mds", wl.path(f"{case}/{mds}"),
    ]
    if sims:
        args += ["--sims", wl.path(f"{case}/{sims}")]
    return args


# ---------------------------------------------------------------------------
# eq_join: equality MDs only, NonInteracting, planted duplicate groups.

EQ_R_GROUPS = 120
EQ_S_KEYS = 60
# Value-frequency patterns of a duplicate group; ties give several candidates.
EQ_R_PATTERNS = ((5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1))
EQ_S_PATTERNS = ((3,), (2, 1), (1, 1, 1))

EQ_SCHEMA = "relation R(K:str, N:str, C:str)\nrelation S(C:str, P:str)\n"
EQ_MDS = "R[K] = R[K] -> R[N] == R[N];\nS[C] = S[C] -> S[P] == S[P];\n"
EQ_QUERY = "Q(k, x, p) :- R(k, x, c), S(c, p)\n"


def _planted_values(rng: random.Random, pattern: tuple[int, ...], prefix: str) -> list[str]:
    names = _tokens(rng, len(pattern), prefix)
    values = [v for v, n in zip(names, pattern) for _ in range(n)]
    rng.shuffle(values)
    return values


def _eq_join(wl: Workload, rng: random.Random) -> None:
    keys = _tokens(rng, EQ_R_GROUPS, "k")
    ckeys = _tokens(rng, EQ_S_KEYS, "c")
    s_rows = []
    p_groups = {}
    for c in ckeys:
        p_groups[c] = _planted_values(rng, rng.choice(EQ_S_PATTERNS), "p")
        s_rows.extend([c, p] for p in p_groups[c])
    r_rows = []
    n_groups = {}
    for k in keys:
        n_groups[k] = _planted_values(rng, rng.choice(EQ_R_PATTERNS), "n")
        r_rows.extend([k, n, rng.choice(ckeys)] for n in n_groups[k])
    rng.shuffle(r_rows)
    rng.shuffle(s_rows)

    r_tids = list(range(1, len(r_rows) + 1))
    s_tids = list(range(len(r_rows) + 1, len(r_rows) + len(s_rows) + 1))
    wl.files["eq/schema.txt"] = EQ_SCHEMA
    wl.files["eq/mds.txt"] = EQ_MDS
    wl.files["eq/query.txt"] = EQ_QUERY
    wl.files["eq/data/R.csv"] = _csv(
        ["#tid", "K", "N", "C"], [[t, *r] for t, r in zip(r_tids, r_rows)]
    )
    wl.files["eq/data/S.csv"] = _csv(
        ["#tid", "C", "P"], [[t, *r] for t, r in zip(s_tids, s_rows)]
    )

    groups = list(n_groups.values()) + list(p_groups.values())
    mri_count = prod(len(_argmax(g)) for g in groups)
    min_change = sum(len(g) - Counter(g).most_common(1)[0][1] for g in groups)
    win_n = {k: _argmax(g) for k, g in n_groups.items()}
    win_p = {c: _argmax(g) for c, g in p_groups.items()}
    answers = sorted(
        {
            (k, win_n[k][0], win_p[c][0])
            for k, _, c in r_rows
            if len(win_n[k]) == 1 and len(win_p[c]) == 1
        }
    )

    cqa_rows = []
    repair_count = 1
    for k in sorted(keys):
        members = [r for r in r_rows if r[0] == k]
        rows = [
            [k, n, c]
            for n, c in product(_argmax([r[1] for r in members]), _argmax([r[2] for r in members]))
        ]
        repair_count *= len(rows)
        cqa_rows.extend(rows)

    inputs = _inputs(wl, "eq", "mds.txt")
    wl.ops = [
        Op("resolve", ["resolve", *inputs], {
            "label": "NonInteracting", "mri_count": mri_count, "min_change": min_change,
        }),
        Op("answers", ["answers", *inputs, "--query", wl.path("eq/query.txt"),
                       "--mode", "rewrite"], {"answers": [list(a) for a in answers]}),
        Op("cqa_export", ["cqa-export", "--schema", wl.path("eq/schema.txt"),
                          "--data", wl.path("eq/data"), "--relation", "R", "--key", "K",
                          "--out", wl.path("eq/out")], {
            "groups": len(keys), "rows": sorted(cqa_rows), "repair_count": repair_count,
            "out": wl.path("eq/out/R.csv"),
        }),
    ]


# ---------------------------------------------------------------------------
# lev_cluster: one relation of spelling variants under a transitive lev <= 1.

LEV_CLUSTERS = 10
LEV_VARIANTS = 4
LEV_CLUSTER_SIZE = 30
LEV_POOL = 10
# Word lengths are dealt out evenly, so the cost of the edit-distance checks
# is the same for every seed.
LEV_LENGTHS = (4, 5, 6, 7, 8)

LEV_SCHEMA = (
    "relation N(A:str, B:str, C:str, E:str, F:str, G:str, H:str, I:str, J:str)\n"
)
LEV_SIMS = "sim s = lev <= 1 [transitive]\n"
LEV_MDS_NI = "N[A] ~s N[A] -> N[G] == N[G]\n"
# The shape of fixtures/filtered_chain on one relation: the label is
# LinearPairEasy exactly when the transitivity verdict holds.
LEV_MDS_CHAIN = (
    "N[A] ~s N[B], N[C] ~s N[B], N[E] ~s N[F] -> N[G] == N[H];\n"
    "N[G] ~s N[H], N[A] ~s N[B], N[E] ~s N[F] -> N[I] == N[J];\n"
)


def _near(a: str, b: str) -> bool:
    """Levenshtein distance at most one."""
    if len(a) == len(b):
        return sum(x != y for x, y in zip(a, b)) <= 1
    if len(a) > len(b):
        a, b = b, a
    if len(b) - len(a) > 1:
        return False
    return any(b[:i] + b[i + 1:] == a for i in range(len(b)))


def _lev_words(rng: random.Random) -> tuple[list[list[str]], list[str]]:
    """Clusters of variants (pairwise one substitution apart) and pool words,
    with every value of one group at least two edits from every other group."""
    chosen: list[str] = []

    def fresh_group(make, length):
        while True:
            group = make(length)
            if not any(_near(a, b) for a in group for b in chosen):
                chosen.extend(group)
                return group

    def letters(n):
        return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))

    def cluster(length):
        base = letters(length)
        at = rng.randrange(len(base))
        subs = rng.sample(string.ascii_lowercase, LEV_VARIANTS)
        return [base[:at] + ch + base[at + 1:] for ch in subs]

    def word(length):
        return [letters(length)]

    lengths = [LEV_LENGTHS[i % len(LEV_LENGTHS)] for i in range(max(LEV_CLUSTERS, LEV_POOL))]
    clusters = [fresh_group(cluster, n) for n in lengths[:LEV_CLUSTERS]]
    pool = [fresh_group(word, n)[0] for n in lengths[:LEV_POOL]]
    return clusters, pool


def _spread(rng: random.Random, values: list[str], n: int) -> list[str]:
    """n values covering every given value, in random order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _lev_cluster(wl: Workload, rng: random.Random) -> None:
    clusters, pool = _lev_words(rng)
    names = [v for c in clusters for v in c]
    n = LEV_CLUSTERS * LEV_CLUSTER_SIZE
    member = [i // LEV_CLUSTER_SIZE for i in range(n)]
    rng.shuffle(member)
    variant = {}
    for ci, cluster in enumerate(clusters):
        slots = [i for i in range(n) if member[i] == ci]
        for slot, value in zip(slots, _spread(rng, cluster, len(slots))):
            variant[slot] = value
    cols = {a: _spread(rng, names, n) for a in "BC"}
    cols.update({a: _spread(rng, pool, n) for a in "EFGHIJ"})
    rows = [
        [variant[i], cols["B"][i], cols["C"][i], cols["E"][i], cols["F"][i],
         cols["G"][i], cols["H"][i], cols["I"][i], cols["J"][i]]
        for i in range(n)
    ]
    wl.files["lev/schema.txt"] = LEV_SCHEMA
    wl.files["lev/sims.txt"] = LEV_SIMS
    wl.files["lev/mds_ni.txt"] = LEV_MDS_NI
    wl.files["lev/mds_chain.txt"] = LEV_MDS_CHAIN
    wl.files["lev/data/N.csv"] = _csv(
        ["#tid", *"ABCEFGHIJ"], [[i + 1, *row] for i, row in enumerate(rows)]
    )

    blocks = sorted(
        sorted(i + 1 for i in range(n) if member[i] == ci) for ci in range(LEV_CLUSTERS)
    )
    g_groups = [[rows[t - 1][5] for t in block] for block in blocks]
    mri_count = prod(len(_argmax(g)) for g in g_groups)
    min_change = sum(len(g) - Counter(g).most_common(1)[0][1] for g in g_groups)
    linked = sum(len(b) ** 2 for b in blocks)

    chain = _inputs(wl, "lev", "mds_chain.txt", "sims.txt")
    ni = _inputs(wl, "lev", "mds_ni.txt", "sims.txt")
    wl.ops = [
        Op("classify", ["classify", *chain], {"label": "LinearPairEasy"}),
        Op("resolve", ["resolve", *ni], {
            "label": "NonInteracting", "mri_count": mri_count, "min_change": min_change,
            "blocks": blocks,
        }),
        Op("emit_datalog", ["emit-datalog", *ni], {"sim_facts": linked, "tuples": n}),
    ]


# ---------------------------------------------------------------------------
# oracle_chase: many small cases through the exhaustive chase.
#
# A case's structure (schema, MDs, similarity table, which cells share a
# value) is drawn from a generator seeded by the case index alone; the
# workload seed renames every value and shuffles tuple order and ids. The
# chase explores isomorphic state spaces under renaming, so the cost profile
# of the workload is the same for every seed while the bytes differ.

ORACLE_CASES = 240
ORACLE_KINDS = ("ni", "hsc", "chain")
SYMBOLS = ("u", "v", "w", "x")


def _rand_rows(rng: random.Random, arity: dict[str, int], lo: int, hi: int) -> dict[str, list[list[str]]]:
    rows: dict[str, list[list[str]]] = {r: [] for r in arity}
    names = list(arity)
    for _ in range(rng.randrange(lo, hi + 1)):
        rel = rng.choice(names)
        rows[rel].append([rng.choice(SYMBOLS) for _ in range(arity[rel])])
    for rel in names:
        if not rows[rel]:
            rows[rel].append([rng.choice(SYMBOLS) for _ in range(arity[rel])])
    return rows


def _rand_table(rng: random.Random) -> list[tuple[str, str]]:
    return [
        (a, b)
        for i, a in enumerate(SYMBOLS)
        for b in SYMBOLS[i + 1:]
        if rng.random() < 0.4
    ]


def _ni_structure(rng: random.Random) -> dict:
    """Non-interacting: condition and target attributes are disjoint."""
    if rng.random() < 0.5:
        schema = {"R": ["A", "B", "C"], "S": ["E", "F", "G"]}
        cond = {"R": ["A"], "S": ["E"]}
        targets = {"R": ["B", "C"], "S": ["F", "G"]}
    else:
        schema = {"R": ["A", "B", "C", "E"]}
        cond = {"R": ["A", "B"]}
        targets = {"R": ["C", "E"]}
    rels = list(schema)
    lines = []
    used = set()
    for _ in range(rng.randrange(1, 3)):
        left, right = sorted((rng.choice(rels), rng.choice(rels)))
        lhs = (left, rng.choice(cond[left]), right, rng.choice(cond[right]))
        if lhs in used:
            continue
        used.add(lhs)
        lines.append(
            f"{left}[{lhs[1]}] ~s {right}[{lhs[3]}] -> "
            f"{left}[{rng.choice(targets[left])}] == {right}[{rng.choice(targets[right])}]"
        )
    return {
        "schema": schema, "mds": lines, "table": _rand_table(rng),
        "rows": _rand_rows(rng, {r: len(a) for r, a in schema.items()}, 4, 9),
    }


def _hsc_structure(rng: random.Random) -> dict:
    """A two-MD cycle on A and B, sometimes with a tail MD pointing into it."""
    schema = {"R": ["A", "B", "C", "E"]}
    lines = ["R[A] ~s R[A] -> R[B] == R[B]", "R[B] ~s R[B] -> R[A] == R[A]"]
    if rng.random() < 0.5:
        lines.append("R[C] ~s R[C] -> R[A] == R[A], R[E] == R[E]")
    return {
        "schema": schema, "mds": lines, "table": _rand_table(rng),
        "rows": _rand_rows(rng, {"R": 4}, 3, 5),
    }


def _chain_structure(rng: random.Random) -> dict:
    """The shape of fixtures/hard_chain: m1 targets the conditions of m2."""
    schema = {"R": ["A", "B", "C"], "S": ["E", "F", "G"]}
    lines = ["R[A] = S[E] -> R[B] == S[F]", "R[B] = S[F] -> R[C] == S[G]"]
    return {
        "schema": schema, "mds": lines, "table": None,
        "rows": _rand_rows(rng, {"R": 3, "S": 3}, 4, 7),
    }


_STRUCTURES = {"ni": _ni_structure, "hsc": _hsc_structure, "chain": _chain_structure}


def _oracle_structure(index: int) -> tuple[str, dict]:
    kind = ORACLE_KINDS[index % len(ORACLE_KINDS)]
    return kind, _STRUCTURES[kind](random.Random(f"oracle-structure:{index}"))


def _oracle_chase(wl: Workload, rng: random.Random) -> None:
    # One renaming for the whole workload, so that schemas, MD sets and
    # similarity tables repeat across cases and are written once, under
    # oracle/shared/. Each case's directory holds only its CSV files: on a
    # disk where creating and deleting files is slow, fewer files keep the
    # set-up time steady.
    names = dict(zip(SYMBOLS, _tokens(rng, len(SYMBOLS), "", 4)))
    shared: dict[str, str] = {}

    def _shared(pattern: str, text: str) -> str:
        """Name of the file under oracle/shared/ holding `text`, written once."""
        if text not in shared:
            shared[text] = pattern.format(len(shared))
            wl.files[f"oracle/shared/{shared[text]}"] = text
        return shared[text]

    tid_base = 1
    for index in range(ORACLE_CASES):
        kind, st = _oracle_structure(index)
        case = f"oracle/c{index:03d}"
        schema = "".join(
            f"relation {r}({', '.join(a + ':str' for a in attrs)})\n"
            for r, attrs in st["schema"].items()
        )
        paths = {
            "schema": wl.path("oracle/shared/" + _shared("schema{}.txt", schema)),
            "data": wl.path(case),
            "mds": wl.path("oracle/shared/" + _shared("mds{}.txt", ";\n".join(st["mds"]) + "\n")),
        }
        if st["table"] is not None:
            pairs = _shared("pairs{}.csv", "".join(f"{names[a]},{names[b]}\n" for a, b in st["table"]))
            sims = _shared("sims{}.txt", f"sim s = table {pairs}\n")
            paths["sims"] = wl.path("oracle/shared/" + sims)
        for rel, rows in st["rows"].items():
            renamed = [[names[v] for v in row] for row in rows]
            rng.shuffle(renamed)
            tid_base += rng.randrange(0, 3)
            tids = list(range(tid_base, tid_base + len(renamed)))
            tid_base += len(renamed)
            wl.files[f"{case}/{rel}.csv"] = _csv(
                ["#tid", *st["schema"][rel]], [[t, *r] for t, r in zip(tids, renamed)]
            )
        args = ["oracle"]
        for flag, path in paths.items():
            args += [f"--{flag}", path]
        wl.ops.append(Op("oracle", args, paths, label=f"{kind}:{index}"))
