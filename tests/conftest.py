"""Shared fixture loading for the test suite."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from mdres import (
    Instance,
    MDSet,
    Schema,
    check_all,
    load_csv_dir,
    load_schema,
    load_sims,
    parse_mds,
    parse_query,
)
from mdres.mds import _SIDE_L, _SIDE_R, _chain_edge, _SideView

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@dataclasses.dataclass
class Bundle:
    """One fixture directory, fully loaded."""

    root: Path
    schema: Schema
    instance: Instance
    mdset: MDSet
    sims: dict

    def query(self, filename: str = "query.txt"):
        text = (self.root / filename).read_text(encoding="utf-8")
        return parse_query(text, self.schema)

    def data_dir(self, name: str = "data") -> Path:
        return self.root / name

    def variant(self, name: str) -> Instance:
        return load_csv_dir(self.schema, self.root / "variants" / name)


def load_bundle(name: str, mds: str = "mds.txt", sims: str | None = None) -> Bundle:
    root = FIXTURES / name
    schema = load_schema(root / "schema.txt")
    instance = load_csv_dir(schema, root / "data")
    if sims is None and (root / "sims.txt").is_file():
        sims = "sims.txt"
    simmap = load_sims(root / sims) if sims else {}
    if simmap:
        simmap = check_all(simmap, instance.active_domain())
    mdset = parse_mds((root / mds).read_text(encoding="utf-8"), schema, simmap or None)
    return Bundle(root, schema, instance, mdset, simmap)


def chain_equivalent_sets(mdset: MDSet) -> list[tuple[str, tuple, bool]]:
    """The equivalent sets the chain analysis computes for a two-MD chain:
    (side, sorted attributes, bound) for each set, side L first. A set is
    bound when it holds a condition attribute of the chain's first MD."""
    view = _SideView(*_chain_edge(mdset))
    return [
        (
            view.side_name(side),
            tuple(sorted(map(view.real, c))),
            any(a in view.lhs1_attrs for a in c),
        )
        for side in (_SIDE_L, _SIDE_R)
        for c in view.equivalent_sets(side)
    ]


@pytest.fixture(scope="session")
def dup_groups() -> Bundle:
    return load_bundle("dup_groups")


@pytest.fixture(scope="session")
def hard_chain() -> Bundle:
    return load_bundle("hard_chain")


@pytest.fixture(scope="session")
def two_rule_cycle() -> Bundle:
    return load_bundle("two_rule_cycle")


@pytest.fixture(scope="session")
def majority_column() -> Bundle:
    return load_bundle("majority_column")


@pytest.fixture(scope="session")
def three_rel_join() -> Bundle:
    return load_bundle("three_rel_join")


@pytest.fixture(scope="session")
def conp_regression() -> Bundle:
    return load_bundle("conp_regression")


# every bundle that classifies and resolves without extra arguments
RESOLVABLE = [
    "dup_groups",
    "simple_cycle",
    "two_rule_cycle",
    "majority_column",
    "three_rel_join",
]
