"""Entity resolution with matching dependencies.

The package turns a set of matching dependencies (MDs) over an instance
into: a tractability classification, the family of minimal resolved
instances (MRIs) for the tractable classes, and resolved answers to
conjunctive queries, either by query rewriting or by an exhaustive chase
oracle that doubles as the ground truth in tests.
"""

from .cqa import KeyedRelation, build_cqa_instance
from .errors import (
    BoundsExceededError,
    InputError,
    MDResError,
    NotEligibleError,
    ParseError,
)
from .mds import (
    MD,
    Classification,
    Conjunct,
    MDGraph,
    MDSet,
    build_md_graph,
    classify,
    eqr_class,
    eqr_classes,
    parse_mds,
    previous_set,
)
from .query import (
    AnswerSet,
    ConjunctiveQuery,
    RewrittenQuery,
    eval_rewritten,
    is_ujcq,
    parse_query,
    resolved_answers,
    rewrite,
)
from .relation import (
    Instance,
    Position,
    RelationSchema,
    Schema,
    diff_changeset,
    load_csv_dir,
    load_instance,
    load_schema,
    parse_schema,
    write_csv_dir,
)
from .resolver import (
    MRIFamily,
    OracleBounds,
    enumerate_mris_oracle,
    fast_mri_family,
    is_stable,
)
from .similarity import (
    SimilaritySpec,
    check_all,
    load_sims,
    neighbours,
    parse_sims,
    similar,
    verify_transitivity,
)
from .taclosure import TAPartition, emit_datalog, ta_closure

__version__ = "0.1.0"

__all__ = [
    "AnswerSet",
    "BoundsExceededError",
    "Classification",
    "Conjunct",
    "ConjunctiveQuery",
    "Instance",
    "InputError",
    "KeyedRelation",
    "MD",
    "MDGraph",
    "MDResError",
    "MDSet",
    "MRIFamily",
    "NotEligibleError",
    "OracleBounds",
    "ParseError",
    "Position",
    "RelationSchema",
    "RewrittenQuery",
    "Schema",
    "SimilaritySpec",
    "TAPartition",
    "build_cqa_instance",
    "build_md_graph",
    "check_all",
    "classify",
    "diff_changeset",
    "emit_datalog",
    "enumerate_mris_oracle",
    "eqr_class",
    "eqr_classes",
    "eval_rewritten",
    "fast_mri_family",
    "is_stable",
    "is_ujcq",
    "load_csv_dir",
    "load_instance",
    "load_schema",
    "load_sims",
    "neighbours",
    "parse_mds",
    "parse_query",
    "parse_schema",
    "parse_sims",
    "previous_set",
    "resolved_answers",
    "rewrite",
    "similar",
    "ta_closure",
    "verify_transitivity",
    "write_csv_dir",
]
