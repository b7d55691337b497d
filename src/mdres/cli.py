"""Command line interface.

Commands: classify, closure, resolve, answers, oracle, emit-datalog,
cqa-export. Output is JSON by default (sorted keys, two-space indent, so
repeated runs are byte-identical); --format text gives a terse human
rendering. emit-datalog prints a datalog program, the same text either way,
so it takes no --format. MD files and query files are read by
`mds.parse_mds` and `query.parse_query`, which share one tokenizer, so a
malformed file of either kind ends in the same kind of one-line error.
The JSON writer is `_dump_json`: it gives the bytes of
`json.dumps(payload, indent=2, sort_keys=True)`, built with `str.join`; a
list of rows (table rows, block positions, answers) is encoded by one call
of CPython's compact C encoder and then laid out.
Exit codes: 0 success, 1 input error, 2 the requested fast path does not
apply, 3 the oracle exceeded its bounds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii

import click

from .cqa import build_cqa_instance
from .errors import (
    BoundsExceededError,
    InputError,
    MDResError,
    NotEligibleError,
)
from .mds import MDSet, classify, parse_mds
from .query import parse_query, resolved_answers
from .relation import (
    Instance,
    instance_as_json,
    load_csv_dir,
    load_schema,
    read_text,
)
from .resolver import OracleBounds, enumerate_mris_oracle, fast_mri_family
from .similarity import load_sims
from .taclosure import emit_datalog, ta_closure

FORMATS = ("json", "text")
# The OracleBounds fields that `oracle` and `answers` take as --max-* options.
BOUND_OPTIONS = ("max_tuples", "max_values", "max_materialized")


@dataclass
class RunConfig:
    schema: str | None = None
    data: str | None = None
    mds: str | None = None
    sims: str | None = None
    query: str | None = None
    mode: str = "auto"
    relation: str | None = None
    key: str | None = None
    out: str | None = None
    materialize: int = 0
    max_tuples: int = OracleBounds.max_tuples
    max_values: int = OracleBounds.max_values
    max_materialized: int = OracleBounds.max_materialized
    fmt: str = "json"

    def bounds(self) -> OracleBounds:
        values = {name: getattr(self, name) for name in BOUND_OPTIONS}
        for name, value in values.items():
            if value < 0:
                raise InputError(f"--{name.replace('_', '-')} must be at least 0")
        return OracleBounds(**values)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise InputError(f"--{name.replace('_', '-')} is required for this command")


def _load(cfg: RunConfig) -> tuple[Instance, MDSet]:
    _require(cfg, "schema", "data", "mds")
    schema = load_schema(cfg.schema)
    instance = load_csv_dir(schema, cfg.data)
    sims = load_sims(cfg.sims) if cfg.sims else {}
    mds_text = read_text(cfg.mds)
    # lev verdicts are checked against the whole active domain when the
    # classifier first reads them, which only a two-MD chain does
    mdset = parse_mds(mds_text, schema, sims, domain=instance.active_domain)
    return instance, mdset


def _classification_json(mdset: MDSet) -> dict:
    cls = classify(mdset)
    graph = mdset.graph
    return {
        "label": cls.label,
        "evidence": list(cls.evidence),
        "mds": [str(md) for md in mdset.mds],
        "graph": {
            "vertices": list(graph.vertices),
            "edges": sorted([a, b] for a, b in graph.edges),
        },
    }


def run(command: str, cfg: RunConfig):
    """Execute one CLI command; returns the payload (dict, or str for raw text).

    Raises InputError / NotEligibleError / BoundsExceededError; the CLI maps
    those to exit codes 1 / 2 / 3.
    """
    if cfg.fmt not in FORMATS:
        raise InputError(f"unknown format {cfg.fmt!r} (expected one of {FORMATS})")

    if command == "classify":
        _, mdset = _load(cfg)
        return _classification_json(mdset)

    if command == "closure":
        instance, mdset = _load(cfg)
        partition = ta_closure(instance, mdset)
        return {
            "changeable": sorted([r, a] for r, a in mdset.changeable),
            "blocks": partition.as_json(),
        }

    if command == "resolve":
        if not 0 <= cfg.materialize <= sys.maxsize:
            raise InputError(f"--materialize must be between 0 and {sys.maxsize}")
        instance, mdset = _load(cfg)
        family = fast_mri_family(instance, mdset)
        payload = {
            "classification": {
                "label": family.classification.label,
                "evidence": list(family.classification.evidence),
            },
            "mri_count": family.count,
            "min_change": family.min_change,
            "blocks": family.partition.as_json(),
            "canonical": instance_as_json(family.canonical()),
        }
        if cfg.materialize:
            instances, truncated = family.materialize(cfg.materialize)
            payload["materialized"] = [instance_as_json(i) for i in instances]
            payload["truncated"] = truncated
        return payload

    if command == "oracle":
        instance, mdset = _load(cfg)
        mris, min_change = enumerate_mris_oracle(instance, mdset, cfg.bounds())
        return {
            "count": len(mris),
            "min_change": min_change,
            "mris": [instance_as_json(i) for i in mris],
        }

    if command == "answers":
        instance, mdset = _load(cfg)
        _require(cfg, "query")
        query = parse_query(read_text(cfg.query), mdset.schema)
        answers = resolved_answers(query, instance, mdset, cfg.mode, cfg.bounds())
        ok, witness = answers.ujcq
        return {
            "query": str(query),
            "ujcq": ok,
            "witness": witness,
            "mode": answers.provenance,
            "answers": answers.as_json(),
            "rewritten": answers.rewritten.render() if answers.rewritten else None,
        }

    if command == "emit-datalog":
        instance, mdset = _load(cfg)
        return emit_datalog(instance, mdset)

    if command == "cqa-export":
        _require(cfg, "schema", "data", "relation", "key")
        schema = load_schema(cfg.schema)
        instance = load_csv_dir(schema, cfg.data)
        key = [a.strip() for a in cfg.key.split(",") if a.strip()]
        kr = build_cqa_instance(instance, cfg.relation, key)
        payload = {
            "relation": kr.rel,
            "key": list(kr.key),
            "nonkey": list(kr.nonkey),
            "groups": len(kr.groups),
            "rows": len(kr.rows),
            "repair_count": kr.repair_count,
        }
        if cfg.out:
            from .relation import write_csv_dir

            written = write_csv_dir(kr.to_instance(), cfg.out)
            payload["files"] = [str(p) for p in written]
        return payload

    raise InputError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# Rendering

def _render_text(command: str, payload: dict) -> str:
    lines: list[str] = []
    if command == "classify":
        lines.append(payload["label"])
        lines.extend(f"  {e}" for e in payload["evidence"])
    elif command == "closure":
        for block in payload["blocks"]:
            positions = " ".join(f"{r}.t{t}.{a}" for r, t, a in block["positions"])
            values = ", ".join(f"{v}:{n}" for v, n in sorted(block["values"].items()))
            lines.append(f"block {positions} | {values}")
    elif command == "resolve":
        lines.append(f"label {payload['classification']['label']}")
        lines.append(f"mri_count {payload['mri_count']}")
        lines.append(f"min_change {payload['min_change']}")
    elif command == "oracle":
        lines.append(f"count {payload['count']}")
        lines.append(f"min_change {payload['min_change']}")
    elif command == "answers":
        lines.append(f"mode {payload['mode']}")
        for row in payload["answers"]:
            lines.append("\t".join(row) if row else "true")
        if not payload["answers"]:
            lines.append("(no answers)")
    elif command == "cqa-export":
        lines.append(
            f"{payload['relation']} key={','.join(payload['key'])} "
            f"groups={payload['groups']} rows={payload['rows']} "
            f"repairs={payload['repair_count']}"
        )
    return "\n".join(lines)


# A compact C encoder that separates items with NUL. encode_basestring_ascii
# escapes NUL as \u0000, so in its output a raw NUL is always a separator,
# and `]<NUL>[` is always the boundary of two rows. None without CPython's
# _json module.
_row_encoder = c_make_encoder and c_make_encoder(
    None, None, encode_basestring_ascii, None, ":", "\x00", False, False, False
)


def _is_rows(obj) -> bool:
    """obj holds only non-empty lists whose items are exactly str or int."""
    return (
        _row_encoder is not None
        and {*map(type, obj)} == {list}
        and all(obj)
        and {*map(type, chain.from_iterable(obj))} <= {str, int}
    )


def _dump_rows(rows, nl: str) -> str:
    """_dump_json of a list for which _is_rows holds: one C encoder call, then
    one str.replace for the row boundaries and one for the cell separators."""
    inner = nl + "  "
    cell = inner + "  "
    text = "".join(_row_encoder(rows, 0))
    text = text.replace("]\x00[", inner + "]," + inner + "[" + cell).replace("\x00", "," + cell)
    # text is [[<rows>]]
    return "[" + inner + "[" + cell + text[2:-2] + inner + "]" + nl + "]"


def _dump_json(obj, nl: str = "\n") -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte.

    With `indent` set, json.dumps skips CPython's C encoder and yields every
    token from Python generators; this builds each container's text with one
    `str.join` over its items instead. It covers what the CLI prints: dicts
    with str keys, lists, tuples, str, int, bool and None. Anything else,
    a non-str key included, raises TypeError. `nl` is the newline and indent
    that obj's closing bracket sits on, for the recursive calls. A list of
    rows goes through _dump_rows.
    """
    # The checks run in json's order. Inside a container, plain str and int
    # items are written inline, since they are most of a payload's tokens.
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if type(obj[0]) is list and _is_rows(obj):
            return _dump_rows(obj, nl)
        items = [
            encode_basestring_ascii(v) if type(v) is str
            else int.__repr__(v) if type(v) is int
            else _dump_json(v, inner)
            for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, v in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + (
                encode_basestring_ascii(v) if type(v) is str
                else int.__repr__(v) if type(v) is int
                else _dump_json(v, inner)
            ))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(command: str, cfg: RunConfig, payload) -> None:
    if isinstance(payload, str):
        click.echo(payload, nl=False)
        return
    if cfg.fmt == "json":
        click.echo(_dump_json(payload))
    else:
        click.echo(_render_text(command, payload))


def _execute(command: str, cfg: RunConfig) -> None:
    try:
        payload = run(command, cfg)
    except NotEligibleError as exc:
        click.echo(f"not eligible: {exc}", err=True)
        sys.exit(2)
    except BoundsExceededError as exc:
        click.echo(f"bounds exceeded: {exc}", err=True)
        sys.exit(3)
    except MDResError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    _emit(command, cfg, payload)


def _options(*options):
    def decorate(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return decorate


_schema = click.option("--schema", type=str, default=None, help="Schema file.")
_data = click.option("--data", type=str, default=None, help="Directory of <relation>.csv files.")
_format = click.option("--format", "fmt", type=str, default="json", help="json or text.")
_input_options = _options(
    _schema,
    _data,
    click.option("--mds", type=str, default=None, help="MD file."),
    click.option("--sims", type=str, default=None, help="Similarity definitions file."),
)
_common_options = _options(_input_options, _format)
_bounds_options = _options(*(
    click.option(f"--{name.replace('_', '-')}", type=int,
                 default=getattr(OracleBounds, name), show_default=True)
    for name in BOUND_OPTIONS
))


@click.group()
def main():
    """Entity resolution with matching dependencies."""


@main.command("classify")
@_common_options
def cmd_classify(**kw):
    """Classify the MD set (fast classes, easy/hard chains, Unknown)."""
    _execute("classify", RunConfig(**kw))


@main.command("closure")
@_common_options
def cmd_closure(**kw):
    """Print the closure partition with per-block value frequencies."""
    _execute("closure", RunConfig(**kw))


@main.command("resolve")
@_common_options
@click.option("--materialize", type=int, default=0, show_default=True,
              help="Also list up to N minimal resolved instances.")
def cmd_resolve(**kw):
    """Fast-path resolution: MRI family, counts, canonical instance."""
    _execute("resolve", RunConfig(**kw))


@main.command("oracle")
@_common_options
@_bounds_options
def cmd_oracle(**kw):
    """Exhaustive chase enumeration of minimal resolved instances."""
    _execute("oracle", RunConfig(**kw))


@main.command("answers")
@_common_options
@_bounds_options
@click.option("--query", type=str, default=None, help="Query file.")
@click.option("--mode", type=str, default="auto", show_default=True,
              help="auto, rewrite or oracle.")
def cmd_answers(**kw):
    """Resolved answers of a conjunctive query."""
    _execute("answers", RunConfig(**kw))


@main.command("emit-datalog")
@_input_options
def cmd_emit_datalog(**kw):
    """Print the closure computation as a datalog program."""
    _execute("emit-datalog", RunConfig(**kw))


@main.command("cqa-export")
@_options(_schema, _data, _format)
@click.option("--relation", type=str, default=None, help="Relation to repair.")
@click.option("--key", type=str, default=None, help="Comma-separated key attributes.")
@click.option("--out", type=str, default=None, help="Directory for the exported CSV.")
def cmd_cqa_export(**kw):
    """Majority-candidate rows of a keyed relation (key-repair bridge)."""
    _execute("cqa-export", RunConfig(**kw))


if __name__ == "__main__":
    main()
