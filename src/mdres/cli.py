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
list of rows (table rows, answers) is encoded by one call of CPython's
compact C encoder and then laid out. The `blocks` of closure and resolve
are the closure partition itself, which `_dump_blocks` (and, for --format
text, `_render_text`) writes in one pass over the partition's arrays, with
each attribute's relation and name encoded once. Integers are written with
all their digits, past int's str conversion limit too, so an MRI count or
a repair count of any size is printed exactly.
Each option's constraint (required, a choice, an integer range) is stated
in its click declaration, and the click commands hand their parameters
straight to `run`. Exit codes: 0 success; 1 input error, a usage error
included (an unknown command or option, a missing option, a bad value), each
reported as one `error:` line on stderr; 2 the requested fast path does not
apply; 3 the oracle exceeded its bounds.
"""

from __future__ import annotations

import os
import sys
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import NoReturn

import click

from .cqa import build_cqa_instance
from .errors import (
    BoundsExceededError,
    InputError,
    MDResError,
    NotEligibleError,
)
from .mds import MDSet, classify, parse_mds
from .query import MODES, parse_query, resolved_answers
from .relation import (
    Instance,
    instance_as_json,
    load_csv_dir,
    load_schema,
    read_text,
    write_csv_dir,
)
from .resolver import OracleBounds, enumerate_mris_oracle, fast_mri_family
from .similarity import load_sims
from .taclosure import TAPartition, emit_datalog, ta_closure

def _load(schema: str, data: str, mds: str, sims: str | None) -> tuple[Instance, MDSet]:
    instance = load_csv_dir(load_schema(schema), data)
    sim_defs = load_sims(sims) if sims else {}
    mds_text = read_text(mds)
    # lev verdicts are checked against the whole active domain when the
    # classifier first reads them, which only a two-MD chain does
    mdset = parse_mds(mds_text, instance.schema, sim_defs, domain=instance.active_domain)
    return instance, mdset


def _refuse_overwrite(data: str, out: str, name: str) -> None:
    """Raise InputError when out/name is the file data/name: writing it
    would replace the input it was computed from."""
    target = os.path.join(out, name)
    try:
        same = os.path.samefile(target, os.path.join(data, name))
    except OSError:  # either file is missing
        return
    if same:
        raise InputError(f"--out would overwrite the input file {Path(data) / name}")


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


def run(
    command: str,
    *,
    schema: str,
    data: str,
    mds: str | None = None,
    sims: str | None = None,
    query: str | None = None,
    mode: str | None = None,
    relation: str | None = None,
    key: str | None = None,
    out: str | None = None,
    materialize: int | None = None,
    **bounds: int,
):
    """Execute one CLI command on its parsed options; returns the payload
    (dict, or str for raw text). A command is passed only the options it
    declares; `bounds` are the --max-* options, as OracleBounds fields.
    The `blocks` of closure and resolve are the TAPartition, which the
    writers lay out.

    Raises InputError / NotEligibleError / BoundsExceededError; the CLI maps
    those to exit codes 1 / 2 / 3.
    """
    if command == "cqa-export":
        instance = load_csv_dir(load_schema(schema), data)
        key_attrs = [a.strip() for a in key.split(",") if a.strip()]
        kr = build_cqa_instance(instance, relation, key_attrs)
        payload = {
            "relation": kr.rel,
            "key": list(kr.key),
            "nonkey": list(kr.nonkey),
            "groups": len(kr.groups),
            "rows": len(kr.rows),
            "repair_count": kr.repair_count,
        }
        if out:
            _refuse_overwrite(data, out, f"{kr.rel}.csv")
            payload["files"] = [str(p) for p in write_csv_dir(kr.to_instance(), out)]
        return payload

    instance, mdset = _load(schema, data, mds, sims)

    if command == "classify":
        return _classification_json(mdset)

    if command == "closure":
        return {
            "changeable": sorted([r, a] for r, a in mdset.changeable),
            "blocks": ta_closure(instance, mdset),
        }

    if command == "resolve":
        family = fast_mri_family(instance, mdset)
        payload = {
            "classification": {
                "label": family.classification.label,
                "evidence": list(family.classification.evidence),
            },
            "mri_count": family.count,
            "min_change": family.min_change,
            "blocks": family.partition,
            "canonical": instance_as_json(family.canonical()),
        }
        if materialize:
            instances, truncated = family.materialize(materialize)
            payload["materialized"] = [instance_as_json(i) for i in instances]
            payload["truncated"] = truncated
        return payload

    if command == "oracle":
        mris, min_change = enumerate_mris_oracle(instance, mdset, OracleBounds(**bounds))
        return {
            "count": len(mris),
            "min_change": min_change,
            "mris": [instance_as_json(i) for i in mris],
        }

    if command == "answers":
        q = parse_query(read_text(query), mdset.schema)
        answers = resolved_answers(q, instance, mdset, mode, OracleBounds(**bounds))
        ok, witness = answers.ujcq
        return {
            "query": str(q),
            "ujcq": ok,
            "witness": witness,
            "mode": answers.provenance,
            "answers": answers.as_json(),
            "rewritten": answers.rewritten.render() if answers.rewritten else None,
        }

    if command == "emit-datalog":
        return emit_datalog(instance, mdset)

    raise InputError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# Rendering

def _render_text(command: str, payload: dict) -> str:
    lines: list[str] = []
    if command == "classify":
        lines.append(payload["label"])
        lines.extend(f"  {e}" for e in payload["evidence"])
    elif command == "closure":
        partition = payload["blocks"]
        labels = _slot_texts(partition, lambda rel, name: (f"{rel}.t", f".{name}"))
        for block, counts in zip(partition.block_slots, partition.counts):
            positions = " ".join(map(labels.__getitem__, block))
            values = ", ".join([f"{v}:{n}" for v, n in counts])
            lines.append(f"block {positions} | {values}")
    elif command == "resolve":
        lines.append(f"label {payload['classification']['label']}")
        lines.append(f"mri_count {_int_text(payload['mri_count'])}")
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
            f"repairs={_int_text(payload['repair_count'])}"
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
    with str keys, lists, tuples, str, int, bool and None, and a closure
    partition, which _dump_blocks writes. Anything else, a non-str key
    included, raises TypeError. `nl` is the newline and indent that obj's
    closing bracket sits on, for the recursive calls. A list of rows goes
    through _dump_rows.
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
        return _int_text(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if type(obj[0]) is list and _is_rows(obj):
            return _dump_rows(obj, nl)
        items = [
            encode_basestring_ascii(v) if type(v) is str
            else _int_text(v) if type(v) is int
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
                else _int_text(v) if type(v) is int
                else _dump_json(v, inner)
            ))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, TAPartition):
        return _dump_blocks(obj, nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _int_text(n: int) -> str:
    """The decimal digits of n, however many. int's own conversion refuses
    past sys.get_int_max_str_digits() digits (4,300 by default), and an MRI
    count can have more; decimal's has no such limit."""
    try:
        return int.__repr__(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def _slot_texts(partition: TAPartition, affixes) -> dict[int, str]:
    """{slot: head + tid + tail} for every slot of a closure partition, where
    (head, tail) = affixes(relation, attribute) is built once per attribute."""
    texts: dict[int, str] = {}
    for (rel, name), at in partition.slots.items():
        head, tail = affixes(rel, name)
        texts.update(zip(at.values(), [f"{head}{tid}{tail}" for tid in at]))
    return texts


def _dump_blocks(partition: TAPartition, nl: str) -> str:
    """_dump_json of a closure partition's blocks, written straight from its
    arrays: a list with one object per block, whose `candidates` are its
    pool, `positions` its [relation, tid, attribute] triples in slot order,
    and `values` its counts. Each attribute's relation and name are encoded
    once."""
    if not partition.block_slots:
        return "[]"
    enc = encode_basestring_ascii
    block, key, item, cell = nl + "  ", nl + "    ", nl + "      ", nl + "        "
    labels = _slot_texts(partition, lambda rel, name: (
        "[" + cell + enc(rel) + "," + cell, "," + cell + enc(name) + item + "]"
    ))
    sep = "," + item
    head = "{" + key + '"candidates": [' + item
    positions = key + "]," + key + '"positions": [' + item
    values = key + "]," + key + '"values": {' + item
    tail = key + "}" + block + "}"
    texts = [
        head + sep.join(map(enc, pool))
        + positions + sep.join(map(labels.__getitem__, slots))
        + values + sep.join([enc(v) + ": " + int.__repr__(n) for v, n in counts])
        + tail
        for slots, counts, pool in zip(partition.block_slots, partition.counts, partition.pools)
    ]
    return "[" + block + ("," + block).join(texts) + nl + "]"


def _emit(command: str, fmt: str, payload) -> None:
    # color=True: stdout is written as computed, ANSI escapes in values too,
    # which click.echo would strip whenever stdout is not a terminal
    if isinstance(payload, str):
        click.echo(payload, nl=False, color=True)
        return
    if fmt == "json":
        click.echo(_dump_json(payload), color=True)
    else:
        click.echo(_render_text(command, payload), color=True)


def _exit(code: int, prefix: str, message: object) -> NoReturn:
    # one line, even when the message quotes input with a line break in it
    click.echo(f"{prefix}: " + "\\n".join(str(message).splitlines()), err=True)
    sys.exit(code)


def _execute(command: str, fmt: str = "json", **params) -> None:
    try:
        payload = run(command, **params)
    except NotEligibleError as exc:
        _exit(2, "not eligible", exc)
    except BoundsExceededError as exc:
        _exit(3, "bounds exceeded", exc)
    except (MDResError, OSError) as exc:
        _exit(1, "error", exc)
    _emit(command, fmt, payload)


class _Main(click.Group):
    """A usage error (unknown option or command, missing option, bad value)
    is bad input: one `error:` line on stderr and exit 1, like any other.
    --help, Ctrl-C and a closed stdout keep click's own handling."""

    def make_context(self, *args, **kwargs) -> click.Context:
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            _exit(1, "error", exc.format_message())

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _exit(1, "error", exc.format_message())


def _options(*options):
    def decorate(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return decorate


_schema = click.option("--schema", required=True, help="Schema file.")
_data = click.option("--data", required=True, help="Directory of <relation>.csv files.")
_format = click.option("--format", "fmt", type=click.Choice(("json", "text")), default="json")
_input_options = _options(
    _schema,
    _data,
    click.option("--mds", required=True, help="MD file."),
    click.option("--sims", help="Similarity definitions file."),
)
_common_options = _options(_input_options, _format)
_max_values, _max_materialized = (
    click.option(f"--{name.replace('_', '-')}", type=click.IntRange(min=0),
                 default=getattr(OracleBounds, name), show_default=True)
    for name in ("max_values", "max_materialized")
)


@click.group(cls=_Main, no_args_is_help=False)
def main():
    """Entity resolution with matching dependencies."""


@main.command("classify")
@_common_options
def cmd_classify(**kw):
    """Classify the MD set (fast classes, easy/hard chains, Unknown)."""
    _execute("classify", **kw)


@main.command("closure")
@_common_options
def cmd_closure(**kw):
    """Print the closure partition with per-block value frequencies."""
    _execute("closure", **kw)


@main.command("resolve")
@_common_options
@click.option("--materialize", type=click.IntRange(0, sys.maxsize), default=0,
              show_default=True, help="Also list up to N minimal resolved instances.")
def cmd_resolve(**kw):
    """Fast-path resolution: MRI family, counts, canonical instance."""
    _execute("resolve", **kw)


@main.command("oracle")
@_common_options
@_max_values
@_max_materialized
def cmd_oracle(**kw):
    """Exhaustive chase enumeration of minimal resolved instances."""
    _execute("oracle", **kw)


@main.command("answers")
@_common_options
@_max_values
@click.option("--query", required=True, help="Query file.")
@click.option("--mode", type=click.Choice(MODES), default="auto",
              show_default=True, help="How the answers are computed.")
def cmd_answers(**kw):
    """Resolved answers of a conjunctive query."""
    _execute("answers", **kw)


@main.command("emit-datalog")
@_input_options
def cmd_emit_datalog(**kw):
    """Print the closure computation as a datalog program."""
    _execute("emit-datalog", **kw)


@main.command("cqa-export")
@_options(_schema, _data, _format)
@click.option("--relation", required=True, help="Relation to repair.")
@click.option("--key", required=True, help="Comma-separated key attributes.")
@click.option("--out", help="Directory for the exported CSV.")
def cmd_cqa_export(**kw):
    """Majority-candidate rows of a keyed relation (key-repair bridge)."""
    _execute("cqa-export", **kw)


if __name__ == "__main__":
    main()
