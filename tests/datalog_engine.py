"""The tests' reference engine for the program `emit_datalog` prints.

A positive-datalog parser and semi-naive evaluation, and `datalog_partition`,
which reads the closure blocks off the program's `ta` facts. Constants are
integers, 'quoted strings' ('' escapes a quote) or bare lower-case
identifiers; variables start with an upper-case letter; `_` is an anonymous
variable. Statements end with a period; `%` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count

from mdres.dsets import DisjointSet
from mdres.errors import ParseError
from mdres.join import Const, Var, join
from mdres.mds import MDSet
from mdres.relation import Instance, Position
from mdres.taclosure import emit_datalog

from reference import ref_positions

_VAR_RE = re.compile(r"^[A-Z]\w*$")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<impl>:-)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<number>-?\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_]\w*)
""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Atom:
    pred: str
    terms: tuple[Var | Const, ...]

    @property
    def arity(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Atom, ...]


@dataclass
class Program:
    facts: list[Atom]
    rules: list[Rule]


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} in datalog text")
        pos = m.end()
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((m.lastgroup, m.group()))
    return tokens


def parse_program(text: str) -> Program:
    tokens = _tokenize(text)
    i = 0
    fresh = count()

    def expect(kind: str) -> str:
        nonlocal i
        if i >= len(tokens) or tokens[i][0] != kind:
            got = tokens[i][1] if i < len(tokens) else "end of input"
            raise ParseError(f"expected {kind}, got {got!r}")
        value = tokens[i][1]
        i += 1
        return value

    def parse_term() -> Var | Const:
        nonlocal i
        kind, value = tokens[i] if i < len(tokens) else ("end", "end of input")
        if kind == "number":
            i += 1
            return Const(int(value))
        if kind == "string":
            i += 1
            return Const(value[1:-1].replace("''", "'"))
        if kind == "ident":
            i += 1
            if value == "_":
                return Var(f"_anon{next(fresh)}")
            if _VAR_RE.match(value) or value.startswith("_"):
                return Var(value)
            return Const(value)
        raise ParseError(f"expected a term, got {value!r}")

    def parse_atom() -> Atom:
        pred = expect("ident")
        expect("lparen")
        terms = [parse_term()]
        while i < len(tokens) and tokens[i][0] == "comma":
            expect("comma")
            terms.append(parse_term())
        expect("rparen")
        return Atom(pred, tuple(terms))

    program = Program([], [])
    arities: dict[str, int] = {}

    def note_arity(atom: Atom):
        seen = arities.setdefault(atom.pred, atom.arity)
        if seen != atom.arity:
            raise ParseError(
                f"predicate {atom.pred} used with arity {atom.arity} and {seen}"
            )

    while i < len(tokens):
        head = parse_atom()
        note_arity(head)
        if i < len(tokens) and tokens[i][0] == "impl":
            expect("impl")
            body = [parse_atom()]
            note_arity(body[-1])
            while i < len(tokens) and tokens[i][0] == "comma":
                expect("comma")
                body.append(parse_atom())
                note_arity(body[-1])
            expect("dot")
            head_vars = {t.name for t in head.terms if isinstance(t, Var)}
            body_vars = {t.name for a in body for t in a.terms if isinstance(t, Var)}
            if not head_vars <= body_vars:
                raise ParseError(f"unsafe rule: {head.pred} head variables unbound")
            program.rules.append(Rule(head, tuple(body)))
        else:
            expect("dot")
            if any(isinstance(t, Var) for t in head.terms):
                raise ParseError(f"fact {head.pred} contains variables")
            program.facts.append(head)
    return program


def evaluate(program: Program) -> dict[str, set[tuple]]:
    """Least fixpoint of the program, computed semi-naively."""
    derived: dict[str, set[tuple]] = {}
    for fact in program.facts:
        derived.setdefault(fact.pred, set()).add(
            tuple(t.value for t in fact.terms)
        )
    delta = {pred: set(rows) for pred, rows in derived.items()}

    while True:
        fresh: dict[str, set[tuple]] = {}
        for rule in program.rules:
            body = [atom.terms for atom in rule.body]
            for pivot, atom in enumerate(rule.body):
                if atom.pred not in delta:
                    continue
                sources = [
                    (delta if k == pivot else derived).get(a.pred, ())
                    for k, a in enumerate(rule.body)
                ]
                for row in join(rule.head.terms, body, sources):
                    if row not in derived.get(rule.head.pred, set()):
                        fresh.setdefault(rule.head.pred, set()).add(row)
        if not fresh:
            return derived
        for pred, rows in fresh.items():
            derived.setdefault(pred, set()).update(rows)
        delta = fresh


def datalog_partition(d: Instance, mdset: MDSet) -> tuple[tuple[Position, ...], ...]:
    """The partition read off the emitted program's ta facts; must equal ta_closure's."""
    derived = evaluate(parse_program(emit_datalog(d, mdset)))
    positions = ref_positions(d, mdset.changeable)
    number = {pos: i for i, pos in enumerate(positions)}
    classes = DisjointSet(len(positions))
    for t1, a1, t2, a2 in derived.get("ta", set()):
        rel1, attr1 = str(a1).split(".", 1)
        rel2, attr2 = str(a2).split(".", 1)
        classes.union(
            number[Position(int(t1), (rel1, attr1))], number[Position(int(t2), (rel2, attr2))]
        )
    return tuple([tuple(map(positions.__getitem__, block)) for block in classes.blocks()])
