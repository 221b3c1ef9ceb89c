"""Propositional formulas: AST, text syntax, truth-table oracle, BDD
compilation, and the two benchmark families (Urquhart chains and the
pigeonhole principle).

Text grammar, operators by increasing binding strength:

    <->  iff        (right-associative)
    ->   implies    (right-associative)
    |    or
    ^    xor
    &    and
    !    not        (prefix)

Variables are `x<digits>` with 1-based indices below `bdd.LEAF_VAR`
(2**32), leading zeros ignored; constants are `0` and `1`; `#` starts
a line comment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .bdd import FALSE, LEAF_VAR, TRUE, BddManager, UnboundVariableError

ORACLE_VAR_LIMIT = 24


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class RangeError(FormulaError):
    """Variable index or benchmark size outside the allowed range."""


class OracleLimitError(FormulaError):
    """Truth-table enumeration requested over too many variables."""


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Xor:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = Union[Const, Var, Not, And, Or, Xor, Implies, Iff]


# -- parsing ---------------------------------------------------------------

_BINOPS = {"<->": Iff, "->": Implies, "|": Or, "^": Xor, "&": And}


def _tokenize(text: str) -> Iterator[tuple[str, str, int, int]]:
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("<->", i):
            yield ("op", "<->", line, col)
            i += 3
            col += 3
        elif text.startswith("->", i):
            yield ("op", "->", line, col)
            i += 2
            col += 2
        elif c in "|^&!()":
            yield ("op", c, line, col)
            i += 1
            col += 1
        elif c in "01" and not (i + 1 < n and text[i + 1].isdecimal()):
            yield ("const", c, line, col)
            i += 1
            col += 1
        elif c == "x" and i + 1 < n and text[i + 1].isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            yield ("var", text[i:j], line, col)
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    yield ("eof", "", line, col)


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int, int]:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str) -> None:
        kind, val, line, col = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val or 'end of input'!r}",
                             line, col)

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        left = self.implies()
        kind, val, _, _ = self.peek()
        if kind == "op" and val == "<->":
            self.take()
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.disj()
        kind, val, _, _ = self.peek()
        if kind == "op" and val == "->":
            self.take()
            return Implies(left, self.implies())
        return left

    def _left_chain(self, op: str, cls, sub) -> Formula:
        acc = sub()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val == op:
                self.take()
                acc = cls(acc, sub())
            else:
                return acc

    def disj(self) -> Formula:
        return self._left_chain("|", Or, self.xor)

    def xor(self) -> Formula:
        return self._left_chain("^", Xor, self.conj)

    def conj(self) -> Formula:
        return self._left_chain("&", And, self.neg)

    def neg(self) -> Formula:
        kind, val, _, _ = self.peek()
        if kind == "op" and val == "!":
            self.take()
            return Not(self.neg())
        return self.atom()

    def atom(self) -> Formula:
        kind, val, line, col = self.take()
        if kind == "const":
            return Const(val == "1")
        if kind == "var":
            digits = val[1:].lstrip("0")
            if not digits:
                raise RangeError("variable indices are 1-based; x0 is invalid")
            # A longer index cannot be below LEAF_VAR; int() would also
            # reject one past Python's int-string digit limit.
            if len(digits) > len(str(LEAF_VAR)) or int(digits) >= LEAF_VAR:
                shown = digits if len(digits) <= 20 else (
                    f"{digits[:20]}... ({len(digits)} digits)")
                raise RangeError(f"{line}:{col}: variable index {shown} "
                                 f"out of range (must be below {LEAF_VAR})")
            return Var(int(digits))
        if kind == "op" and val == "(":
            f = self.formula()
            self.expect_op(")")
            return f
        raise ParseError(f"expected formula, got {val or 'end of input'!r}",
                         line, col)


def parse(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    kind, val, line, col = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", line, col)
    return f


# -- printing --------------------------------------------------------------

# Binding levels; higher binds tighter.  Used to insert the minimal
# parentheses so that parse(print_formula(f)) == f.
_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_XOR, _LEVEL_AND, _LEVEL_NOT = \
    range(1, 7)


def print_formula(f: Formula) -> str:
    def wrap(g: Formula, minimum: int) -> str:
        s, level = go(g)
        return f"({s})" if level < minimum else s

    def binary(g, symbol: str, level: int, right_assoc: bool):
        if right_assoc:
            s = f"{wrap(g.left, level + 1)} {symbol} {wrap(g.right, level)}"
        else:
            s = f"{wrap(g.left, level)} {symbol} {wrap(g.right, level + 1)}"
        return s, level

    def go(g: Formula) -> tuple[str, int]:
        if isinstance(g, Const):
            return ("1" if g.value else "0", _LEVEL_NOT + 1)
        if isinstance(g, Var):
            return (f"x{g.index}", _LEVEL_NOT + 1)
        if isinstance(g, Not):
            return (f"!{wrap(g.operand, _LEVEL_NOT)}", _LEVEL_NOT)
        if isinstance(g, And):
            return binary(g, "&", _LEVEL_AND, right_assoc=False)
        if isinstance(g, Or):
            return binary(g, "|", _LEVEL_OR, right_assoc=False)
        if isinstance(g, Xor):
            return binary(g, "^", _LEVEL_XOR, right_assoc=False)
        if isinstance(g, Implies):
            return binary(g, "->", _LEVEL_IMP, right_assoc=True)
        if isinstance(g, Iff):
            return binary(g, "<->", _LEVEL_IFF, right_assoc=True)
        raise FormulaError(f"not a formula: {g!r}")

    return go(f)[0]


# -- semantics -------------------------------------------------------------

def variables(f: Formula) -> set[int]:
    out: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Var):
            out.add(g.index)
        elif isinstance(g, Not):
            stack.append(g.operand)
        elif isinstance(g, Const):
            pass
        else:
            stack.append(g.left)
            stack.append(g.right)
    return out


def eval_formula(f: Formula, assignment: Mapping[int, bool]) -> bool:
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Var):
        try:
            return assignment[f.index]
        except KeyError:
            raise UnboundVariableError(
                f"variable x{f.index} unbound in assignment"
            ) from None
    if isinstance(f, Not):
        return not eval_formula(f.operand, assignment)
    a = eval_formula(f.left, assignment)
    b = eval_formula(f.right, assignment)
    if isinstance(f, And):
        return a and b
    if isinstance(f, Or):
        return a or b
    if isinstance(f, Xor):
        return a != b
    if isinstance(f, Implies):
        return (not a) or b
    if isinstance(f, Iff):
        return a == b
    raise FormulaError(f"not a formula: {f!r}")


def compile(mgr: BddManager, f: Formula) -> int:
    """Bottom-up compilation to a canonical BDD reference."""
    if isinstance(f, Const):
        return TRUE if f.value else FALSE
    if isinstance(f, Var):
        if not (1 <= f.index < LEAF_VAR):
            raise RangeError(f"variable index {f.index} out of range")
        return mgr.mk_node(FALSE, f.index, TRUE)
    if isinstance(f, Not):
        return mgr.mk_not(compile(mgr, f.operand))
    a = compile(mgr, f.left)
    b = compile(mgr, f.right)
    if isinstance(f, And):
        return mgr.apply2("and", a, b)
    if isinstance(f, Or):
        return mgr.apply2("or", a, b)
    if isinstance(f, Xor):
        return mgr.apply2("xor", a, b)
    if isinstance(f, Implies):
        return mgr.apply2("or", mgr.mk_not(a), b)
    if isinstance(f, Iff):
        return mgr.mk_not(mgr.apply2("xor", a, b))
    raise FormulaError(f"not a formula: {f!r}")


def assignments(nvars: int) -> Iterator[dict[int, bool]]:
    """All environments over variables 1..nvars."""
    for bits in itertools.product((False, True), repeat=nvars):
        yield {i + 1: bits[i] for i in range(nvars)}


def equiv_counterexample(
    f: Formula, g: Formula, nvars: int
) -> dict[int, bool] | None:
    """First assignment over 1..nvars where f and g disagree, or None."""
    if nvars > ORACLE_VAR_LIMIT:
        raise OracleLimitError(
            f"{nvars} variables exceed the oracle limit {ORACLE_VAR_LIMIT}"
        )
    for env in assignments(nvars):
        if eval_formula(f, env) != eval_formula(g, env):
            return env
    return None


def truth_table_equiv(f: Formula, g: Formula, nvars: int) -> bool:
    return equiv_counterexample(f, g, nvars) is None


# -- benchmark families ----------------------------------------------------

def urquhart(n: int) -> Formula:
    """Right-nested chain of 2n-1 iffs over x1..xn, x1..xn."""
    if n < 1:
        raise RangeError("urquhart size must be >= 1")
    seq = list(range(1, n + 1)) * 2
    acc: Formula = Var(seq[-1])
    for v in reversed(seq[:-1]):
        acc = Iff(Var(v), acc)
    return acc


def _fold_or(fs: list[Formula]) -> Formula:
    acc = fs[-1]
    for g in reversed(fs[:-1]):
        acc = Or(g, acc)
    return acc


def _fold_and(fs: list[Formula]) -> Formula:
    acc = fs[-1]
    for g in reversed(fs[:-1]):
        acc = And(g, acc)
    return acc


def pigeonhole(n: int) -> Formula:
    """Pigeonhole principle for n+1 pigeons in n holes, as a tautology:
    if every pigeon sits in some hole, some hole holds two pigeons.

    Variable p(i, j) = x_{(i-1)*n + j} for pigeon i in 1..n+1 and hole
    j in 1..n; n*(n+1) variables total.
    """
    if n < 1:
        raise RangeError("pigeonhole size must be >= 1")

    def p(i: int, j: int) -> Formula:
        return Var((i - 1) * n + j)

    placed = _fold_and(
        [_fold_or([p(i, j) for j in range(1, n + 1)])
         for i in range(1, n + 2)]
    )
    collide = _fold_or(
        [And(p(i, j), p(k, j))
         for j in range(1, n + 1)
         for i in range(1, n + 2)
         for k in range(i + 1, n + 2)]
    )
    return Implies(placed, collide)
