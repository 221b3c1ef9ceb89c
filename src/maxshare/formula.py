"""Propositional formulas: AST, text syntax, truth-table oracle, BDD
compilation, and the two benchmark families (Urquhart chains and the
pigeonhole principle).

Text grammar; the `_OPERATORS` table, which `parse` and
`print_formula` both read, holds each operator's symbol, binding level
and associativity:

    formula := "0" | "1" | "x" digits | "(" formula ")"
             | "!" formula | formula BINOP formula

Variable indices are 1-based and below `bdd.LEAF_VAR` (2**32), leading
zeros ignored; blanks are space, tab, carriage return and newline; `#`
starts a line comment.  `parse`, `print_formula`, `eval_formula` and
`variables` run on explicit stacks and have no nesting limit;
`compile` recurses once per formula level.
"""

from __future__ import annotations

import itertools
import re
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


# -- syntax ----------------------------------------------------------------

# symbol: (AST class, binding level, right-associative); a higher level
# binds tighter.  The one place where the operator syntax is written.
_OPERATORS = {
    "<->": (Iff, 1, True),
    "->": (Implies, 2, True),
    "|": (Or, 3, False),
    "^": (Xor, 4, False),
    "&": (And, 5, False),
    "!": (Not, 6, True),
}
_SYNTAX = {cls: (symbol, level, right)
           for symbol, (cls, level, right) in _OPERATORS.items()}
_CONSTS = {"0": Const(False), "1": Const(True)}
_OPEN = (None, 0, False)  # "(" on the operator stack: below every level

# One match per token, blanks and comments before it skipped: group 1
# an operator, parenthesis or constant, group 2 a variable, group 3 a
# character outside the syntax, group 4 the (empty) end of the text.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|#[^\n]*)*(?:("
    + "|".join(re.escape(op) for op in sorted(_OPERATORS, key=len,
                                               reverse=True))
    + r"|[()]|[01](?!\d))|(x\d+)|(.)|(\Z))", re.DOTALL)


def _where(text: str, m: re.Match) -> tuple[int, int]:
    """Line and column where the token `m` starts."""
    pos = m.start(m.lastindex)
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _variable(text: str, m: re.Match) -> Var:
    digits = m[2][1:].lstrip("0")
    if not digits:
        raise RangeError("variable indices are 1-based; x0 is invalid")
    # A longer index cannot be below LEAF_VAR; int() would also reject
    # one past Python's int-string digit limit.
    if len(digits) > len(str(LEAF_VAR)) or int(digits) >= LEAF_VAR:
        shown = digits if len(digits) <= 20 else (
            f"{digits[:20]}... ({len(digits)} digits)")
        line, col = _where(text, m)
        raise RangeError(f"{line}:{col}: variable index {shown} "
                         f"out of range (must be below {LEAF_VAR})")
    return Var(int(digits))


def parse(text: str) -> Formula:
    """Operator-precedence parse with explicit operand and operator
    stacks: prefix `!` and `(` wait on the operator stack, and an
    operator first reduces every stacked one that binds at least as
    tightly (strictly tighter, if it is right-associative).  Errors
    are reported at the first offending token in reading order."""
    out: list[Formula] = []
    ops: list[tuple] = []
    depth = 0              # "(" on the operator stack
    operand = True         # an operand is expected next

    def reduce() -> None:
        cls = ops.pop()[0]
        if cls is Not:
            out[-1] = Not(out[-1])
        else:
            right = out.pop()
            out[-1] = cls(out[-1], right)

    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        tok = m[kind]
        if kind == 3:
            raise ParseError(f"unexpected character {tok!r}",
                             *_where(text, m))
        if operand:
            if kind == 2:
                out.append(_variable(text, m))
                operand = False
            elif tok in _CONSTS:
                out.append(_CONSTS[tok])
                operand = False
            elif tok == "(":
                ops.append(_OPEN)
                depth += 1
            elif tok == "!":
                ops.append(_OPERATORS[tok])
            else:
                raise ParseError("expected formula, got "
                                 f"{tok or 'end of input'!r}",
                                 *_where(text, m))
        elif tok in _OPERATORS and tok != "!":
            cls, level, right = entry = _OPERATORS[tok]
            stop = level + 1 if right else level
            while ops and ops[-1][1] >= stop:
                reduce()
            ops.append(entry)
            operand = True
        elif tok == ")" and depth:
            while ops[-1] is not _OPEN:
                reduce()
            ops.pop()
            depth -= 1
        elif depth:
            raise ParseError(f"expected ')', got {tok or 'end of input'!r}",
                             *_where(text, m))
        elif tok:
            raise ParseError(f"trailing input {tok!r}", *_where(text, m))
        else:
            while ops:
                reduce()
            return out[0]
    raise AssertionError("the scanner ends with an end-of-text match")


def print_formula(f: Formula) -> str:
    """Text that `parse` reads back as `f`, with the fewest parentheses.
    An explicit stack of (formula, minimum level) items and literal
    pieces, so any depth prints."""
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, minimum = item
        if isinstance(g, Const):
            out.append("1" if g.value else "0")
            continue
        if isinstance(g, Var):
            out.append(f"x{g.index}")
            continue
        if type(g) not in _SYNTAX:
            raise FormulaError(f"not a formula: {g!r}")
        symbol, level, right = _SYNTAX[type(g)]
        if level < minimum:
            out.append("(")
            stack.append(")")
        if isinstance(g, Not):
            stack.append((g.operand, level))
            stack.append(symbol)
        else:  # an equal level needs no parentheses on the assoc. side
            lmin, rmin = (level + 1, level) if right else (level, level + 1)
            stack.append((g.right, rmin))
            stack.append(f" {symbol} ")
            stack.append((g.left, lmin))
    return "".join(out)


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


# How each binary connective combines the values of its operands.
_COMBINE = {
    And: lambda a, b: a and b,
    Or: lambda a, b: a or b,
    Xor: lambda a, b: a != b,
    Implies: lambda a, b: (not a) or b,
    Iff: lambda a, b: a == b,
}


def eval_formula(f: Formula, assignment: Mapping[int, bool]) -> bool:
    """Truth value of `f` under `assignment`, operands left to right.
    Post-order on an explicit stack: a connective's class, pushed below
    its operands, combines their values once they are computed."""
    values: list[bool] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is Var:
            try:
                values.append(assignment[g.index])
            except KeyError:
                raise UnboundVariableError(
                    f"variable x{g.index} unbound in assignment"
                ) from None
        elif kind is type:  # a connective, its operands evaluated
            if g is Not:
                values[-1] = not values[-1]
            else:
                b = values.pop()
                values[-1] = _COMBINE[g](values[-1], b)
        elif kind in _COMBINE:
            stack += (kind, g.right, g.left)
        elif kind is Not:
            stack += (Not, g.operand)
        elif kind is Const:
            values.append(g.value)
        else:
            raise FormulaError(f"not a formula: {g!r}")
    return values[0]


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


def _fold(cls, fs: list[Formula]) -> Formula:
    """`fs` joined by the binary `cls`, nested to the right."""
    acc = fs[-1]
    for g in reversed(fs[:-1]):
        acc = cls(g, acc)
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

    placed = _fold(And, [_fold(Or, [p(i, j) for j in range(1, n + 1)])
                         for i in range(1, n + 2)])
    collide = _fold(Or, [And(p(i, j), p(k, j))
                         for j in range(1, n + 1)
                         for i in range(1, n + 2)
                         for k in range(i + 1, n + 2)])
    return Implies(placed, collide)
