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
starts a line comment.  `parse` tokenizes a text in one `findall` call,
rescans for a token's line and column only to raise an error, and
shares variable leaves through a bounded cache from token to `Var`.
`parse`, `print_formula`, `eval_formula`, `variables` and the AST
classes' `==`, `hash` and `repr` run on explicit stacks and have no
nesting limit.  `compile` loops over `!` and recurses once per binary
connective; it pushes negations into constants, variables and the left
operand of `^` and `<->`, so a chain of `<->` builds no complement of
its accumulated diagram.  It calls the steps of `BddManager.unchecked`
directly, with the probes and interns of `apply2`, `mk_not`, `mk_node`.
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


class _Ast:
    """Base of the AST classes.  `==`, `hash` and `repr` mean what the
    dataclass-generated ones would (equal: same class and equal fields;
    `repr` such as `Not(operand=Var(index=1))`), but run on explicit
    stacks, so a formula of any depth compares, hashes and prints.  Each
    class's fields are its `__match_args__`, in declaration order."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, _Ast):
                    stack.append((x, y))
                elif not (x is y or x == y):
                    return False
        return True

    def __hash__(self) -> int:
        # Folds the pre-order sequence of classes and field values, which
        # fixes the tree because each class has a fixed number of fields.
        h = 0
        stack: list = [self]
        while stack:
            g = stack.pop()
            if isinstance(g, _Ast):
                h = hash((h, g.__class__))
                stack += [getattr(g, name) for name in g.__match_args__]
            else:
                h = hash((h, g))
        return h

    def __repr__(self) -> str:
        # The stack holds nodes still to print and text already made.
        out: list[str] = []
        stack: list = [self]
        while stack:
            g = stack.pop()
            if not isinstance(g, _Ast):
                out.append(g)
                continue
            out.append(g.__class__.__qualname__ + "(")
            stack.append(")")
            names = g.__match_args__
            for i in reversed(range(len(names))):
                value = getattr(g, names[i])
                stack.append(value if isinstance(value, _Ast) else repr(value))
                stack.append((", " if i else "") + names[i] + "=")
        return "".join(out)


_ast = dataclass(frozen=True, eq=False, repr=False)


@_ast
class Const(_Ast):
    value: bool


@_ast
class Var(_Ast):
    index: int


@_ast
class Not(_Ast):
    operand: "Formula"


@_ast
class And(_Ast):
    left: "Formula"
    right: "Formula"


@_ast
class Or(_Ast):
    left: "Formula"
    right: "Formula"


@_ast
class Xor(_Ast):
    left: "Formula"
    right: "Formula"


@_ast
class Implies(_Ast):
    left: "Formula"
    right: "Formula"


@_ast
class Iff(_Ast):
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

# One group, one token per match, blanks and comments before it skipped:
# an operator, parenthesis or constant, a variable, a run of digits or
# one other character (both outside the syntax), or "" at the end.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|#[^\n]*)*("
    + "|".join(re.escape(op) for op in sorted(_OPERATORS, key=len,
                                               reverse=True))
    + r"|[()]|x\d+|\d+|.|\Z)", re.DOTALL)

# Variable token -> its `Var`, shared by every formula parsed.  Only
# accepted indices enter; it is emptied when it reaches the cap.
_VARS: dict[str, Var] = {}
_VARS_CAP = 4096


def _where(text: str, index: int) -> tuple[int, int]:
    """Line and column where token number `index` of `text` starts."""
    pos = next(itertools.islice(_TOKEN.finditer(text), index, None)).start(1)
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _variable(text: str, index: int, tok: str) -> Var:
    digits = tok[1:].lstrip("0")
    if not digits:
        raise RangeError("variable indices are 1-based; x0 is invalid")
    # A longer index cannot be below LEAF_VAR; int() would also reject
    # one past Python's int-string digit limit.
    if len(digits) > len(str(LEAF_VAR)) or int(digits) >= LEAF_VAR:
        shown = digits if len(digits) <= 20 else (
            f"{digits[:20]}... ({len(digits)} digits)")
        line, col = _where(text, index)
        raise RangeError(f"{line}:{col}: variable index {shown} "
                         f"out of range (must be below {LEAF_VAR})")
    if len(_VARS) >= _VARS_CAP:
        _VARS.clear()
    var = _VARS[tok] = Var(int(digits))
    return var


def parse(text: str) -> Formula:
    """Operator-precedence parse with explicit operand and operator
    stacks: prefix `!` and `(` wait on the operator stack, and an
    operator first reduces every stacked one that binds at least as
    tightly (strictly tighter, if it is right-associative); `)` reduces
    down to its `(`, and the end of the text everything.  Errors are
    reported at the first offending token in reading order."""
    tokens = _TOKEN.findall(text)
    out: list[Formula] = []
    ops: list[tuple] = [(None, -1, 0)]  # a bottom below every level
    depth = 0              # "(" on the operator stack
    operand = True         # an operand is expected next
    for index, tok in enumerate(tokens):
        if operand:
            leaf = _VARS.get(tok) or _CONSTS.get(tok)
            if leaf is None and tok[:1] == "x" and tok[1:]:
                leaf = _variable(text, index, tok)  # not yet cached
            if leaf is not None:
                out.append(leaf)
                operand = False
            elif tok == "(":
                ops.append(_OPEN)
                depth += 1
            elif tok == "!":
                ops.append(_OPERATORS[tok])
            else:
                break
            continue
        entry = _OPERATORS.get(tok)
        if entry is not None and tok != "!":  # reduce levels >= stop
            stop = entry[1] + entry[2]
        elif tok == ")" and depth:
            stop = 1
        elif depth or tok:
            break
        else:
            stop = 0
        while ops[-1][1] >= stop:
            cls = ops.pop()[0]
            if cls is Not:
                out[-1] = Not(out[-1])
            else:
                right = out.pop()
                out[-1] = cls(out[-1], right)
        if entry is not None:
            ops.append(entry)
            operand = True
        elif tok:
            ops.pop()
            depth -= 1
        else:
            return out[0]
    # token number `index`, `tok`, does not fit here
    if tok and tok not in _OPERATORS and tok not in ("(", ")") \
            and tok not in _CONSTS and not (tok[0] == "x" and tok[1:]):
        message = f"unexpected character {tok[0]!r}"
    elif operand:
        message = f"expected formula, got {tok or 'end of input'!r}"
    elif depth:
        message = f"expected ')', got {tok or 'end of input'!r}"
    else:
        message = f"trailing input {tok!r}"
    raise ParseError(message, *_where(text, index))


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


# Connectives that `compile` builds with `and`/`or`: the operation and
# whether the left operand is compiled negated.
_AND_OR = {And: ("and", False), Or: ("or", False), Implies: ("or", True)}


def compile(mgr: BddManager, f: Formula) -> int:
    """Bottom-up compilation to a canonical BDD reference.

    Each subformula is compiled under a negation flag, so a complement
    (a walk over a whole diagram, without complement edges) is built
    only where no connective can absorb it.  `!` flips the flag in a
    loop.  A constant or variable builds its complement directly.  `^`
    and `<->` pass the flag to their left operand, since not(a ^ b) is
    (!a ^ b) and (a <-> b) is (!a ^ b).  `&`, `|` and `->` (built as
    (!a | b)) take one `not` of their own result when the flag is set.
    Recurses once per binary connective.  Every id comes from `mgr`, so
    its unchecked steps are called directly."""
    steps = mgr.unchecked
    xor, not_, intern = steps["xor"], steps["not"], mgr.pool.intern

    def build(f: Formula, negated: bool) -> int:
        while type(f) is Not:
            f = f.operand
            negated = not negated
        kind = type(f)
        if kind is Var:
            i = f.index
            if not (1 <= i < LEAF_VAR):
                raise RangeError(f"variable index {i} out of range")
            return intern((i, TRUE, FALSE) if negated else (i, FALSE, TRUE))
        if kind is Const:
            return TRUE if bool(f.value) != negated else FALSE
        if kind is Xor or kind is Iff:
            return xor(build(f.left, negated != (kind is Iff)),
                       build(f.right, False))
        if kind not in _AND_OR:
            raise FormulaError(f"not a formula: {f!r}")
        op, left_negated = _AND_OR[kind]
        r = steps[op](build(f.left, left_negated), build(f.right, False))
        return not_(r) if negated else r

    return build(f, False)


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

# Largest generator sizes, far past what the engine decides: U(10000)
# builds in ~0.03 s and ~4 MB, P(20) in ~0.01 s and ~2 MB.
URQUHART_LIMIT = 10_000
PIGEONHOLE_LIMIT = 20


def urquhart(n: int) -> Formula:
    """Right-nested chain of 2n-1 iffs over x1..xn, x1..xn."""
    if not 1 <= n <= URQUHART_LIMIT:
        raise RangeError(f"urquhart size must be in 1..{URQUHART_LIMIT}")
    return _fold(Iff, [Var(v) for v in list(range(1, n + 1)) * 2])


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
    if not 1 <= n <= PIGEONHOLE_LIMIT:
        raise RangeError(f"pigeonhole size must be in 1..{PIGEONHOLE_LIMIT}")

    def p(i: int, j: int) -> Formula:
        return Var((i - 1) * n + j)

    placed = _fold(And, [_fold(Or, [p(i, j) for j in range(1, n + 1)])
                         for i in range(1, n + 2)])
    collide = _fold(Or, [And(p(i, j), p(k, j))
                         for j in range(1, n + 1)
                         for i in range(1, n + 2)
                         for k in range(i + 1, n + 2)])
    return Implies(placed, collide)
