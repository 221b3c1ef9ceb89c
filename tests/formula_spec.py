"""Reference versions of `formula.parse` and `formula.compile`, kept as
the specification the library's tuned versions are tested against.

`parse` is the scanner that takes one `re.Match` per token and tells the
kinds apart by group; `compile` builds through the manager's public,
checking `mk_node`, `apply2` and `mk_not`.  Both produce the library's
AST classes and exceptions, so results and errors compare directly.
"""

import re

from maxshare.bdd import FALSE, LEAF_VAR, TRUE, BddManager
from maxshare.formula import (And, Const, Formula, FormulaError, Iff,
                              Implies, Not, Or, ParseError, RangeError, Var,
                              Xor)

# symbol: (AST class, binding level, right-associative); a higher level
# binds tighter.
_OPERATORS = {
    "<->": (Iff, 1, True),
    "->": (Implies, 2, True),
    "|": (Or, 3, False),
    "^": (Xor, 4, False),
    "&": (And, 5, False),
    "!": (Not, 6, True),
}
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


# Connectives that `compile` builds with `and`/`or`: the operation and
# whether the left operand is compiled negated.
_AND_OR = {And: ("and", False), Or: ("or", False), Implies: ("or", True)}
_XORS = (Xor, Iff)


def _literal(f: Formula) -> bool:
    while type(f) is Not:
        f = f.operand
    return type(f) in (Var, Const)


def _literal_spine(f: Formula, negated: bool):
    """The operands, each with its negation flag, in reading order, of
    the spine that `f` heads, when there are at least 4 and every one is
    a literal; otherwise None.  A `^`/`<->` node heads the chain down its
    right operands if the right one is a `^`/`<->`, else down its left
    ones if the left one is.  Each node's flag goes to its left operand,
    flipped if the node is `<->`; the other operand gets False."""
    if type(f.right) in _XORS:
        ops = []
        while type(f) in _XORS:
            ops.append((f.left, negated != (type(f) is Iff)))
            f, negated = f.right, False
        ops.append((f, False))
    elif type(f.left) in _XORS:
        ops = []
        while type(f) in _XORS:
            ops.append((f.right, False))
            f, negated = f.left, negated != (type(f) is Iff)
        ops.append((f, negated))
        ops.reverse()
    else:
        return None
    if len(ops) < 4 or not all(_literal(g) for g, _ in ops):
        return None
    return ops


def compile(mgr: BddManager, f: Formula) -> int:
    """Bottom-up compilation to a canonical BDD reference.

    Each subformula is compiled under a negation flag, so a complement
    (a walk over a whole diagram, without complement edges) is built
    only where no connective can absorb it.  `!` flips the flag in a
    loop.  A constant or variable builds its complement directly.  `^`
    and `<->` pass the flag to their left operand, since not(a ^ b) is
    (!a ^ b) and (a <-> b) is (!a ^ b).  `&`, `|` and `->` (built as
    (!a | b)) take one `mk_not` of their own result when the flag is
    set.  A spine of at least 4 literal operands (`_literal_spine`) is
    built operand by operand, left to right, and then xored as a
    balanced tree: each level pairs neighbours from the deep end of the
    chain (the right end of a right-nested one, the left end of a
    left-nested one), the deep-end pair first, and an odd operand out
    at the far end waits for the next level.  Recurses once per binary
    connective otherwise."""
    mk_node, apply2, mk_not = mgr.mk_node, mgr.apply2, mgr.mk_not

    def build(f: Formula, negated: bool) -> int:
        while type(f) is Not:
            f = f.operand
            negated = not negated
        kind = type(f)
        if kind is Var:
            if not (1 <= f.index < LEAF_VAR):
                raise RangeError(f"variable index {f.index} out of range")
            if negated:
                return mk_node(TRUE, f.index, FALSE)
            return mk_node(FALSE, f.index, TRUE)
        if kind is Const:
            return TRUE if bool(f.value) != negated else FALSE
        if kind is Xor or kind is Iff:
            ops = _literal_spine(f, negated)
            if ops is not None:
                ids = [build(g, flag) for g, flag in ops]
                return balanced(ids if type(f.right) in _XORS else ids[::-1])
            return apply2("xor", build(f.left, negated != (kind is Iff)),
                          build(f.right, False))
        if kind not in _AND_OR:
            raise FormulaError(f"not a formula: {f!r}")
        op, left_negated = _AND_OR[kind]
        r = apply2(op, build(f.left, left_negated), build(f.right, False))
        return mk_not(r) if negated else r

    def balanced(ids: list[int]) -> int:
        """Xor of `ids`, deep end last, paired level by level."""
        while len(ids) > 1:
            level = []
            while len(ids) > 1:
                b, a = ids.pop(), ids.pop()
                level.append(apply2("xor", a, b))
            ids = ids + level[::-1]
        return ids[0]

    return build(f, False)
