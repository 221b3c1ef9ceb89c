import random

import hypothesis.strategies as st
import pytest

from maxshare.formula import (
    And, Const, Formula, Iff, Implies, Not, Or, Var, Xor,
)
from maxshare.memo import MemoTable

pytest.register_assert_rewrite("invariants")


class BudgetTable(MemoTable):
    """A memo table whose store raises MemoryError once it holds
    `budget` entries, as an allocation failure would."""

    budget = None

    def setdefault(self, key, value):
        if self.budget is not None and len(self) >= self.budget:
            raise MemoryError
        return super().setdefault(key, value)

_BINARY = (And, Or, Xor, Implies, Iff)


def random_formula(rng: random.Random, nvars: int, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.1:
            return Const(rng.random() < 0.5)
        return Var(rng.randint(1, nvars))
    shape = rng.randint(0, 5)
    if shape == 0:
        return Not(random_formula(rng, nvars, depth - 1))
    cls = _BINARY[shape - 1]
    return cls(random_formula(rng, nvars, depth - 1),
               random_formula(rng, nvars, depth - 1))


def equivalent_variant(rng: random.Random, f: Formula) -> Formula:
    """A structurally different formula with the same truth table,
    built by stacking a few semantics-preserving rewrites."""
    for _ in range(rng.randint(1, 3)):
        choice = rng.randint(0, 3)
        if choice == 0:
            f = Not(Not(f))
        elif choice == 1:
            f = And(f, f)
        elif choice == 2:
            f = Or(f, Const(False))
        else:
            f = Iff(f, Const(True))
    return f


def formulas(max_vars: int = 4, max_leaves: int = 12):
    leaf = st.one_of(
        st.builds(Const, st.booleans()),
        st.builds(Var, st.integers(min_value=1, max_value=max_vars)),
    )
    return st.recursive(
        leaf,
        lambda child: st.one_of(
            st.builds(Not, child),
            st.builds(And, child, child),
            st.builds(Or, child, child),
            st.builds(Xor, child, child),
            st.builds(Implies, child, child),
            st.builds(Iff, child, child),
        ),
        max_leaves=max_leaves,
    )


def nested_not(count: int, f: Formula) -> Formula:
    for _ in range(count):
        f = Not(f)
    return f


def literals(max_vars: int = 4):
    """A constant or variable under 0 to 3 `!`."""
    leaf = st.one_of(
        st.builds(Const, st.booleans()),
        st.builds(Var, st.integers(min_value=1, max_value=max_vars)),
    )
    return st.builds(nested_not, st.integers(min_value=0, max_value=3), leaf)


def spines(max_vars: int = 4, depth: int = 1, max_operands: int = 12):
    """A chain of 2 to `max_operands` operands joined by `^` and `<->`,
    nested to the right or to the left, under 0 to 2 `!`.  Most operands
    are literals; some are small formulas of any shape (`!(a & b)`,
    another `^`), and up to `depth` levels of spines of up to 6 operands
    nest inside an operand."""
    literal = literals(max_vars)
    parts = [literal] * 4 + [formulas(max_vars, max_leaves=3)]
    if depth:
        parts.append(spines(max_vars, depth - 1, 6))
    return _chain(st.one_of(parts), max_operands)


@st.composite
def _chain(draw, operand, max_operands):
    ops = draw(st.lists(operand, min_size=2, max_size=max_operands))
    joins = draw(st.lists(st.sampled_from([Xor, Iff]),
                          min_size=len(ops) - 1, max_size=len(ops) - 1))
    if draw(st.booleans()):  # right-nested, as `<->` parses
        f = ops[-1]
        for cls, g in zip(reversed(joins), reversed(ops[:-1])):
            f = cls(g, f)
    else:                    # left-nested, as `^` parses
        f = ops[0]
        for cls, g in zip(joins, ops[1:]):
            f = cls(f, g)
    return nested_not(draw(st.integers(min_value=0, max_value=2)), f)
