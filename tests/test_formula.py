import copy
import dataclasses
import gc
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import formula_spec
from conftest import (equivalent_variant, formulas, nested_not,
                      random_formula, spines)
from maxshare import formula
from maxshare.bdd import (
    FALSE, LEAF_VAR, TRUE, BddManager, UnboundVariableError,
)
from maxshare.formula import (
    And,
    Const,
    FormulaError,
    Iff,
    Implies,
    Not,
    OracleLimitError,
    Or,
    ParseError,
    RangeError,
    Var,
    Xor,
    compile,
    equiv_counterexample,
    eval_formula,
    parse,
    pigeonhole,
    print_formula,
    truth_table_equiv,
    urquhart,
    variables,
)


def all_envs(nvars):
    for bits in itertools.product((False, True), repeat=nvars):
        yield {i + 1: bits[i] for i in range(nvars)}


# -- parsing ---------------------------------------------------------------

def test_parse_and_not():
    assert parse("x1 & !x1") == And(Var(1), Not(Var(1)))


def test_parse_iff_right_assoc():
    expected = Iff(Var(1), Iff(Var(2), Var(1)))
    assert parse("x1 <-> (x2 <-> x1)") == expected
    assert parse("x1 <-> x2 <-> x1") == expected


def test_parse_x0_is_range_error():
    with pytest.raises(RangeError):
        parse("x0")
    with pytest.raises(RangeError):
        parse("x000")


def test_variable_index_at_leaf_var_is_range_error():
    with pytest.raises(RangeError):
        parse(f"x{LEAF_VAR}")
    with pytest.raises(RangeError):
        compile(BddManager(), Var(LEAF_VAR))
    assert parse(f"x{LEAF_VAR - 1}") == Var(LEAF_VAR - 1)
    # leading zeros do not count; an index past Python's int-string
    # digit limit (4,300 digits) is a range error too, not a ValueError
    assert parse(f"x000{LEAF_VAR - 1}") == Var(LEAF_VAR - 1)
    assert parse("x0001") == Var(1)
    with pytest.raises(RangeError):
        parse("x" + "9" * 5000)


def test_parse_precedence():
    assert parse("x1 | x2 & x3") == Or(Var(1), And(Var(2), Var(3)))
    assert parse("x1 ^ x2 | x3") == Or(Xor(Var(1), Var(2)), Var(3))
    assert parse("x1 -> x2 -> x3") == Implies(Var(1), Implies(Var(2), Var(3)))
    assert parse("!x1 & 0 | 1") == Or(And(Not(Var(1)), Const(False)),
                                      Const(True))


def test_parse_comments_and_syntax_errors():
    assert parse("# a comment\nx1 & x2  # trailing") == And(Var(1), Var(2))
    with pytest.raises(ParseError) as exc:
        parse("x1 &\n& x2")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse("x1 x2")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):  # a digit int() cannot read
        parse("x\u00b2")


@pytest.mark.parametrize("text, line, column, message", [
    ("x1 &\n& x2", 2, 1, "expected formula, got '&'"),
    ("(x1 |\n  x2 x3)", 2, 6, "expected ')', got 'x3'"),
    ("x1 (x2)", 1, 4, "trailing input '('"),
    # end of input is located after the trailing comment
    ("(x1 & x2  # open", 1, 17, "expected ')', got 'end of input'"),
    ("x1 ->\n# no operand", 2, 13, "expected formula, got 'end of input'"),
    # the first error in reading order wins, a bad character after it
    # included
    ("x1 x2 $", 1, 4, "trailing input 'x2'"),
    ("x1 &\n\t$ x2 x3", 2, 2, "unexpected character '$'"),
])
def test_parse_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"{line}:{column}: {message}"


@pytest.mark.parametrize("text, line, column, message", [
    # a character outside the syntax where an operator is expected
    ("(x1\n  $)", 2, 3, "unexpected character '$'"),
    ("x1 01", 1, 4, "unexpected character '0'"),
    # a constant after an operand inside parentheses
    ("(x1 1)", 1, 5, "expected ')', got '1'"),
    ("()", 1, 2, "expected formula, got ')'"),
    ("x1 !x2", 1, 4, "trailing input '!'"),
])
def test_parse_error_positions_of_the_other_branches(text, line, column,
                                                      message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"{line}:{column}: {message}"


def test_parse_range_error_position():
    with pytest.raises(RangeError) as exc:
        parse("x1 &\n  x4294967296")
    assert str(exc.value) == (f"2:3: variable index {LEAF_VAR} out of "
                              f"range (must be below {LEAF_VAR})")


# Token soups: every kind of token, variables with leading zeros and with
# 5,000 digits, blanks, comments and characters outside the syntax.
_SOUP = st.one_of(
    st.sampled_from(["!", "&", "|", "^", "->", "<->", "(", ")", "0", "1",
                     " ", "\t", "\r", "\n", "# note\n", "#", "$",
                     "\u00b2", "\u0661", "-", "<", "x", "y", "7",
                     "x" + "9" * 5000, "x" + "0" * 5000 + "1"]),
    st.builds(lambda zeros, index: "x" + "0" * zeros + str(index),
              st.integers(0, 3), st.integers(0, 2 * LEAF_VAR)),
)


def _outcome(parse_fn, text):
    """The AST, or the exception's class, message and position."""
    try:
        return parse_fn(text)
    except (ParseError, RangeError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_SOUP, max_size=30).map("".join),
                 formulas(max_vars=12).map(print_formula)))
def test_parse_conforms_to_the_spec(text):
    # the spec is the one-match-per-token scanner `parse` replaced
    assert _outcome(parse, text) == _outcome(formula_spec.parse, text)


def test_parse_shares_variable_leaves():
    f = parse("x3 & x3")
    assert f.left is f.right
    assert parse("x3") is f.left


def test_variable_cache_is_bounded():
    cap = formula._VARS_CAP
    text = " & ".join(f"x{i}" for i in range(1, cap + 100))
    assert variables(parse(text)) == set(range(1, cap + 100))
    assert len(formula._VARS) <= cap
    assert parse("x5 | x5") == Or(Var(5), Var(5))


def test_variable_cache_holds_only_accepted_indices():
    for token in ("x0", "x000", f"x{LEAF_VAR}", "x" + "9" * 5000):
        with pytest.raises(RangeError):
            parse(f"x1 & {token}")
        assert token not in formula._VARS
    assert formula._VARS["x1"] == Var(1)


def _implies_chain(operands):
    acc = operands[-1]
    for g in reversed(operands[:-1]):
        acc = Implies(g, acc)
    return acc


def test_parse_has_no_nesting_limit():
    # 100,000 levels at the default recursion limit
    assert parse("!" * 100_000 + "x1") == nested_not(100_000, Var(1))
    f = parse("(" * 100_000 + "x1 | !x1" + ")" * 100_000)
    assert f == Or(Var(1), Not(Var(1)))
    f = parse(" -> ".join(["x2"] * 50_000))
    assert f == _implies_chain([Var(2)] * 50_000)


def test_print_and_eval_have_no_nesting_limit():
    # at the default recursion limit, on what parse reads
    text = "!" * 100_000 + "x1"
    f = parse(text)
    assert print_formula(f) == text
    assert eval_formula(f, {1: True}) is True
    assert eval_formula(parse("!" + text), {1: True}) is False
    text = " -> ".join(f"x{i}" for i in range(1, 50_001))
    f = parse(text)
    assert print_formula(f) == text
    env = dict.fromkeys(range(1, 50_001), True)
    assert eval_formula(f, env) is True
    env[50_000] = False
    assert eval_formula(f, env) is False
    env[1] = False
    assert eval_formula(f, env) is True


@pytest.mark.parametrize("build", [
    lambda v: nested_not(100_000, Var(v)),
    lambda v: _implies_chain([Var(i) for i in range(v, v + 50_000)]),
], ids=["100000-nots", "50000-implies"])
def test_eq_hash_repr_have_no_nesting_limit(build):
    # two separately built copies, so == cannot stop at identity
    f, g, h = build(1), build(1), build(2)
    assert f == g and f is not g
    assert f != h and not f == h
    assert hash(f) == hash(g)
    assert hash(f) != hash(h)
    assert len({f, g, h}) == 2
    text = repr(f)
    assert text == repr(g)
    if isinstance(f, Not):
        assert text == "Not(operand=" * 100_000 + "Var(index=1)" + ")" * 100_000
    else:
        assert text.startswith("Implies(left=Var(index=1), right=Implies(")
        assert text.endswith("right=Var(index=50000)" + ")" * 49_999)


# Each AST class as a plain frozen dataclass of the same name and fields,
# with the generated ==, hash and repr.
_PLAIN = {cls: dataclasses.make_dataclass(cls.__name__, cls.__match_args__,
                                          frozen=True)
          for cls in (Const, Var, Not, And, Or, Xor, Implies, Iff)}


def _plain(f):
    """`f` rebuilt from the plain dataclasses (recursive; small `f`)."""
    return _PLAIN[type(f)](*(
        _plain(v) if type(v) in _PLAIN else v
        for v in (getattr(f, name) for name in f.__match_args__)))


@settings(max_examples=300, deadline=None)
@given(formulas(max_vars=2, max_leaves=4), formulas(max_vars=2, max_leaves=4))
def test_eq_and_repr_match_the_generated_ones(f, g):
    # small formulas over two variables, so equal pairs are frequent
    assert repr(f) == repr(_plain(f))
    assert (f == g) == (_plain(f) == _plain(g))
    assert (f != g) == (_plain(f) != _plain(g))
    copy = parse(print_formula(f))
    assert copy == f and hash(copy) == hash(f)
    if f == g:
        assert hash(f) == hash(g)


def test_eq_compares_classes_and_field_values():
    assert Const(True) == Const(1) and hash(Const(True)) == hash(Const(1))
    assert And(Var(1), Var(2)) != Or(Var(1), Var(2))
    assert Not(Var(1)) != Var(1)
    assert Var(1) != 1 and Var(1).__eq__(1) is NotImplemented


# One formula that uses every AST class.
_EVERY_CLASS = Iff(Implies(And(Var(1), Const(True)),
                           Or(Not(Var(2)), Xor(Var(3), Const(False)))),
                   Var(1))


def test_nodes_are_slotted_and_immutable():
    fields = {Const: ("value",), Var: ("index",), Not: ("operand",)}
    for cls in (Const, Var, Not, And, Or, Xor, Implies, Iff):
        assert cls.__match_args__ == fields.get(cls, ("left", "right"))
    stack = [_EVERY_CLASS]
    while stack:
        g = stack.pop()
        assert not hasattr(g, "__dict__")
        for name in g.__match_args__ + ("other",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, Var(9))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(g, name)
        stack += [getattr(g, name) for name in g.__match_args__
                  if isinstance(getattr(g, name), formula._Ast)]
    assert repr(_EVERY_CLASS) == repr(_plain(_EVERY_CLASS))


@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
def test_nodes_survive_copy_and_pickle(round_trip):
    f = round_trip(_EVERY_CLASS)
    assert type(f) is Iff and f == _EVERY_CLASS
    assert hash(f) == hash(_EVERY_CLASS)
    assert repr(f) == repr(_EVERY_CLASS)


def test_print_parse_round_trip_pigeonhole():
    text = print_formula(pigeonhole(6))
    assert text.count("(") > 100
    assert parse(text) == pigeonhole(6)


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_print_parse_round_trip(f):
    assert parse(print_formula(f)) == f


# -- evaluation ------------------------------------------------------------

def test_eval_iff_with_itself():
    assert eval_formula(Iff(Var(1), Var(1)), {1: False}) is True


def test_eval_vacuous_implication():
    assert eval_formula(Implies(Const(False), Var(1)), {1: False}) is True
    assert eval_formula(Implies(Const(False), Var(1)), {1: True}) is True


def test_eval_unbound():
    with pytest.raises(UnboundVariableError):
        eval_formula(Var(3), {1: True})


def test_eval_agrees_with_compiled_bdd():
    rng = random.Random(10)
    mgr = BddManager()
    for _ in range(1000):
        f = random_formula(rng, 5, 4)
        r = compile(mgr, f)
        for env in all_envs(5):
            assert eval_formula(f, env) == mgr.eval(r, env)


# -- compilation -----------------------------------------------------------

def test_compile_var_base_case():
    mgr = BddManager()
    r = compile(mgr, Var(1))
    n = mgr.node(r)
    assert (n.low, n.var, n.high) == (FALSE, 1, TRUE)


def test_compile_negated_var():
    mgr = BddManager()
    r = compile(mgr, Not(Var(2)))
    n = mgr.node(r)
    assert (n.low, n.var, n.high) == (TRUE, 2, FALSE)


@pytest.mark.parametrize("memo", [True, False])
@settings(max_examples=150, deadline=None)
@given(f=formulas(max_vars=4), extra=st.integers(min_value=0, max_value=3))
def test_compile_pushes_negation(memo, f, extra):
    # every connective under nested negations: compiling !f is the
    # complement of compiling f, and both agree with the oracle
    mgr = BddManager(memo_enabled=memo)
    f = nested_not(extra, f)
    r = compile(mgr, f)
    rn = compile(mgr, Not(f))
    assert rn == mgr.mk_not(r)
    for env in all_envs(4):
        assert mgr.eval(r, env) is eval_formula(f, env)
        assert mgr.eval(rn, env) is not eval_formula(f, env)


def _tables(mgr):
    return {name: (dict(t), t.hits, t.misses, t.body_evaluations)
            for name, t in (("and", mgr.m_and), ("or", mgr.m_or),
                            ("xor", mgr.m_xor), ("not", mgr.m_not))}


# Chains whose last node heads a literal chain nested the other way, so
# that node decides afresh which chain it heads.
_TURNS = [
    Iff(Var(1), Iff(Var(2), Iff(Xor(Xor(Xor(Var(3), Var(4)), Var(5)),
                                    Var(1)), Var(2)))),
    Xor(Xor(Xor(Var(1), Iff(Var(2), Iff(Var(3), Iff(Var(4), Var(5))))),
            Var(2)), Var(3)),
]


@pytest.mark.parametrize("memo", [True, False])
@settings(max_examples=150, deadline=None)
@given(fs=st.lists(st.one_of(formulas(max_vars=5), spines(max_vars=5)),
                   min_size=1, max_size=6))
@example(fs=_TURNS)
def test_compile_conforms_to_the_spec(memo, fs):
    # the spec builds through the checking mk_node/apply2/mk_not; the
    # same formulas into one fresh manager each give the same ids, the
    # same pool and the same entries and counters in every table, and
    # each result has the formula's truth table.  `spines` makes the
    # ^/<-> chains that compile xors as balanced trees
    mgr, spec = BddManager(memo_enabled=memo), BddManager(memo_enabled=memo)
    results = [compile(mgr, f) for f in fs]
    assert results == [formula_spec.compile(spec, f) for f in fs]
    assert mgr.pool.back == spec.pool.back
    assert mgr.stats() == spec.stats()
    assert _tables(mgr) == _tables(spec)
    for f, r in zip(fs, results):
        for env in all_envs(5):
            assert mgr.eval(r, env) is eval_formula(f, env)


@pytest.mark.parametrize("f, error", [
    (Var(0), RangeError), (Not(Var(LEAF_VAR)), RangeError),
    (And(Var(1), Var(-3)), RangeError), ("x1", FormulaError),
    (Or(Var(1), None), FormulaError), (Not(3), FormulaError),
])
def test_compile_rejects_what_the_spec_rejects(f, error):
    for compile_fn in (compile, formula_spec.compile):
        with pytest.raises(error):
            compile_fn(BddManager(), f)


def test_compile_leaves_no_cyclic_garbage():
    # `compile`'s recursive `build` refers to itself; the cycle must be
    # broken on return, not left to the cyclic GC
    mgr, f = BddManager(), Xor(urquhart(3), _EVERY_CLASS)
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            compile(mgr, f)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_equivalent_formulas_compile_to_same_id():
    rng = random.Random(11)
    mgr = BddManager()
    for _ in range(100):
        f = random_formula(rng, 5, 4)
        g = equivalent_variant(rng, f)
        assert truth_table_equiv(f, g, 5)
        assert compile(mgr, f) == compile(mgr, g)


# -- truth-table oracle ----------------------------------------------------

def test_equiv_reflexive_and_double_negation():
    f = And(Var(1), Or(Var(2), Not(Var(1))))
    assert truth_table_equiv(f, f, 2)
    assert truth_table_equiv(Var(1), Not(Not(Var(1))), 1)


def test_equiv_counterexample_witness():
    assert not truth_table_equiv(And(Var(1), Var(2)), Or(Var(1), Var(2)), 2)
    witness = equiv_counterexample(And(Var(1), Var(2)),
                                   Or(Var(1), Var(2)), 2)
    assert witness is not None
    assert eval_formula(And(Var(1), Var(2)), witness) != \
        eval_formula(Or(Var(1), Var(2)), witness)


def test_oracle_limit():
    with pytest.raises(OracleLimitError):
        truth_table_equiv(Var(1), Var(1), 25)


def test_oracle_engine_agreement():
    rng = random.Random(12)
    mgr = BddManager()
    for _ in range(300):
        f = random_formula(rng, 8, 3)
        g = random_formula(rng, 8, 3)
        assert truth_table_equiv(f, g, 8) == \
            (compile(mgr, f) == compile(mgr, g))


# -- benchmark families ----------------------------------------------------

def test_urquhart_small_instances():
    assert urquhart(1) == Iff(Var(1), Var(1))
    assert urquhart(2) == Iff(Var(1), Iff(Var(2), Iff(Var(1), Var(2))))
    with pytest.raises(RangeError):
        urquhart(0)


def test_urquhart_taut_by_oracle():
    for n in range(1, 11):
        u = urquhart(n)
        assert truth_table_equiv(u, Const(True), n)


def test_pigeonhole_smallest_instance():
    assert pigeonhole(1) == Implies(And(Var(1), Var(2)),
                                    And(Var(1), Var(2)))
    with pytest.raises(RangeError):
        pigeonhole(0)


def test_pigeonhole_variable_count():
    for n in range(1, 6):
        assert variables(pigeonhole(n)) == set(range(1, n * (n + 1) + 1))


def test_pigeonhole_taut():
    # truth-table oracle up to 12 variables, BDD engine above
    for n in (1, 2, 3):
        assert truth_table_equiv(pigeonhole(n), Const(True), n * (n + 1))
    for n in (4, 5, 6):
        mgr = BddManager()
        assert mgr.is_tautology(compile(mgr, pigeonhole(n)))
