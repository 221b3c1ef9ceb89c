"""The four seeded workloads of the maxshare benchmark.

A workload turns a seed into inputs (formula objects, formula texts or
lists of naturals), runs rounds of operations through the public library
functions that `maxshare.cli` calls, and checks the outputs against facts
computed apart from the engine: theorems, `eval_formula`,
`truth_table_equiv`, Python's `sorted` and `PlainNormalizer`.

Every round attempts the same operations, so the share of failed
operations is the same in every run.  Only the check round (the last one
of a run) reads counters and runs the costly checks; the checks always sit
outside the timers.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from time import perf_counter

PIGEONHOLE_SIZES = tuple(range(1, 9))
PIGEONHOLE_WEAKENED = (2, 3, 4, 5)  # n pigeons in n holes: not tautologies
# Sizes from ~250 up exhaust the default recursion limit inside
# `formula.compile`; the failing sizes sit hundreds of frames past that
# boundary and the passing ones ~160 frames below it, so the caller's own
# stack depth cannot move an operation from one side to the other.
URQUHART_SIZES = (25, 50, 75, 100, 125, 150, 175, 200)
URQUHART_FAILING = (400, 500, 600)
URQUHART_WEAKENED = (5, 12, 25)
EQUIV_PAIRS = 4000
EQUIV_VARS = 14
EQUIV_LIBRARY = 160
SORT_LISTS = 12
SORT_LENGTH = 10
SORT_BOUND = 16
PLAIN_LISTS = 2
PLAIN_LENGTH = 4
PLAIN_BOUND = 6


def _read(get):
    """Value of a counter, or None when the program no longer exposes it."""
    try:
        return get()
    except (AttributeError, KeyError, TypeError):
        return None


def manager_counters(lib, mgr) -> dict:
    """Counters of one BDD or lambda manager, read from its public state:
    `pool.stats()` and the `MemoTable` attributes.  A counter the program
    stops exposing reads None."""
    stats = _read(lambda: mgr.pool.stats())

    def pool_field(name):
        if isinstance(stats, dict):
            return stats.get(name)
        return _read(lambda: getattr(stats, name))

    table_type = getattr(lib.memo, "MemoTable", None)
    tables = [t for t in vars(mgr).values()
              if table_type is not None and isinstance(t, table_type)]

    def table_sum(get):
        if not tables:
            return None
        values = [_read(lambda: get(t)) for t in tables]
        return None if None in values else sum(values)

    return {
        "nodes": pool_field("node_count"),
        "intern_hits": pool_field("intern_hits"),
        "intern_misses": pool_field("intern_misses"),
        "memo_entries": table_sum(len),
        "memo_hits": table_sum(lambda t: t.hits),
        "memo_misses": table_sum(lambda t: t.misses),
        "body_evaluations": table_sum(lambda t: t.body_evaluations),
    }


def add_counters(total: dict, more: dict) -> None:
    """Sum `more` into `total`; a counter missing on either side stays None."""
    for key, value in more.items():
        if key not in total:
            total[key] = value
        elif total[key] is None or value is None:
            total[key] = None
        else:
            total[key] += value


class Round:
    """What one round of a workload did."""

    def __init__(self) -> None:
        self.op_seconds: list = []           # per operation; None if it failed
        self.failures: Counter = Counter()   # exception type -> count
        self.spans: Counter = Counter()      # span name -> seconds
        self.counters: dict = {}             # read in the check round only
        self.outputs: list = []              # must repeat in every round

    def failed(self, exc: Exception) -> None:
        self.op_seconds.append(None)
        self.failures[type(exc).__name__] += 1

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)

    @property
    def succeeded(self) -> int:
        return self.attempted - sum(self.failures.values())

    @property
    def seconds(self) -> float:
        """Summed time of the operations that succeeded."""
        return sum(t for t in self.op_seconds if t is not None)


class Workload:
    """Base: holds the library namespace and the problems found."""

    def __init__(self, lib) -> None:
        self.lib = lib
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    def run_round(self, profiler, check: bool) -> Round:
        raise NotImplementedError


# -- BDD helpers -------------------------------------------------------------

def path_to_leaf(lib, mgr, ref, leaf) -> dict[int, bool]:
    """Assignment along a path of diagram `ref` that ends at `leaf`.
    In a reduced diagram every decision node reaches both leaves, so the
    walk only has to avoid the other leaf."""
    other = lib.bdd.TRUE if leaf == lib.bdd.FALSE else lib.bdd.FALSE
    env: dict[int, bool] = {}
    cur = ref
    while not mgr.is_leaf(cur):
        node = mgr.node(cur)
        go_high = node.low == other
        env[node.var] = go_high
        cur = node.high if go_high else node.low
    return env


def _cofactors(mgr, x, v):
    """(low, high) cofactors of diagram `x` on variable `v`."""
    if mgr.head_var(x) != v:
        return x, x
    node = mgr.node(x)
    return node.low, node.high


def differing_path(mgr, a, b) -> dict[int, bool]:
    """Assignment on which canonical diagrams `a != b` reach different
    leaves.  Canonicity means that whenever two diagrams differ, so do
    their cofactors on one side, which the walk follows."""
    env: dict[int, bool] = {}
    while not (mgr.is_leaf(a) and mgr.is_leaf(b)):
        v = min(mgr.head_var(a), mgr.head_var(b))
        (a0, a1), (b0, b1) = _cofactors(mgr, a, v), _cofactors(mgr, b, v)
        env[v] = a0 == b0
        a, b = (a1, b1) if env[v] else (a0, b0)
    return env


def full_assignment(env: dict[int, bool], nvars: int) -> dict[int, bool]:
    return {i: env.get(i, False) for i in range(1, nvars + 1)}


def _fold(cls, parts):
    acc = parts[-1]
    for g in reversed(parts[:-1]):
        acc = cls(g, acc)
    return acc


def _children(fm, f):
    if isinstance(f, (fm.Var, fm.Const)):
        return ()
    if isinstance(f, fm.Not):
        return (f.operand,)
    return (f.left, f.right)


def rename(fm, f, mapping: dict[int, int]):
    """`f` with variable i renamed to mapping[i].  Iterative, because
    U(n) nests 2n-1 levels deep."""
    out = []
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if isinstance(g, fm.Var):
            out.append(fm.Var(mapping[g.index]))
        elif isinstance(g, fm.Const):
            out.append(g)
        elif not expanded:
            stack.append((g, True))
            stack.extend((k, False) for k in reversed(_children(fm, g)))
        elif isinstance(g, fm.Not):
            out.append(fm.Not(out.pop()))
        else:
            right = out.pop()
            out.append(type(g)(out.pop(), right))
    return out.pop()


# -- pigeonhole and urquhart -------------------------------------------------

class TautologySweep(Workload):
    """One tautology query per size, each in a fresh `BddManager`, as
    `maxshare bench` does.  Both families are tautologies by theorem."""

    def __init__(self, lib, formulas, weakened) -> None:
        super().__init__(lib)
        self.formulas = formulas    # [(label, formula)] in seeded order
        self.weakened = weakened    # [(label, formula)] known non-tautologies

    def run_round(self, profiler, check: bool) -> Round:
        fm, bdd = self.lib.formula, self.lib.bdd
        r = Round()
        for label, f in self.formulas:
            mgr = bdd.BddManager()
            gc.collect()
            try:
                with profiler:
                    t0 = perf_counter()
                    ref = fm.compile(mgr, f)
                    t1 = perf_counter()
                    verdict = mgr.is_tautology(ref)
                    t2 = perf_counter()
            except Exception as exc:  # a failed operation, counted by type
                r.failed(exc)
                continue
            r.op_seconds.append(t2 - t0)
            r.spans["formula.compile_s"] += t1 - t0
            r.outputs.append((label, verdict))
            self.expect(verdict is True, f"{label}: not reported a tautology")
            if check:
                add_counters(r.counters, manager_counters(self.lib, mgr))
                add_counters(r.counters, {
                    "result_nodes": _read(lambda: mgr.node_count(ref))})
                pool = mgr.pool
                del mgr  # drop the memo tables before the scan
                self.expect(not pool.scan_duplicates(),
                            f"{label}: pool holds duplicate nodes")
        if check:
            self.check_weakened()
        return r

    def check_weakened(self) -> None:
        """Each weakened formula must be reported as no tautology, with a
        falsifying assignment that `eval_formula` confirms."""
        fm, bdd = self.lib.formula, self.lib.bdd
        for label, f in self.weakened:
            mgr = bdd.BddManager()
            ref = fm.compile(mgr, f)
            if mgr.is_tautology(ref):
                self.expect(False, f"{label}: reported a tautology")
                continue
            env = full_assignment(path_to_leaf(self.lib, mgr, ref, bdd.FALSE),
                                  max(fm.variables(f)))
            self.expect(fm.eval_formula(f, env) is False,
                        f"{label}: assignment read off the diagram "
                        "does not falsify it")


def pigeons_in_holes(fm, pigeons: int, holes: int):
    """'Every pigeon in some hole implies two pigeons share a hole', with
    p(i, j) = x_{(i-1)*holes + j} as in `formula.pigeonhole`."""
    def p(i, j):
        return fm.Var((i - 1) * holes + j)

    holes_of = [[p(i, j) for j in range(1, holes + 1)]
                for i in range(1, pigeons + 1)]
    placed = _fold(fm.And, [_fold(fm.Or, row) for row in holes_of])
    collide = _fold(fm.Or, [fm.And(p(i, j), p(k, j))
                            for j in range(1, holes + 1)
                            for i in range(1, pigeons + 1)
                            for k in range(i + 1, pigeons + 1)])
    return fm.Implies(placed, collide)


def pigeonhole(lib, seed: int) -> TautologySweep:
    """P(1..8) in a seeded order.  The variable order is left alone: it
    decides the diagram sizes of P(n), which the workload is meant to fix."""
    fm = lib.formula
    sizes = list(PIGEONHOLE_SIZES)
    random.Random(seed).shuffle(sizes)
    formulas = [(f"P({n})", fm.pigeonhole(n)) for n in sizes]
    weakened = [(f"{n} pigeons in {n} holes", pigeons_in_holes(fm, n, n))
                for n in PIGEONHOLE_WEAKENED]
    return TautologySweep(lib, formulas, weakened)


def urquhart(lib, seed: int) -> TautologySweep:
    """U(n) under a seeded renaming of its variables, sizes in a seeded
    order.  A renaming keeps a tautology a tautology, and the parity
    diagrams U(n) builds have the same size under any variable order."""
    fm = lib.formula
    rng = random.Random(seed)
    sizes = list(URQUHART_SIZES + URQUHART_FAILING)
    rng.shuffle(sizes)

    def renamed(n):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        return rename(fm, fm.urquhart(n), dict(zip(range(1, n + 1), order)))

    formulas = [(f"U({n})", renamed(n)) for n in sizes]
    # x <-> U(n) is equivalent to x, so it is falsified by x = 0.
    weakened = [(f"x1 <-> U({n})", fm.Iff(fm.Var(1), renamed(n)))
                for n in URQUHART_WEAKENED]
    return TautologySweep(lib, formulas, weakened)


# -- equiv -------------------------------------------------------------------

_SYMBOLS = {"And": "&", "Or": "|", "Xor": "^", "Implies": "->", "Iff": "<->"}


def to_text(fm, f) -> str:
    """Fully parenthesised text in the syntax `formula.parse` reads."""
    if isinstance(f, fm.Var):
        return f"x{f.index}"
    if isinstance(f, fm.Not):
        return "!" + to_text(fm, f.operand)
    symbol = _SYMBOLS[type(f).__name__]
    return f"({to_text(fm, f.left)} {symbol} {to_text(fm, f.right)})"


def _preorder(fm, f) -> list:
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        out.append(g)
        stack.extend(reversed(_children(fm, g)))
    return out


def _rewritten(fm, rng, f, at: set[int], leaf: int | None):
    """`f` with a rewrite at each preorder node number in `at` and, unless
    `leaf` is None, another variable at that node number.  No rewrite
    copies or drops a leaf, so the change hits exactly one leaf."""
    count = -1

    def walk(g):
        nonlocal count
        count += 1
        here = count
        if here == leaf:
            return fm.Var(rng.choice([i for i in range(1, EQUIV_VARS + 1)
                                      if i != g.index]))
        kids = [walk(k) for k in _children(fm, g)]
        if kids:
            g = fm.Not(kids[0]) if isinstance(g, fm.Not) else type(g)(*kids)
        return rng.choice(_rewrites(fm, g))() if here in at else g

    return walk(f)


def _rewrites(fm, g):
    """Meaning-preserving local rewrites that apply at node `g`."""
    out = [lambda: fm.Not(fm.Not(g))]
    if isinstance(g, (fm.And, fm.Or, fm.Xor, fm.Iff)):
        out.append(lambda: type(g)(g.right, g.left))
    if isinstance(g, fm.And):
        out.append(lambda: fm.Not(fm.Or(fm.Not(g.left), fm.Not(g.right))))
    if isinstance(g, fm.Or):
        out.append(lambda: fm.Not(fm.And(fm.Not(g.left), fm.Not(g.right))))
    if isinstance(g, fm.Implies):
        out.append(lambda: fm.Or(fm.Not(g.left), g.right))
    if isinstance(g, fm.Not) and isinstance(g.operand, fm.Not):
        out.append(lambda: g.operand.operand)
    return out


class Equiv(Workload):
    """A stream of formula pairs, given as text, decided in one long-lived
    `BddManager` per round: equal iff both sides compile to one id."""

    BINARY = ("And", "Or", "Xor", "Implies", "Iff")

    def __init__(self, lib, seed: int) -> None:
        super().__init__(lib)
        fm = lib.formula
        rng = random.Random(seed)
        binary = [getattr(fm, name) for name in self.BINARY]

        def random_formula(depth):
            # Full binary shape: random sizes would let a few big formulas
            # decide how much work a seed makes.
            if depth == 0:
                return fm.Var(rng.randint(1, EQUIV_VARS))
            if rng.random() < 0.15:
                return fm.Not(random_formula(depth - 1))
            return rng.choice(binary)(random_formula(depth - 1),
                                      random_formula(depth - 1))

        # Pairs draw on a library of sub-formulas, so most sub-diagrams
        # and memo entries of a pair were made by earlier ones.
        library = [random_formula(2) for _ in range(EQUIV_LIBRARY)]
        self.pairs = []
        for _ in range(EQUIV_PAIRS):
            a = rng.choice(binary)(
                rng.choice(library),
                rng.choice(binary)(rng.choice(library), random_formula(2)))
            nodes = _preorder(fm, a)
            at = {rng.randrange(len(nodes)) for _ in range(rng.randint(1, 3))}
            mutated = rng.random() < 0.5
            leaf = rng.choice([i for i, g in enumerate(nodes)
                               if isinstance(g, fm.Var)]) if mutated else None
            b = _rewritten(fm, rng, a, at, leaf)
            self.pairs.append((to_text(fm, a), to_text(fm, b), a, b, mutated))

    def run_round(self, profiler, check: bool) -> Round:
        fm, bdd = self.lib.formula, self.lib.bdd
        r = Round()
        mgr = bdd.BddManager()
        gc.collect()
        result_nodes = 0
        for text_a, text_b, a, b, mutated in self.pairs:
            try:
                with profiler:
                    t0 = perf_counter()
                    fa, fb = fm.parse(text_a), fm.parse(text_b)
                    t1 = perf_counter()
                    ra, rb = fm.compile(mgr, fa), fm.compile(mgr, fb)
                    t2 = perf_counter()
            except Exception as exc:  # a failed operation, counted by type
                r.failed(exc)
                continue
            r.op_seconds.append(t2 - t0)
            r.spans["formula.parse_s"] += t1 - t0
            r.spans["formula.compile_s"] += t2 - t1
            equal = ra == rb
            r.outputs.append(equal)
            self.expect(mutated or equal,
                        f"rewrite pair judged different: {text_a} / {text_b}")
            if check:
                result_nodes += mgr.node_count(ra) + mgr.node_count(rb)
                self.check_pair(mgr, ra, rb, a, b, mutated)
        if check:
            r.counters = manager_counters(self.lib, mgr)
            r.counters["result_nodes"] = result_nodes
            pool = mgr.pool
            del mgr
            self.expect(not pool.scan_duplicates(),
                        "pool holds duplicate nodes")
        return r

    def check_pair(self, mgr, ra, rb, a, b, mutated) -> None:
        """A 'different' verdict needs an assignment on which the generated
        formulas disagree; an 'equal' verdict on a mutated pair needs the
        truth table."""
        fm = self.lib.formula
        if ra != rb:
            env = full_assignment(differing_path(mgr, ra, rb), EQUIV_VARS)
            self.expect(fm.eval_formula(a, env) != fm.eval_formula(b, env),
                        "different verdict without a telling assignment")
        elif mutated:
            # Number the variables that occur 1..k so the table has 2^k rows.
            used = sorted(fm.variables(a) | fm.variables(b))
            dense = dict(zip(used, range(1, len(used) + 1)))
            self.expect(fm.truth_table_equiv(rename(fm, a, dense),
                                             rename(fm, b, dense), len(used)),
                        "equal verdict refuted by the truth table")


# -- lambda-sort -------------------------------------------------------------

def pivot_balanced(values: list[int]) -> list[int]:
    """Sorted distinct `values` reordered so that quicksort, which takes
    the first element as pivot and keeps the order of the rest, splits
    every sublist in half: the preorder of a balanced search tree."""
    if not values:
        return []
    mid = len(values) // 2
    return ([values[mid]] + pivot_balanced(values[:mid])
            + pivot_balanced(values[mid + 1:]))


class LambdaSort(Workload):
    """Church-list quicksort of seeded lists plus [9..0], each list in a
    fresh `LambdaManager` under `run_deep`, as `maxshare lambda-sort` does."""

    def __init__(self, lib, seed: int) -> None:
        super().__init__(lib)
        rng = random.Random(seed)
        # The order of a list fixes the shape of quicksort's recursion and
        # with it most of the work (random orders spread it by ~30% per
        # list), so the seed picks the values and the order is fixed:
        # balanced lists, plus [9..0], where every pivot is the maximum.
        self.lists = [pivot_balanced(sorted(rng.sample(range(SORT_BOUND),
                                                       SORT_LENGTH)))
                      for _ in range(SORT_LISTS)]
        self.lists.append(list(range(9, -1, -1)))
        # Short lists the unshared normalizer can handle in well under a
        # second; their terms are built here, as part of set-up.
        lam = lib.lam
        self.plain_mgr = lam.LambdaManager()
        qs = lam.quicksort_term(self.plain_mgr)
        self.plain_terms = []
        for _ in range(PLAIN_LISTS):
            values = [rng.randrange(PLAIN_BOUND) for _ in range(PLAIN_LENGTH)]
            term = self.plain_mgr.mk_app(qs, lam.church_list(self.plain_mgr,
                                                             values))
            self.plain_terms.append((values, term))

    def run_round(self, profiler, check: bool) -> Round:
        lam = self.lib.lam
        r = Round()
        for values in self.lists:
            mgr = lam.LambdaManager()

            def sort():
                with profiler:  # enabled on the worker thread run_deep starts
                    t0 = perf_counter()
                    term = mgr.mk_app(lam.quicksort_term(mgr),
                                      lam.church_list(mgr, values))
                    t1 = perf_counter()
                    out = mgr.nf(term)
                    t2 = perf_counter()
                    decoded = lam.decode_list(mgr, out)
                return decoded, t1 - t0, t2 - t1

            gc.collect()
            try:
                t0 = perf_counter()
                decoded, build_s, nf_s = lam.run_deep(sort)
                t1 = perf_counter()
            except Exception as exc:  # a failed operation, counted by type
                r.failed(exc)
                continue
            r.op_seconds.append(t1 - t0)
            r.spans["lam.build_s"] += build_s
            r.spans["lam.nf_s"] += nf_s
            r.outputs.append(decoded)
            self.expect(decoded == sorted(values),
                        f"sort of {values} gave {decoded}")
            if check:
                add_counters(r.counters, manager_counters(self.lib, mgr))
                add_counters(r.counters, {
                    "beta_steps": _read(lambda: mgr.reduction_steps),
                    "subst_entries": _read(lambda: len(mgr.m_subst)),
                    "lifti_entries": _read(lambda: len(mgr.m_lifti)),
                })
                pool = mgr.pool
                del mgr, sort
                gc.collect()  # the manager's fixers hold a cycle
                self.expect(not pool.scan_duplicates(),
                            f"sort of {values}: pool holds duplicate nodes")
        if check:
            self.check_plain()
        return r

    def check_plain(self) -> None:
        """The unshared normalizer's normal form, re-encoded into the pool,
        must be the pooled normal form itself."""
        lam = self.lib.lam
        mgr = self.plain_mgr

        def both(term):
            plain = lam.PlainNormalizer().nf(lam.to_plain(mgr, term))
            return lam.from_plain(mgr, plain), mgr.nf(term)

        for values, term in self.plain_terms:
            from_plain, pooled = lam.run_deep(both, term)
            self.expect(from_plain == pooled,
                        f"plain and pooled normal forms of {values} differ")
            self.expect(lam.decode_list(mgr, pooled) == sorted(values),
                        f"pooled sort of {values} is wrong")
        self.expect(not mgr.pool.scan_duplicates(),
                    "plain-check pool holds duplicate nodes")


WORKLOADS = {
    "pigeonhole": pigeonhole,
    "urquhart": urquhart,
    "equiv": Equiv,
    "lambda-sort": LambdaSort,
}
