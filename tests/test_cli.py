import errno
import gc
import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from maxshare import cli
from maxshare import formula as fm
from maxshare import lam
from maxshare.bdd import BddManager
from maxshare.cli import main
from maxshare.intern import Pool
from maxshare.memo import MemoContractError, MemoTable


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_taut_urquhart_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "taut", "--urquhart", "8")
    assert code == 0
    report = json.loads(out)
    assert report["result"] is True
    assert report["schema"] == 1


def test_taut_contingent_file(tmp_path, capsys):
    path = tmp_path / "contingent.bf"
    path.write_text("x1\n")
    code, out, _ = run_cli(capsys, "taut", "--file", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["result"] is False
    assert report["counterexample"] == {"x1": False}


def test_taut_tautology_file(tmp_path, capsys):
    path = tmp_path / "taut.bf"
    path.write_text("# excluded middle\nx1 | !x1\n")
    code, out, _ = run_cli(capsys, "taut", "--file", str(path))
    assert code == 0


def test_taut_range_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "taut", "--urquhart", "0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("flag, limit", [
    ("--urquhart", fm.URQUHART_LIMIT), ("--pigeonhole", fm.PIGEONHOLE_LIMIT),
], ids=["urquhart", "pigeonhole"])
@pytest.mark.parametrize("size", [-1, 0, "limit+1", 10**11],
                         ids=["-1", "0", "limit+1", "10**11"])
def test_taut_generator_size_out_of_range_exit_two(capsys, flag, limit,
                                                   size):
    # a size past the limit is refused before the formula is built, not
    # left to end in a MemoryError
    size = limit + 1 if size == "limit+1" else size
    code, out, err = run_cli(capsys, "taut", flag, str(size))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


_COMMANDS = {
    "taut": ["taut", "--urquhart", "3"],
    "bench": ["bench", "pigeonhole", "--max", "2"],
    "lambda-sort": ["lambda-sort", "--list", "2,1,0"],
    "lambda-sort-no-memo": ["lambda-sort", "--list", "2,1,0", "--no-memo"],
}


@pytest.mark.parametrize("argv, error, expected", [
    pytest.param(argv, error, expected, id=name + suffix)
    for suffix, error, expected in [
        ("", MemoryError, "out of memory"),
        ("-rebound", lambda: MemoContractError.rebound(1, 2, 3), "rebound"),
    ]
    for name, argv in _COMMANDS.items()
])
def test_out_of_memory_exit_two(capsys, monkeypatch, argv, error, expected):
    # running out of memory, or any other engine error, exits 2 from
    # every command, never 1 ("not a tautology") with a traceback
    def fail(*args):
        raise error()
    monkeypatch.setattr(fm, "compile", fail)
    monkeypatch.setattr(lam.LambdaManager, "nf", fail)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and expected in err
    assert "Traceback" not in err


class _FullStdout:
    """A stdout on a full disk, as `>/dev/full`: unbuffered, `write`
    fails; buffered, `write` keeps the text and `flush` fails."""

    def __init__(self, buffered):
        self.buffered = buffered
        self.pending = ""

    def write(self, text):
        if not self.buffered:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.pending += text

    def flush(self):
        if self.pending:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("name, buffered", [
    pytest.param(name, buffered, id=name + suffix)
    for suffix, buffered in [("", False), ("-buffered", True)]
    for name in ["taut", "bench", "lambda-sort"]
])
def test_unwritable_report_exit_two(capsys, monkeypatch, name, buffered):
    # a report that cannot be written is an error (2), not "not a
    # tautology" (1); buffered, `main` flushes before it returns, and
    # leaves the interpreter's flush at exit nothing to fail on
    monkeypatch.setattr(sys, "stdout", _FullStdout(buffered))
    code, _, err = run_cli(capsys, *_COMMANDS[name])
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith("error: ") and "No space left" in line
    if buffered:
        assert sys.stdout.name == os.devnull
        sys.stdout.close()


def test_closed_stdout_keeps_the_verdict(capsys, monkeypatch):
    # with file descriptor 1 closed, `sys.stdout` is None and `print`
    # writes nothing: the status is still the verdict's
    monkeypatch.setattr(sys, "stdout", None)
    code, _, err = run_cli(capsys, *_COMMANDS["taut"])
    assert code == 0 and err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("name", ["taut", "bench", "lambda-sort"])
def test_full_buffered_stdout_exit_two(name):
    # the process's status, not only `main`'s: a failed flush at exit
    # would make it 120
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "maxshare", *_COMMANDS[name]],
            env={**env, "PYTHONPATH": str(src)}, stdout=full,
            stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "No space left" in line


def test_taut_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.bf"
    path.write_text("x1 &&& x2\n")
    code, _, err = run_cli(capsys, "taut", "--file", str(path))
    assert code == 2


def test_taut_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "taut", "--file", "/no/such/file.bf")
    assert code == 2


def test_bench_urquhart_json(capsys):
    code, out, _ = run_cli(capsys, "bench", "urquhart", "--max", "10",
                           "--json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 10
    assert all(r["result"] is True for r in records)
    assert [r["size"] for r in records] == list(range(1, 11))


def test_bench_pigeonhole_single(capsys):
    code, out, _ = run_cli(capsys, "bench", "pigeonhole", "--max", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_bench_frees_each_size_manager(capsys):
    # each size's dead manager is collected before the next size is
    # built, not left to the cyclic GC: here it is off.  The `xor`/`not`
    # closures' cycles hold the pool and tables, not the manager itself.
    gc.collect()
    gc.disable()
    try:
        code, out, _ = run_cli(capsys, "bench", "pigeonhole", "--max", "4")
        assert code == 0 and len(out.splitlines()) == 4
        assert not [o for o in gc.get_objects()
                    if isinstance(o, (BddManager, Pool, MemoTable))]
        assert gc.get_freeze_count() == 0  # the run's freeze is undone
    finally:
        gc.enable()


def test_bench_text_reports_pool_size(capsys):
    # a tautology's result is the TRUE leaf (0 decision nodes); the work
    # shows in the pool
    code, out, _ = run_cli(capsys, "bench", "urquhart", "--max", "3")
    assert code == 0
    line = out.strip().splitlines()[-1]
    assert "0 result nodes" in line
    pool = int(line.split(" pool nodes")[0].rsplit(" ", 1)[-1])
    assert pool > 2


def test_taut_too_deep_urquhart_exit_two(capsys):
    # a tautology whose nesting exceeds the recursion limit is an engine
    # error (2), never "not a tautology" (1)
    code, out, err = run_cli(capsys, "taut", "--urquhart", "400")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err


def test_taut_too_deep_file_exit_two(tmp_path, capsys):
    # compile recurses once per binary connective
    path = tmp_path / "deep.bf"
    path.write_text("(x1 & " * 3000 + "x1" + ")" * 3000 + " | 1\n")
    code, out, err = run_cli(capsys, "taut", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err


def _chain(symbol, count):
    # "1" then `count` variables over x1..x8, each used an even number of
    # times: a chain of `^` or `<->` that is a tautology either way
    half = [f"x{i % 8 + 1}" for i in range(count // 2)]
    return f" {symbol} ".join(["1"] + half + half)


@pytest.mark.parametrize("text", [_chain("<->", 3_000), _chain("^", 3_000)],
                         ids=["3000-right-nested-iff", "3000-left-nested-xor"])
def test_taut_file_long_literal_chains_exit_zero(tmp_path, capsys, text):
    # compile reads a chain of `^`/`<->` over literals in a loop and xors
    # them as a balanced tree, at the default recursion limit
    path = tmp_path / "chain.bf"
    path.write_text(text + "\n")
    code, out, _ = run_cli(capsys, "taut", "--file", str(path))
    assert code == 0
    assert json.loads(out)["result"] is True


@pytest.mark.parametrize("count", [3_000, 100_000])
def test_taut_file_deep_negations_exit_zero(tmp_path, capsys, count):
    # compile loops over `!`, at the default recursion limit; an even
    # count of `!` over x1 | !x1 is a tautology
    path = tmp_path / "deep.bf"
    path.write_text("!" * count + "(x1 | !x1)\n")
    code, out, _ = run_cli(capsys, "taut", "--file", str(path))
    assert code == 0
    assert json.loads(out)["result"] is True


@pytest.mark.parametrize("text", [
    fm.print_formula(fm.pigeonhole(6)),
    "(" * 100_000 + "x1 | !x1" + ")" * 100_000,
], ids=["printed-P6", "100000-parentheses"])
def test_taut_file_deep_parentheses_exit_zero(tmp_path, capsys, text):
    # the parser keeps explicit stacks: only compile depth is limited
    path = tmp_path / "deep.bf"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "taut", "--file", str(path))
    assert code == 0
    assert json.loads(out)["result"] is True


_PIECES = ["x1", "x2", "x3", "x0", "x01", "0", "1", "!", "&", "|", "^",
           "->", "<->", "(", ")", " ", "\t", "\n", "# note\n", "#",
           "y", "\u00b2", "\u0661", "x", "-", "<"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_taut_file_fuzz(tmp_path, capsys, text):
    path = tmp_path / "fuzz.bf"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "taut", "--file", str(path))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        [line] = out.splitlines()
        report = json.loads(line)
        assert report["result"] is (code == 0)
        # exit 1 carries an assignment that falsifies the formula
        assert ("counterexample" in report) is (code == 1)
        if code == 1:
            env = {int(name[1:]): value
                   for name, value in report["counterexample"].items()}
            assert fm.eval_formula(fm.parse(text), env) is False


def test_bench_too_deep_exit_two(capsys, monkeypatch):
    deep = fm.Var(1)
    for _ in range(3000):
        deep = fm.And(fm.Var(1), deep)
    monkeypatch.setattr(fm, "urquhart", lambda n: fm.Or(deep, fm.Const(True)))
    code, out, err = run_cli(capsys, "bench", "urquhart", "--max", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err


def test_bench_prints_finished_sizes_before_a_failure(capsys):
    # each record is printed as its size finishes, so a size that runs
    # out of stack leaves the earlier records in place and is named;
    # U(n) takes about 3n frames, so 100 frames fail it near U(29)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        code, out, err = run_cli(capsys, "bench", "urquhart", "--max", "40",
                                 "--json")
    finally:
        sys.setrecursionlimit(old)
    assert code == 2
    sizes = [json.loads(line)["size"] for line in out.strip().splitlines()]
    assert sizes and sizes == list(range(1, len(sizes) + 1))
    assert len(sizes) < 40
    assert err.startswith(f"error: urquhart({len(sizes) + 1}): ")
    assert "nested too deeply" in err


def test_bench_bad_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "nosuch", "--max", "3"])
    assert exc.value.code == 2


def test_bench_max_zero(capsys):
    code, _, err = run_cli(capsys, "bench", "urquhart", "--max", "0")
    assert code == 2


@pytest.mark.parametrize("suite, limit", [
    ("urquhart", fm.URQUHART_LIMIT), ("pigeonhole", fm.PIGEONHOLE_LIMIT),
])
@pytest.mark.parametrize("past", [1, 10**6])
def test_bench_max_past_the_generator_limit_exit_two(capsys, monkeypatch,
                                                     suite, limit, past):
    # checked before any size is built: P(9), P(10), ... would each take
    # about three times the memory of the last
    def generate(size):
        raise AssertionError(f"built size {size}")
    monkeypatch.setattr(fm, suite, generate)
    code, out, err = run_cli(capsys, "bench", suite, "--max",
                             str(limit + past))
    assert code == 2
    assert out == ""
    assert err == f"error: --max must be in 1..{limit}\n"


def test_lambda_sort(capsys):
    code, out, _ = run_cli(capsys, "lambda-sort", "--list", "0,3,5,2,4,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0,1,2,3,4,5"
    report = json.loads(lines[1])
    assert report["result"] == [0, 1, 2, 3, 4, 5]


def test_lambda_sort_empty(capsys):
    code, out, _ = run_cli(capsys, "lambda-sort", "--list", "")
    assert code == 0
    assert out.splitlines()[0] == ""


def test_lambda_sort_no_memo_matches(capsys):
    code1, out1, _ = run_cli(capsys, "lambda-sort", "--list", "2,1,0")
    code2, out2, _ = run_cli(capsys, "lambda-sort", "--list", "2,1,0",
                             "--no-memo")
    assert code1 == code2 == 0
    assert out1.splitlines()[0] == out2.splitlines()[0] == "0,1,2"
    # both runs report the same four tables; without memoization none
    # of them hits
    memo1 = json.loads(out1.splitlines()[1])["memo_stats"]
    memo2 = json.loads(out2.splitlines()[1])["memo_stats"]
    assert memo1["subst"]["hits"] and memo1.keys() == memo2.keys()
    assert all(row["hits"] == 0 for row in memo2.values())


@pytest.mark.parametrize("values", [[2, 1, 0], [3, 1, 2]])
def test_lambda_sort_no_memo_counts_the_unshared_steps(capsys, values):
    # --no-memo runs the same machines with memoization off: the beta
    # steps of the unshared recursive normalizer (2,095 and 2,554), each
    # table probe a miss whose body runs, the same pool as memoized, and
    # more steps than memoized (289 on [2,1,0])
    mgr = lam.LambdaManager()
    term = mgr.mk_app(lam.quicksort_term(mgr), lam.church_list(mgr, values))
    plain = lam.PlainNormalizer()
    lam.run_deep(plain.nf, lam.to_plain(mgr, term))
    text = ",".join(map(str, values))
    reports = {}
    for flags in ([], ["--no-memo"]):
        code, out, _ = run_cli(capsys, "lambda-sort", "--list", text, *flags)
        assert code == 0
        assert out.splitlines()[0] == ",".join(map(str, sorted(values)))
        reports[bool(flags)] = json.loads(out.splitlines()[1])
    memoized, unmemoized = reports[False], reports[True]
    assert unmemoized["reduction_steps"] == plain.reduction_steps
    assert unmemoized["memo_stats"].keys() == memoized["memo_stats"].keys()
    for row in unmemoized["memo_stats"].values():
        assert row["hits"] == 0
        assert row["misses"] == row["body_evaluations"]
    assert unmemoized["allocations"] == memoized["allocations"]
    assert memoized["reduction_steps"] < plain.reduction_steps


def test_lambda_sort_no_memo_value_guard(capsys):
    code, _, err = run_cli(capsys, "lambda-sort", "--list", "9,1",
                           "--no-memo")
    assert code == 2


def test_lambda_sort_memo_value_guard(capsys):
    # a 20-million-application numeral would be built before sorting
    code, out, err = run_cli(capsys, "lambda-sort", "--list", "20000000,1")
    assert code == 2
    assert out == ""
    assert err == f"error: values must be <= {cli.MEMO_VALUE_LIMIT}\n"
    code, out, _ = run_cli(capsys, "lambda-sort", "--list",
                           f"{cli.MEMO_VALUE_LIMIT},1")
    assert code == 0
    assert out.splitlines()[0] == f"1,{cli.MEMO_VALUE_LIMIT}"
    code, out, _ = run_cli(capsys, "lambda-sort", "--list",
                           ",".join(str(v) for v in range(9, -1, -1)))
    assert code == 0
    assert out.splitlines()[0] == ",".join(str(v) for v in range(10))


@pytest.mark.parametrize("flags", [[], ["--no-memo"]])
def test_lambda_sort_step_guard_exit_two(capsys, monkeypatch, flags):
    # the step guard is an engine bound: exit 2 with an error line
    monkeypatch.setattr(lam, "STEP_GUARD", 100)
    code, out, err = run_cli(capsys, "lambda-sort", "--list", "2,1,0",
                             *flags)
    assert code == 2
    assert out == ""
    assert err == "error: exceeded 100 reduction steps\n"


def _no_threads(monkeypatch):
    # as under an address-space cap: no big-stack worker can start
    def start(self):
        raise RuntimeError("can't start new thread")
    monkeypatch.setattr(threading.Thread, "start", start)


@pytest.mark.parametrize("flags", [[], ["--no-memo"]],
                         ids=["memo", "no-memo"])
def test_lambda_sort_needs_no_thread(capsys, monkeypatch, flags):
    # the machines run on the calling thread, memoized or not, and leave
    # the recursion limit alone
    _no_threads(monkeypatch)
    limit = sys.getrecursionlimit()
    code, out, err = run_cli(capsys, "lambda-sort", "--list", "2,1,0",
                             *flags)
    assert code == 0
    assert out.splitlines()[0] == "0,1,2"
    assert err == ""
    assert sys.getrecursionlimit() == limit


def test_python_m_maxshare_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "maxshare", "lambda-sort", "--list", "3,1,2",
         "--no-memo"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "1,2,3"


def test_lambda_sort_malformed_list(capsys):
    code, _, err = run_cli(capsys, "lambda-sort", "--list", "1,two,3")
    assert code == 2


@pytest.mark.parametrize("index, code", [(4294967296, 2), (4294967295, 0),
                                         pytest.param("9" * 5000, 2,
                                                      id="5000-digits"),
                                         ("0001", 0)])
def test_taut_variable_index_limit(tmp_path, capsys, index, code):
    # indices at or above bdd.LEAF_VAR (2**32) are a range error, exit 2,
    # also past Python's int-string digit limit
    path = tmp_path / "huge.bf"
    path.write_text(f"x{index} | !x{index}\n")
    got, out, err = run_cli(capsys, "taut", "--file", str(path))
    assert got == code
    if code == 2:
        assert "out of range" in err
    else:
        assert json.loads(out)["result"] is True


def test_taut_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.bf"
    path.write_bytes(b"x1 | \xff\n")
    code, out, err = run_cli(capsys, "taut", "--file", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "UTF-8" in err


# At most 4 values per list and at most one of them above 9: memoized,
# `200,200,200` takes over a second, and `8,7,6,5 --no-memo` about 0.3 s.
_SMALL_VALUES = [str(d) for d in range(10)] + ["", "-1", "\u0661"]
_LARGE_VALUES = ["200", "201", "1_0"]
_NOISE = ["", " ", "x", "+"]


@st.composite
def _lists(draw):
    values = draw(st.lists(st.sampled_from(_SMALL_VALUES), max_size=4))
    if values and draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(values) - 1))
        values[at] = draw(st.sampled_from(_LARGE_VALUES))
    return ",".join(draw(st.sampled_from(_NOISE)) + value
                    + draw(st.sampled_from(_NOISE)) for value in values)


_ARGVS = st.one_of(
    st.builds(lambda n: ["taut", "--urquhart", str(n)],
              st.integers(min_value=-3, max_value=400) | st.just(10**11)),
    # P(7) takes 0.12 s and P(9) 1.8 s
    st.builds(lambda n: ["taut", "--pigeonhole", str(n)],
              st.integers(min_value=-2, max_value=6)
              | st.sampled_from([21, 10**11])),
    st.builds(lambda text, flags: ["lambda-sort", f"--list={text}", *flags],
              _lists(), st.sampled_from([[], ["--no-memo"]])),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ARGVS)
def test_exit_contract_fuzz(capsys, argv):
    # Hypothesis raises the recursion limit while it runs a test, so
    # U(332..400) compile here; the `too_deep` tests cover that row
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ")
    if code == 0:
        json.loads(out.splitlines()[-1])


_TABLE_FIELDS = ["body_evaluations", "hits", "misses"]
_POOL_FIELDS = ["intern_hits", "intern_misses", "node_count"]
_BASE_FIELDS = ["command", "memo_stats", "node_count", "pool_stats",
                "result", "schema", "wall_time_ms"]


@pytest.mark.parametrize("argv, fields, tables", [
    (["taut", "--urquhart", "3"], [], ["and", "not", "or", "xor"]),
    (["taut", "--file", "CONTINGENT"], ["counterexample"],
     ["and", "not", "or", "xor"]),
    (["bench", "urquhart", "--max", "1", "--json"], ["size"],
     ["and", "not", "or", "xor"]),
    (["lambda-sort", "--list", "2,1"], ["allocations", "reduction_steps"],
     ["hnf", "lifti", "nf", "subst"]),
    (["lambda-sort", "--list", "2,1", "--no-memo"],
     ["allocations", "reduction_steps"], ["hnf", "lifti", "nf", "subst"]),
], ids=["taut", "taut-contingent", "bench", "lambda-sort",
        "lambda-sort-no-memo"])
def test_schema_one_field_sets(tmp_path, capsys, argv, fields, tables):
    # the report's fields, schema 1; a new schema changes this test on
    # purpose
    path = tmp_path / "contingent.bf"
    path.write_text("x1 & !x2 | x3\n")
    argv = [str(path) if arg == "CONTINGENT" else arg for arg in argv]
    _, out, _ = run_cli(capsys, *argv)
    report = json.loads(out.splitlines()[-1])
    assert sorted(report) == sorted(_BASE_FIELDS + fields)
    assert report["schema"] == 1
    assert sorted(report["pool_stats"]) == _POOL_FIELDS
    assert sorted(report["memo_stats"]) == tables
    for row in report["memo_stats"].values():
        assert sorted(row) == _TABLE_FIELDS
