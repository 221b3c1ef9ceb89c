import inspect
import json
import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from maxshare import cli
from maxshare import formula as fm
from maxshare import lam
from maxshare.cli import main


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


def _raise_memory_error(*args):
    raise MemoryError


@pytest.mark.parametrize("argv", [
    ["taut", "--urquhart", "3"],
    ["bench", "pigeonhole", "--max", "2"],
    ["lambda-sort", "--list", "2,1,0"],
], ids=["taut", "bench", "lambda-sort"])
def test_out_of_memory_exit_two(capsys, monkeypatch, argv):
    # running out of memory is an engine error (2), never "not a
    # tautology" (1)
    monkeypatch.setattr(fm, "compile", _raise_memory_error)
    monkeypatch.setattr(lam.LambdaManager, "nf", _raise_memory_error)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "out of memory" in err
    assert "Traceback" not in err


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
    # out of stack leaves the earlier records in place and is named
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
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
    # the baseline uses no memo table, so it reports none
    assert json.loads(out1.splitlines()[1])["memo_stats"]["subst"]["misses"]
    assert json.loads(out2.splitlines()[1])["memo_stats"] == {}


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


def test_lambda_sort_thread_start_failure_exit_two(capsys, monkeypatch):
    # under an address-space cap the big-stack worker cannot start
    def start(self):
        raise RuntimeError("can't start new thread")
    monkeypatch.setattr(threading.Thread, "start", start)
    limit = sys.getrecursionlimit()
    code, out, err = run_cli(capsys, "lambda-sort", "--list", "2,1,0")
    assert code == 2
    assert out == ""
    assert err == "error: engine thread: can't start new thread\n"
    assert "Traceback" not in err
    assert sys.getrecursionlimit() == limit


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
