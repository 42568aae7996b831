import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import zeroruns
from zeroruns import cli
from zeroruns.runcount import F
from zeroruns.sequences import T

# stdout and exit status of every subcommand and flag in every format,
# recorded before the front end was refactored; see test_golden_outputs.
GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("cli_golden.json")).read_text()
)

COUNT_JSON = (
    '{"command":"count","params":{"family":"F","k":2,"n":6,"x":3},'
    '"provenance":"recurrence","result":{"count":12}}'
)

MATRIX_PROPS_PLAIN = """\
determinant 24
eigenvalues 1 1 2 3 4
nonzero 7
trace 11
"""

MATRIX_PROPS_JSON = (
    '{"command":"matrix","params":{"n":4,"palindromic":false,"props":true},'
    '"provenance":"recurrence",'
    '"result":{"determinant":24,"eigenvalues":[1,1,2,3,4],"nonzero":7,"trace":11}}'
)

MATRIX_PROPS_CSV = """\
property,value
determinant,24
eigenvalues,1;1;2;3;4
nonzero,7
trace,11
"""

TABLE_PLAIN = """\
0 0 1
1 1 4
2 1 3
2 2 3
3 2 2
3 3 2
4 4 1
"""

TABLE_JSON = (
    '{"command":"table","params":{"n":4,"palindromic":false},'
    '"provenance":"recurrence",'
    '"result":{"entries":[[0,0,1],[1,1,4],[2,1,3],[2,2,3],[3,2,2],[3,3,2],[4,4,1]]}}'
)

TABLE_CSV = """\
x,k,count
0,0,1
1,1,4
2,1,3
2,2,3
3,2,2
3,3,2
4,4,1
"""

MATRIX_GRID_CSV = """\
x,0,1,2
0,1,0,0
1,0,2,0
2,0,0,1
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "F", "6", "3", "2")
    assert code == 0 and out == "12\n"


def test_count_fhat(capsys):
    code, out, _ = run(capsys, "count", "Fhat", "6", "4", "2")
    assert code == 0 and out == "2\n"


def test_count_json_golden(capsys):
    code, out, _ = run(capsys, "count", "F", "6", "3", "2", "--format", "json")
    assert code == 0 and out == COUNT_JSON + "\n"


def test_count_csv_golden(capsys):
    code, out, _ = run(capsys, "count", "F", "6", "3", "2", "--format", "csv")
    assert code == 0 and out == "family,n,x,k,count\nF,6,3,2,12\n"


def test_matrix_props_goldens(capsys):
    code, out, _ = run(capsys, "matrix", "4", "--props")
    assert code == 0 and out == MATRIX_PROPS_PLAIN
    code, out, _ = run(capsys, "matrix", "4", "--props", "--format", "json")
    assert code == 0 and out == MATRIX_PROPS_JSON + "\n"
    code, out, _ = run(capsys, "matrix", "4", "--props", "--format", "csv")
    assert code == 0 and out == MATRIX_PROPS_CSV


def test_table_goldens(capsys):
    code, out, _ = run(capsys, "table", "4")
    assert code == 0 and out == TABLE_PLAIN
    code, out, _ = run(capsys, "table", "4", "--format", "json")
    assert code == 0 and out == TABLE_JSON + "\n"
    code, out, _ = run(capsys, "table", "4", "--format", "csv")
    assert code == 0 and out == TABLE_CSV


def test_matrix_grid_csv_layout(capsys):
    code, out, _ = run(capsys, "matrix", "2", "--format", "csv")
    assert code == 0 and out == MATRIX_GRID_CSV


def test_json_round_trips(capsys):
    for argv in (
        ["count", "F", "6", "3", "2"],
        ["table", "5", "--palindromic"],
        ["matrix", "4", "--props", "--palindromic"],
        ["support", "5", "--formula"],
        ["seq", "column-sum", "--k", "1", "--from", "1", "--count", "9"],
        ["compositions", "7", "--palindromic", "--stats"],
        ["partitions", "6"],
    ):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        rendered = json.dumps(
            json.loads(out), sort_keys=True, separators=(",", ":")
        ) + "\n"
        assert rendered == out


def test_support_plain(capsys):
    code, out, _ = run(capsys, "support", "5")
    assert code == 0
    pairs = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert len(pairs) == 11 and (4, 2) in pairs and (4, 1) not in pairs


def test_seq_plain(capsys):
    code, out, _ = run(capsys, "seq", "column-sum", "--k", "1",
                       "--from", "1", "--count", "9")
    assert code == 0 and out == "1 2 4 7 12 20 33 54 88\n"


def test_compositions_plain(capsys):
    code, out, _ = run(capsys, "compositions", "4")
    assert code == 0 and out == "1 4 2 1\n"


def test_partitions_pair(capsys):
    code, out, _ = run(capsys, "partitions", "6", "4", "2")
    assert code == 0 and out == "2\n"
    code, out, _ = run(capsys, "partitions", "6", "4", "2", "--palindromic")
    assert code == 0 and out == "2\n"


def test_partitions_totals(capsys):
    code, out, _ = run(capsys, "partitions", "6", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"partition_function": 15, "total": 15}


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "count", "F", "6", "3")[0] == 2
    assert run(capsys, "count", "G", "6", "3", "2")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    code, _, err = run(capsys, "seq", "oblong", "--x", "2", "--from", "3",
                       "--count", "2")
    assert code == 2 and "x >= 3" in err
    code, _, err = run(capsys, "partitions", "6", "4")
    assert code == 2 and "both x and k" in err


def test_verify_all_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "8", "--suite", "all")
    assert code == 0
    lines = out.splitlines()
    statuses = [line.split()[0] for line in lines if not line.startswith(" ")]
    assert statuses and set(statuses) <= {"ok", "FLAG"}


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "6", "--suite", "core",
                       "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["failures"] == 0
    assert any(line.startswith("ok ") for line in record["result"]["report"])


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_negative_max_n_runs_no_check(capsys, fmt):
    code, out, err = run(capsys, "verify", "--max-n", "-1", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: max_n must be >= 0, got -1\n"


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_negative_cap_runs_no_check(capsys, monkeypatch, fmt):
    code, out, err = run(capsys, "verify", "--oracle-cap", "-1", "--max-n", "3",
                         "--format", fmt)
    assert (code, out, err) == (2, "", "error: oracle cap must be >= 0, got -1\n")
    default = run(capsys, "verify", "--max-n", "3", "--format", fmt)
    set_option_variables(monkeypatch, "-1")
    assert run(capsys, "verify", "--max-n", "3", "--format", fmt) == default
    assert default[0] == 0


@pytest.mark.parametrize("args, message", [
    ((3, "bogus"), "unknown suite 'bogus'"),
    ((3.0,), "got (3.0,)"),
    ((True,), "got (True,)"),
    ((3, "core", 2.0), "got (2.0,)"),
], ids=repr)
def test_run_checks_rejects_bad_arguments_before_any_check(monkeypatch, args, message):
    from zeroruns import verify

    # stand-in checks that only record that they ran
    ran = []
    monkeypatch.setattr(verify, "_SUITES", {
        suite: [(name, lambda *_, name=name: ran.append(name)) for name, _ in checks]
        for suite, checks in verify._SUITES.items()
    })
    with pytest.raises(ValueError) as error:
        list(verify.run_checks(*args))
    assert message in str(error.value)
    assert ran == []


def test_verify_reports_the_first_20_failures_and_counts_all(capsys, monkeypatch):
    from zeroruns import verify

    def failing(check, max_n, cap):
        for i in range(25):
            check.fail(f"failure {i}")

    monkeypatch.setattr(verify, "_SUITES", {"core": [("failing", failing)]})
    code, out, _ = run(capsys, "verify", "--suite", "core")
    assert code == 1
    assert out.splitlines()[0] == "FAIL failing"
    assert sum(line.startswith("  fail: ") for line in out.splitlines()) == 20
    code, out, _ = run(capsys, "verify", "--suite", "core", "--format", "json")
    report = json.loads(out)["result"]["report"]
    assert code == 1
    assert sum(line.startswith("  fail: ") for line in report) == 20
    code, out, _ = run(capsys, "verify", "--suite", "core", "--format", "csv")
    assert (code, out) == (1, "check,status,flags,failures\nfailing,FAIL,0,25\n")


def test_verify_plain_prints_each_check_as_it_ends(capsys, monkeypatch):
    from zeroruns import verify

    seen = []
    monkeypatch.setattr(verify, "_SUITES", {"core": [
        ("first", lambda check, *_: check.flag("noted")),
        ("second", lambda *_: seen.append(capsys.readouterr().out)),
    ]})
    assert cli.main(["verify", "--suite", "core"]) == 0
    assert seen == ["FLAG first\n  flag: noted\n"]
    assert capsys.readouterr().out == "ok second\n"


def test_verify_cap_failure_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "6", "--suite", "core",
                       "--oracle-cap", "4")
    assert code == 1
    assert "enumeration cap" in out


def set_option_variables(monkeypatch, value):
    # ZERORUNS_<OPTION> for each option of verify: no such variable is read,
    # and the flags are the only way to set an option
    for dest in ("format", "max_n", "oracle_cap", "suite"):
        monkeypatch.setenv(f"ZERORUNS_{dest.upper()}", value)


def test_env_cap_is_ignored(capsys, monkeypatch):
    set_option_variables(monkeypatch, "4")
    code, out, _ = run(capsys, "verify", "--max-n", "6", "--suite", "core")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--max-n", "6", "--suite", "core",
                       "--oracle-cap", "4")
    assert code == 1
    set_option_variables(monkeypatch, "junk")
    assert run(capsys, "verify", "--max-n", "4")[0] == 0


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_count", broken)
    code, out, err = run(capsys, "count", "F", "6", "3", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError('boom\\nsecond line')\n"


@pytest.mark.parametrize("command", sorted(GOLDEN["commands"]))
def test_golden_outputs(capsys, command):
    want = GOLDEN["commands"][command]
    code, out, _ = run(capsys, *command.split())
    assert (code, out) == (want["exit"], want["stdout"])


def test_verify_all_golden(capsys):
    want = GOLDEN["verify_all_10"]
    code, out, _ = run(capsys, "verify", "--max-n", "10", "--suite", "all")
    assert (code, out) == (want["exit"], want["stdout"])


def test_oracle_cap_belongs_to_verify_only(capsys, monkeypatch):
    with monkeypatch.context() as env:
        set_option_variables(env, "junk")
        code, out, _ = run(capsys, "count", "F", "6", "3", "2")
    assert code == 0 and out == "12\n"
    assert run(capsys, "count", "F", "6", "3", "2", "--oracle-cap", "4")[0] == 2


def test_support_hat_set_is_a_support_set():
    support = zeroruns.support_hat_set(5)
    assert type(support) is zeroruns.SupportSet
    assert support.n == 5 and (3, 1) in support


def test_records_are_immutable_tuples_with_their_methods():
    spec = zeroruns.SequenceSpec("t-run", 1, 3)
    assert repr(spec) == "SequenceSpec(name='t-run', start=1, count=3, r=2, k=1, x=3)"
    assert spec == zeroruns.SequenceSpec(name="t-run", start=1, count=3, r=2, k=1, x=3)
    assert (spec.count, spec.r, spec.k, spec.x) == (3, 2, 1, 3)
    table = zeroruns.oracle_count(4)
    # ClassTable.count(x, k) is the class count, not tuple.count
    assert (table.count(2, 1), table.count(4, 5), table.total()) == (3, 0, 16)
    support = zeroruns.support_set(4)
    assert len(support) == len(support.pairs) == 7
    assert (2, 1) in support and (4, 0) not in support and 4 not in support
    matrix = zeroruns.build_matrix(3)
    assert len(matrix) == 3 and matrix.entry(3, 3) == 1
    for record, field in ((spec, "r"), (table, "n"), (support, "n"), (matrix, "rows")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_import_leaves_verify_unloaded():
    # only the verify subcommand needs zeroruns.verify; it is imported there.
    # The records are NamedTuples, so start-up pays for neither dataclasses
    # nor the inspect module it imports.
    code = ("import sys, zeroruns.cli; print([m for m in ('zeroruns.verify',"
            " 'dataclasses', 'inspect') if m in sys.modules])")
    src = str(pathlib.Path(zeroruns.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_closed_stdout_exits_141_quietly():
    # the reader takes one line of about 3000 and closes the pipe
    argv = ["seq", "t-run", "--from", "1", "--count", "3000", "--format", "csv"]
    src = str(pathlib.Path(zeroruns.__file__).parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "zeroruns.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline() == b"n,value\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.fixture
def int_digit_limit():
    """The interpreter's int-to-str digit limit, put back after the test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    yield before
    sys.set_int_max_str_digits(before)


# one count of 5574 digits and one term of 5294, past the default limit of 4300
BIG = [(("count", "F", "20000", "10000", "3"), lambda: F(20000, 10000, 3)),
       (("seq", "t-run", "--r", "3", "--from", "20000", "--count", "1"), lambda: T(3, 20000))]


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("argv, value", BIG, ids=["count", "seq"])
def test_counts_of_any_size_print_in_full(capsys, int_digit_limit, fmt, argv, value):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == int_digit_limit
    sys.set_int_max_str_digits(0)
    want = str(value())
    assert len(want) > 4300
    assert re.findall(r"\d{100,}", out) == [want]
    if fmt == "plain":
        assert out == want + "\n"


@pytest.mark.parametrize("argv", [
    ["count", "F", "6", "3", "2"],
    ["count", "F", "6", "3"],
    ["seq", "t-run", "--r", "1", "--from", "1", "--count", "1"],
], ids=["exit-0", "usage-exit-2", "value-error-exit-2"])
def test_main_gives_the_caller_its_digit_limit_back(capsys, int_digit_limit, argv):
    sys.set_int_max_str_digits(5000)
    run(capsys, *argv)
    assert sys.get_int_max_str_digits() == 5000
