"""The passes of one worker, after set-up: run, check, report.

worker.py imports this module only after it has printed READY, so nothing
here counts towards set-up.  `run` makes one cold pass and one warm pass over
the same operation list and returns the worker's result, with the speed
factors that scale its times to a reference host speed.  Outputs are
checked after each pass, outside the timed region, by checks.py, which
imports nothing from zeroruns.  Failures are counted and never end the run;
a check that raises on output of an unexpected shape counts as one too.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracing import NullTracer, Tracer, median, self_times, tail

SRC = Path(__file__).resolve().parent.parent / "src"

# Per-layer names, `<layer>.<function>`, for each workload's calls.
QUERY_LAYERS = {"F": "runcount.F", "F_hat": "palindromic.F_hat",
                "P": "compositions.P", "binomial": "runcount.binomial"}
TABLE_LAYERS = {"build_matrix": "matrices.build_matrix",
                "build_matrix_palindromic": "matrices.build_matrix_palindromic",
                "support_hat_set": "palindromic.support_hat_set",
                "P_total": "compositions.P_total",
                "P_hat_total": "compositions.P_hat_total",
                "sequence": "sequences.sequence"}
ORACLE_FUNCTIONS = ("oracle_count", "oracle_partition_table", "oracle_T", "oracle_zero_total")
CLI_SUBCOMMANDS = ("count", "table", "support", "matrix", "seq", "compositions", "partitions")
CLI_TIMEOUT_S = 120
PROBES = 5
CALIBRATION_SAMPLES = 3  # reference loops after set-up and after each pass
# Each worker reports speed factors that scale its times to a reference host
# speed.  The host's speed is read from a reference that shares the timed
# work's kind of cost and that no change under src/ moves: the time of
# reference_loop around each pass (tables, queries) and for set-up (every
# workload), or of a bare interpreter start before each command (cli).
# These are about the references' times on the 2-vCPU machine the benchmark
# was written on.
LOOP_REFERENCE_S = 0.012
INTERPRETER_REFERENCE_S = 0.100


# ---------------------------------------------------------------------------
# operations: each returns (output, error count) and calls the library only
# through tracer.call


def query_runner(z):
    functions = {"F": z.runcount.F, "F_hat": z.palindromic.F_hat,
                 "P": z.compositions.P, "binomial": z.runcount.binomial}

    def run(tracer, row):
        family, n, x = row
        fn, name = functions[family], QUERY_LAYERS[family]
        values, errors = [], 0
        for k in range(x + 1):
            args = (n, k) if family == "binomial" else (n, x, k)
            try:
                values.append(tracer.call(name, fn, *args))
            except Exception:  # RecursionError included: a counted failure
                values.append(None)
                errors += 1
        return values, errors

    def check(row, output) -> tuple[bool, bool]:
        values, errors = output
        right = errors == 0 and checks.check_row(*row, values)
        return right, errors == 0 and not right

    return run, check


def table_runner(z):
    calls = {
        "build_matrix": lambda n: (z.matrices.build_matrix, (n,)),
        "build_matrix_palindromic": lambda n: (z.matrices.build_matrix, (n, "palindromic")),
        "support_hat_set": lambda n: (z.palindromic.support_hat_set, (n,)),
        "P_total": lambda n: (z.compositions.P_total, (n,)),
        "P_hat_total": lambda n: (z.compositions.P_hat_total, (n,)),
        "sequence": lambda *spec: (z.sequences.sequence, (z.sequences.SequenceSpec(*spec),)),
    }

    def run(tracer, op):
        fn, args = calls[op[0]](*op[1:])
        try:
            return tracer.call(TABLE_LAYERS[op[0]], fn, *args), 0
        except Exception:
            return None, 1

    def check(op, output) -> tuple[bool, bool]:
        result, errors = output
        right = errors == 0 and checks.check_table_op(op, result)
        return right, errors == 0 and not right

    return run, check


def cli_layer(argv: list[str]) -> str:
    return f"cli.verify.{argv[2]}" if argv[0] == "verify" else f"cli.{argv[0]}"


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    src/ first on PYTHONPATH, a fixed hash seed, and no oracle-cap override
    from the caller's shell."""
    env = {k: v for k, v in os.environ.items() if k != "ZERORUNS_ORACLE_CAP"}
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p and p != str(SRC)]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *rest])
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_runner(env):
    def run(tracer, argv):
        try:
            proc = tracer.call(cli_layer(argv), subprocess.run,
                               [sys.executable, "-m", "zeroruns.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, 1
        return proc, int(proc.returncode != 0)

    def check(argv, output) -> tuple[bool, bool]:
        proc, errors = output
        if errors:
            return False, False
        try:
            record = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return False, False  # unparsable output is a failure, not a value
        right = checks.check_cli(argv, record)
        return right, not right

    return run, check


# ---------------------------------------------------------------------------
# passes


def timed_pass(ops, run, tracer, reference=None):
    """One pass over ops; returns (per-op seconds, outputs, reference
    seconds).  `reference`, when given, is timed just before each operation,
    outside the operation's own time."""
    latencies, outputs, references = [], [], []
    for op_id, op in enumerate(ops):
        if reference is not None:
            t0 = perf_counter()
            reference()
            references.append(perf_counter() - t0)
        tracer.op = op_id
        t0 = perf_counter()
        outputs.append(run(tracer, op))
        latencies.append(perf_counter() - t0)
    return latencies, outputs, references


def layer_stats(spans, passes, names, full: bool) -> dict[str, float]:
    """`<layer>.<fn>.<stat>` from the spans of the cold pass (pass 0) and
    the warm pass (pass 1)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for name in names:
        mine = [(p, own[i], spans[i][5]) for i, p in enumerate(passes) if spans[i][0] == name]
        cold = [t for p, t, _ in mine if p == 0]
        out[f"{name}.calls"] = len(cold)
        out[f"{name}.cold_s"] = sum(cold)
        out[f"{name}.warm_s"] = sum(t for p, t, _ in mine if p == 1)
        if full:
            out[f"{name}.p50_us"] = median(cold) * 1e6
            out[f"{name}.tail_us"] = tail(cold)[0] * 1e6
            out[f"{name}.failed"] = sum(1 for p, _, failed in mine if p == 0 and failed)
    return out


def wrap_outermost(tracer, module, names):
    """Replace module attributes by wrappers that record a span for the
    outermost wrapped call only; returns a function restoring them."""
    originals = {name: getattr(module, name) for name in names}
    busy = [False]

    def make(name, fn):
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        def wrapper(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            try:
                return tracer.call(label, fn, *args, **kwargs)
            finally:
                busy[0] = False

        return wrapper

    for name, fn in originals.items():
        setattr(module, name, make(name, fn))
    return lambda: [setattr(module, n, fn) for n, fn in originals.items()]


def cli_in_process(z, argvs) -> dict[str, float]:
    """Run every command through zeroruns.cli.main(argv) in this process,
    with the oracle's entry points wrapped.  runcount.F and compositions.P
    are not wrapped: they recurse through their own module globals, so a
    wrapper would add a frame per level and fail where the timed run does
    not.  Their time stays inside the caller's span."""
    tracer = Tracer()
    restore = wrap_outermost(tracer, z.oracle, ORACLE_FUNCTIONS)
    try:
        for op_id, argv in enumerate(argvs):
            tracer.op = op_id
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    tracer.call("cli.main", z.cli.main, argv)
                except Exception:  # e.g. RecursionError from a large count
                    pass
    finally:
        restore()
    own = self_times(tracer.spans)
    out = {"cli.self_s": sum(t for s, t in zip(tracer.spans, own) if s[0] == "cli.main")}
    for fn in ORACLE_FUNCTIONS:
        mine = [t for s, t in zip(tracer.spans, own) if s[0] == f"oracle.{fn}"]
        out[f"oracle.{fn}.calls"] = len(mine)
        out[f"oracle.{fn}.busy_s"] = sum(mine)
    return out


def start_up_probes(env) -> dict[str, float]:
    def wall(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=CLI_TIMEOUT_S)
        return perf_counter() - t0

    bare = median([wall("pass") for _ in range(PROBES)])
    imported = median([wall("import zeroruns.cli") for _ in range(PROBES)])
    return {"cli.interpreter_s": bare, "cli.import_s": imported - bare}


def reference_loop() -> None:
    """Fixed pure-Python work of the kernels' kind (a dict memo keyed by
    tuples, big-int additions) and small enough not to move peak memory.
    Its time tracks how fast the host runs Python at that moment."""
    for _ in range(7):
        memo = {}
        for n in range(90):
            for k in range(n + 1):
                memo[n, k] = 1 if k == 0 or k == n else memo[n - 1, k - 1] + memo[n - 1, k]


def calibrate(samples: list[float]) -> None:
    """Time reference_loop with the cyclic collector off, so that the size
    of the library's heap does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(CALIBRATION_SAMPLES):
            t0 = perf_counter()
            reference_loop()
            samples.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


def checked(check, op, output) -> tuple[bool, bool]:
    """check(op, output) as (right, wrong).  A check that raises, on output
    of a shape it does not expect, counts as a failure, and as wrong when the
    library did return a value; it never ends the run."""
    try:
        return check(op, output)
    except Exception:
        return False, output[1] == 0


def run(z, workload: str, ops: list, spans_path: Path | None) -> dict:
    """One cold pass and one warm pass over ops, checked; the worker's
    result, with per-layer stats when spans_path is given."""
    env = child_env()
    if workload == "queries":
        run_op, check = query_runner(z)
    elif workload == "tables":
        run_op, check = table_runner(z)
    else:
        run_op, check = cli_runner(env)
    traced = spans_path is not None
    tracer = Tracer() if traced else NullTracer()

    def interpreter_start():
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=CLI_TIMEOUT_S)

    latencies, speeds, starts, passes = [], [], [], []
    loops = [[]]  # reference loop times at each pass boundary
    calibrate(loops[0])
    attempted = failed = wrong = 0
    for p in range(2):
        first_span = len(tracer.spans) if traced else 0
        op_seconds, outputs, before_op = timed_pass(
            ops, run_op, tracer, interpreter_start if workload == "cli" else None)
        loops.append([])
        calibrate(loops[-1])
        if workload == "cli":
            speeds.append([INTERPRETER_REFERENCE_S / t for t in before_op])
            starts += before_op
        else:
            speeds.append([LOOP_REFERENCE_S / median(loops[p] + loops[p + 1])] * len(ops))
        latencies.append(op_seconds)
        if traced:
            passes += [p] * (len(tracer.spans) - first_span)
        for op, output in zip(ops, outputs):
            right, is_wrong = checked(check, op, output)
            attempted += 1
            failed += not right
            wrong += is_wrong
        del outputs

    if workload == "cli":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "latencies": latencies, "speed": speeds,
        "setup_speed": LOOP_REFERENCE_S / median([t for ts in loops for t in ts]),
        "reference_s": {"loop": loops, "interpreter_start": starts},
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "peak_rss_mb": peak / 1024, "ops": len(ops),
    }
    if traced:
        if workload == "queries":
            layers = layer_stats(tracer.spans, passes, QUERY_LAYERS.values(), full=True)
        elif workload == "tables":
            layers = layer_stats(tracer.spans, passes, TABLE_LAYERS.values(), full=False)
        else:
            names = [f"cli.{sub}" for sub in CLI_SUBCOMMANDS]
            names += [f"cli.verify.{suite}" for suite in workloads.VERIFY_MAX_N]
            own = self_times(tracer.spans)
            layers = {f"{name}.wall_s": sum(t for s, t, p in zip(tracer.spans, own, passes)
                                            if s[0] == name and p == 0) for name in names}
            layers.update(start_up_probes(env))
            layers.update(cli_in_process(z, ops))
        result["layers"] = layers
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as fh:
            for span, p in zip(tracer.spans, passes):
                fh.write(json.dumps(span + [p]) + "\n")
    return result
