"""Layered benchmark for zeroruns: one command prints every metric.

    python3 perfbench/run.py --workload {tables,queries,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  The library under test is the checkout's
own src/, put first on PYTHONPATH for every process; nothing needs to be
installed.  Each measurement runs in a fresh worker process (worker.py), one
at a time: a single caller that waits for each answer before asking the
next.  Workers are started until --seconds have been spent: at least
MIN_WORKERS untraced ones, or in a traced run at least two pairs of one
untraced and one traced worker.  Pass times are sums of per-operation
medians over the workers; see op_medians.  End-to-end times are reported at
reference speed; see at_reference_speed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones, from traced workers that alternate with untraced ones.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import workloads  # noqa: E402
from tracing import median, tail  # noqa: E402
from passes import (CLI_SUBCOMMANDS, ORACLE_FUNCTIONS, QUERY_LAYERS,  # noqa: E402
                    TABLE_LAYERS, child_env)

MIN_WORKERS = 3
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "fail_ratio": "ratio", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit.  Each workload reports all of
    them, with 0 for layers it does not call."""
    stat_units = {"calls": "count", "failed": "count", "cold_s": "s", "warm_s": "s",
                  "p50_us": "us", "tail_us": "us", "busy_s": "s"}
    pairs = [(layer, stat) for layer in QUERY_LAYERS.values()
             for stat in ("calls", "cold_s", "warm_s", "p50_us", "tail_us", "failed")]
    pairs += [(layer, stat) for layer in TABLE_LAYERS.values()
              for stat in ("calls", "cold_s", "warm_s")]
    pairs += [(f"oracle.{fn}", stat) for fn in ORACLE_FUNCTIONS for stat in ("calls", "busy_s")]
    units = {f"{layer}.{stat}": stat_units[stat] for layer, stat in pairs}
    for name in (["cli.interpreter_s", "cli.import_s", "cli.self_s", "trace.overhead_s"]
                 + [f"cli.{sub}.wall_s" for sub in CLI_SUBCOMMANDS]
                 + [f"cli.verify.{suite}.wall_s" for suite in workloads.VERIFY_MAX_N]):
        units[name] = "s"
    return units


def spawn(args, *extra: str) -> tuple[float, dict]:
    """Start one worker and wait for it to end.  Returns the seconds until it
    printed READY (set-up: interpreter start, zeroruns imported, inputs
    generated) and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), *extra]
    if args.smoke:
        cmd.append("--smoke")
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                          cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"worker ran over {WORKER_TIMEOUT_S} s: {' '.join(cmd)}")
    if proc.returncode != 0 or ready.strip() != "READY":
        raise SystemExit(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return setup_s, json.loads(out.splitlines()[-1])


def machine() -> dict:
    """Where and on what code the numbers were taken."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "zeroruns").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def at_reference_speed(setup_s: float, result: dict) -> float:
    """Scale one worker's operation times, in place, by the speed factors it
    reported (see passes.py), and return its scaled set-up time.

    A shared host's speed drifts: the same cold pass took from 2.2 s to
    4.4 s within four minutes.  The references are harness work that no
    change to zeroruns moves, so the factor keeps a change's cost and drops
    the host's.  The wall times stay in the report's samples."""
    speed = result["speed"]
    result["wall_latencies"] = result["latencies"]
    result["latencies"] = [[t * f for t, f in zip(lat, sp)]
                           for lat, sp in zip(result["latencies"], speed)]
    return setup_s * result["setup_speed"]


def op_medians(results: list[dict], cold: bool) -> list[float]:
    """Each operation's median latency over the workers' cold passes (or
    their warm passes).  Every worker is a fresh process running the same
    list, so these are repeated samples of one quantity; a burst of host
    noise in one worker does not move the median."""
    passes = [r["latencies"][:1] if cold else r["latencies"][1:] for r in results]
    return [median([lat[i] for ps in passes for lat in ps])
            for i in range(len(passes[0][0]))]


def fail_ratio(result: dict) -> float:
    """Failed over attempted operations in one worker's passes, add-one
    smoothed so the metric is never 0: (failed + 1) / (attempted + 1)."""
    return (result["failed"] + 1) / (result["attempted"] + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one worker, for the harness's own tests")
    args = parser.parse_args()
    if not (SRC / "zeroruns" / "__init__.py").is_file():
        print(f"error: no zeroruns package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    started = perf_counter()
    min_workers = 1 if args.smoke else MIN_WORKERS - args.trace
    setups: list[float] = []
    wall_setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        t0 = perf_counter()
        setup_s, result = spawn(args)
        wall_setups.append(setup_s)
        setups.append(at_reference_speed(setup_s, result))
        plain.append(result)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}-{len(traced)}.jsonl"
            setup_s, result = spawn(args, "--trace", str(spans))
            at_reference_speed(setup_s, result)
            traced.append(result)
        longest = max(longest, perf_counter() - t0)
        elapsed = perf_counter() - started
        if len(plain) >= min_workers and elapsed + longest > args.seconds:
            break

    everything = plain + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    correct = all(r["wrong"] == 0 for r in everything)
    cold = op_medians(plain, cold=True)
    op_tail, tail_pct = tail(cold)
    if args.trace:
        units = per_layer_units()
        values = {name: median([r["layers"].get(name, 0) for r in traced]) for name in units}
        values["trace.overhead_s"] = sum(op_medians(traced, cold=True)) - sum(cold)
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": median(setups),
            "cold_s": sum(cold),
            "warm_s": sum(op_medians(plain, cold=False)),
            "op_p50_ms": median(cold) * 1e3,
            "op_tail_ms": op_tail * 1e3,
            "fail_ratio": median([fail_ratio(r) for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": round(perf_counter() - started, 3), "workers": len(plain),
        "traced_workers": len(traced), "ops_per_pass": plain[0]["ops"],
        "tail_percentile": tail_pct,
        "speed": median([f for r in plain for sp in r["speed"] for f in sp]),
        "samples": {"setup_s": wall_setups, "latencies": [r["wall_latencies"] for r in plain],
                    "speed": [r["speed"] for r in plain],
                    "reference_s": [r["reference_s"] for r in plain]},
        "machine": machine(),
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    for metric, entry in metrics.items():
        print(f"{metric:42s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({k: v for k, v in report.items()
                      if k not in ("correct", "attempted", "failed", "metrics", "samples")}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
