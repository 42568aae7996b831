"""One fresh benchmark process.

    python3 perfbench/worker.py WORKLOAD SEED [--smoke] [--trace SPANS_PATH]

run.py starts it with the checkout's src/ first on PYTHONPATH.  Set-up is
interpreter start, zeroruns imported (zeroruns.cli too for the cli workload)
and the inputs generated; the worker prints READY when it ends.  Only then
does it import the harness (passes.py and what that needs), run the passes
and print one JSON line of results.  The interpreter's default recursion
limit and thread stack are left as they are.
"""

import sys
from os import path

HERE = path.dirname(path.abspath(__file__))
SRC = path.join(path.dirname(HERE), "src")
sys.path.insert(0, SRC)


def main() -> int:
    workload, seed, *flags = sys.argv[1:]
    spans_path = flags[flags.index("--trace") + 1] if "--trace" in flags else None

    import zeroruns

    if path.dirname(path.abspath(zeroruns.__file__)) != path.join(SRC, "zeroruns"):
        raise SystemExit(f"zeroruns imported from {zeroruns.__file__}, not {SRC}")
    if workload == "cli":
        import zeroruns.cli  # noqa: F401  the module every command runs
    import workloads

    ops = workloads.GENERATORS[workload](int(seed), "--smoke" in flags)
    print("READY", flush=True)

    import json
    from pathlib import Path

    import passes

    result = passes.run(zeroruns, workload, ops, spans_path and Path(spans_path))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
