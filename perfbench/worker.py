"""Benchmark worker: runs one workload in a fresh single-threaded process.

Started by run.py, one worker at a time.  The worker times its own set-up
(from its first line to just before its first operation, so including
`import modicalab.cli`), then runs operations in a closed loop until
`--seconds` have passed, and writes a JSON result file.  With `--trace 1`
it wraps the program's public functions and traces every other operation,
starting with operation 0, so traced and untraced operations of the same
process give the tracing overhead.
"""

import time

T_FIRST_LINE = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _plain(obj):
    """JSON fallback for numpy scalars."""
    return obj.item() if hasattr(obj, "item") else str(obj)


def run_ops(wl, seconds: float, tracer=None) -> list:
    """Closed loop: run operations until `seconds` have passed.  Every
    operation is checked; one that raises or fails its check is recorded as
    failed and the loop goes on.  With a tracer, even operations are traced."""
    ops = []
    loop_start = time.perf_counter()
    op = 0
    while True:
        inp = wl.inputs(op)
        traced = tracer is not None and op % 2 == 0
        if traced:
            tracer.op, lo, tracer.enabled = op, len(tracer.spans), True
        t0 = time.perf_counter()
        try:
            out, error = wl.run(inp), None
        except Exception:  # noqa: BLE001 -- a raising operation is a failed operation
            out, error = None, traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                ok, info = wl.check(inp, out)
            except Exception:  # noqa: BLE001 -- a check that raises fails the operation
                ok, info = False, {"error": traceback.format_exc(limit=4)}
        else:
            ok, info = False, {"error": error}
        record = {"op": op, "seconds": t1 - t0, "ok": bool(ok), "traced": traced, "info": info}
        if traced:
            record["layers"] = tracer.layer_values(lo, len(tracer.spans))
        ops.append(record)
        op += 1
        # a traced run needs one untraced operation for the overhead
        if time.perf_counter() - loop_start >= seconds and (tracer is None or op >= 2):
            return ops


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    root = Path(args.root)
    workdir = root / ".perfbench_out"

    t = time.perf_counter()
    import modicalab.cli  # noqa: F401  -- the import users pay for

    import_s = time.perf_counter() - t

    import numpy
    import scipy

    import tracer as tr
    import workloads

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tr.install(tracer)
        tracer.enabled = True
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, root / "src")
    setup_s = time.perf_counter() - T_FIRST_LINE
    result = {
        "workload": args.workload,
        "seed_note": wl.seed_note,
        "setup_s": setup_s,
        "import_s": import_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        tracer.enabled = False
        result["setup_layers"] = tracer.layer_values(0, len(tracer.spans))

    if not args.setup_only:
        loop_start = time.perf_counter()
        result["ops"] = run_ops(wl, args.seconds, tracer)
        result["loop_s"] = time.perf_counter() - loop_start
    result.setdefault("ops", [])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and not args.setup_only:
        tracer.save(workdir / f"spans-{args.workload}.npz")
    Path(args.result).write_text(json.dumps(result, default=_plain))


if __name__ == "__main__":
    main()
