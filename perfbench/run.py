"""modicalab benchmark runner.

    python3 perfbench/run.py --workload {suite,cx-probe,relax-ladder,orbits,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  For each workload the runner warms the
bytecode cache with one discarded `import modicalab.cli`, starts three
set-up-only workers and then the measuring worker, one at a time, each a
fresh single-threaded process.  It prints every metric by name and unit and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3  # set-up-only workers; setup_s is the median of these and the measuring worker
RUN_DEADLINE_S = 170.0  # the whole invocation must end within 180 s


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_worker(args, workload: str, role: str, deadline: float, setup_only: bool) -> dict:
    result = WORKDIR / f"{workload}-{role}.json"
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--root", str(ROOT), "--result", str(result),
    ] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} {role} worker exceeded the time limit") from e
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} {role} worker failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(result.read_text())


def tail(times: list) -> tuple[float, str]:
    """Value at the highest percentile with at least ten samples beyond it;
    the maximum when there are fewer than eleven samples."""
    xs = sorted(times)
    n = len(xs)
    if n >= 11:
        return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples (10 beyond it)"
    return xs[-1], f"max of {n} samples (fewer than 11, so no percentile has 10 beyond it)"


def end_to_end(setups: list, main: dict) -> tuple[dict, list]:
    ops = main["ops"]
    times = [o["seconds"] for o in ops]
    failed = sum(not o["ok"] for o in ops)
    tail_s, tail_note = tail(times)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "ops_per_s": len(times) / sum(times),
        "fail_frac": failed / len(ops),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = [
        f"op_s_tail: {tail_note}",
        f"setup_s: median of {len(setups)} fresh workers",
        f"fail_frac: {failed} of {len(ops)} operations failed",
    ]
    return values, notes


def per_layer(setups: list, main: dict, units: dict) -> tuple[dict, list]:
    ops = main["ops"]
    traced = [o for o in ops if o["traced"]]
    plain = [o["seconds"] for o in ops if not o["traced"]]
    setup = main["setup_layers"]
    values = {}
    for name, value in setup.items():
        per_op = [o["layers"][name] for o in traced]
        if name.endswith(".errors"):
            v = sum(per_op)
        elif units.get(name, "count") == "count":
            # counts repeat exactly for a seed: take operation 0, which is always traced
            v = per_op[0]
        else:
            v = statistics.median(per_op)
        # layers that run only in the workload's set-up report their set-up value
        values[name] = value if not any(per_op) and value else v
    traced_p50 = statistics.median(o["seconds"] for o in traced)
    values["trace.overhead_s"] = traced_p50 - statistics.median(plain)
    values["cli.import_s"] = statistics.median(r["import_s"] for r in setups)
    values["cli.write_bytes"] = ops[0]["info"].get("bytes", 0)
    notes = [
        f"traced operations: {len(traced)}, untraced: {len(plain)};"
        f" traced op_s_p50 {traced_p50!r} s",
        "timings are medians over traced operations, counts are those of operation 0;"
        " a layer that runs only in set-up reports its set-up value",
    ]
    return values, notes


def load_spec() -> dict:
    if not SPEC.is_file():
        raise BenchError(f"{SPEC.name} not found")
    return json.loads(SPEC.read_text())


def provenance() -> dict:
    src = ROOT / "src" / "modicalab"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {"nproc": len(os.sched_getaffinity(0)), "src_lines": lines, "runtime_deps": deps}


def run_workload(args, workload: str, spec: dict, deadline: float) -> tuple[dict, int, int]:
    setups = [run_worker(args, workload, f"setup{k}", deadline, True) for k in range(SETUP_PROBES)]
    main = run_worker(args, workload, "measure", deadline, False)
    setups.append(main)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    if args.trace:
        values, notes = per_layer(setups, main, units)
    else:
        values, notes = end_to_end(setups, main)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    ops = main["ops"]
    failed = sum(not o["ok"] for o in ops)
    print(f"workload {workload}: seed {args.seed} ({main['seed_note']});"
          f" closed loop, 1 client, {len(ops)} operations in {main['loop_s']:.2f} s")
    print("  waiting time: not applicable, operations run one at a time in one process")
    for note in notes:
        print(f"  {note}")
    for o in ops:
        if not o["ok"]:
            print(f"  FAILED operation {o['op']}: {json.dumps(o['info'])[:1500]}")
    for name in sorted(values):
        unit = units.get(name, "ratio")
        print(f"  {name:40s} {values[name]!r} {unit}")
    prov = {k: main[k] for k in ("python", "numpy", "scipy")}
    prov.update(provenance())
    print(f"  provenance: {json.dumps(prov, sort_keys=True)}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    return metrics, len(ops), failed


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        spec = load_spec()
    except (BenchError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "modicalab" / "__init__.py").is_file():
        print("error: no modicalab sources under src/; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        deadline += RUN_DEADLINE_S * (len(names) - 1)
    WORKDIR.mkdir(exist_ok=True)
    try:
        # warm the bytecode cache, as users have compiled .pyc files
        subprocess.run([sys.executable, "-c", "import modicalab.cli"], cwd=ROOT,
                       env=worker_env(), check=True, timeout=60)
        todo = names if args.workload == "all" else [args.workload]
        metrics, attempted, failed = {}, 0, 0
        for workload in todo:
            m, a, f = run_workload(args, workload, spec, deadline)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except (BenchError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
