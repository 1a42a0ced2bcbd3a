"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The smoke runs take about two minutes: every workload runs once per trace
mode with a one-second measuring window.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tr
import workloads
from worker import run_ops

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("suite", "cx-probe", "relax-ladder", "orbits")

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

MODULES = ("cli", "counterexample", "smooth", "potentials", "dynamics", "solver", "planar", "fields", "estimates")
PER_LAYER = {
    "cli.import_s": "s",
    "cli.write_s": "s",
    "cli.write_bytes": "B",
    "counterexample.solve_segment_s": "s",
    "counterexample.build_curve_s": "s",
    "counterexample.verify_s": "s",
    "counterexample.w_us_per_pt": "us",
    "counterexample.grad_us_per_pt": "us",
    "counterexample.hess_us_per_pt": "us",
    "counterexample.project_calls": "count",
    "counterexample.project_us_per_pt": "us",
    "smooth.calls": "count",
    "potentials.grad_calls": "count",
    "potentials.grad_self_s": "s",
    "dynamics.steps": "count",
    "dynamics.verlet_us_per_step": "us",
    "dynamics.heteroclinic_s": "s",
    "solver.sweeps_to_tol.h0.05": "count",
    "solver.sweeps_to_tol.h0.025": "count",
    "solver.us_per_sweep.h0.025": "us",
    "solver.grad_evals_per_sweep": "1/sweep",
    "planar.divergence_residual_s": "s",
    "planar.disk_integral_s": "s",
    "planar.green_s": "s",
    "planar.monotone_s": "s",
    "planar.reconstruct_U_s": "s",
    "fields.grid_jets_us_per_node": "us",
    "fields.jet_calls": "count",
    "fields.jet_self_s": "s",
    "estimates.speed_envelope_s": "s",
    "trace.overhead_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{m}.errors": "count" for m in MODULES},
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=900
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.fixture(scope="module")
def smoke():
    """All four workloads, untraced and traced, seed 3, one-second window."""
    out = {}
    for trace in (0, 1):
        rc, lines = bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", str(trace))
        assert rc == 0, lines[-20:]
        out[trace] = (json.loads(lines[-1]), lines)
    return out


@pytest.fixture(scope="module")
def cx_probe():
    return workloads.CxProbe(1, ROOT / ".perfbench_out", ROOT / "src")


def test_spec_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: layers.get(k) for k in PER_LAYER} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(workloads.WORKLOADS) == set(WORKLOADS)


@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_every_metric_appears_with_its_unit(smoke, trace, expected):
    result, lines = smoke[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 4
    for w in WORKLOADS:
        for name, unit in expected.items():
            metric = result["metrics"][f"{w}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
    printed = {tuple(line.split()[::2]) for line in lines if line.startswith("  ") and len(line.split()) == 3}
    for name, unit in expected.items():
        assert (name, unit) in printed


def test_output_states_what_is_not_measured(smoke):
    _, lines = smoke[0]
    text = "\n".join(lines)
    assert text.count("waiting time: not applicable") == len(WORKLOADS)
    assert "seed unused" in text
    assert text.count("fail_frac: 0 of") == len(WORKLOADS)
    assert '"src_lines"' in text and '"runtime_deps"' in text and '"nproc"' in text


def test_two_seeds_give_different_cx_points(cx_probe):
    wl = copy.copy(cx_probe)
    first = wl.inputs(0)["points"]
    assert np.array_equal(first, wl.inputs(0)["points"])
    assert not np.array_equal(first, wl.inputs(1)["points"])
    wl.seed = 2
    assert not np.array_equal(first, wl.inputs(0)["points"])


def test_one_seed_repeats_the_counts(smoke):
    metrics = smoke[1][0]["metrics"]
    for workload, names in (
        ("relax-ladder", ("solver.sweeps_to_tol.h0.05", "solver.sweeps_to_tol.h0.025", "potentials.grad_calls")),
        ("orbits", ("dynamics.steps", "potentials.grad_calls")),
    ):
        rc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert rc == 0
        again = json.loads(lines[-1])["metrics"]
        for name in names:
            assert again[name]["value"] == metrics[f"{workload}.{name}"]["value"] > 0


def test_a_wrong_reference_value_fails_the_operation(cx_probe):
    wl = copy.copy(cx_probe)
    wl.reference = dict(cx_probe.reference, w=[w + 1e-6 for w in cx_probe.reference["w"]])
    ops = run_ops(wl, 0.0)
    assert len(ops) == 1 and not ops[0]["ok"]
    assert ops[0]["info"]["ref_w"] > workloads.REF_TOL["w"]


def test_a_swapped_potential_is_a_failed_operation(cx_probe):
    wl = copy.copy(cx_probe)
    wl.potential = workloads.potentials.make_potential("double_well")
    ops = run_ops(wl, 0.0)
    assert len(ops) == 1 and not ops[0]["ok"] and "error" in ops[0]["info"]
    values, _ = run.end_to_end([{"setup_s": 1.0}], {"ops": ops, "peak_rss_mb": 1.0})
    assert values["fail_frac"] == 1.0


def test_the_seed_commit_passes_its_own_checks(cx_probe):
    ops = run_ops(copy.copy(cx_probe), 0.0)
    assert ops[0]["ok"], ops[0]["info"]


def test_tracer_wraps_every_binding():
    from modicalab import dynamics, estimates, fields, planar, potentials

    tracer = tr.Tracer()
    assert tr.install(tracer) > 50
    assert estimates.integrate is dynamics.integrate and hasattr(dynamics.integrate, "__wrapped__")
    assert planar.grid_jets is fields.grid_jets is estimates.grid_jets
    p = potentials.make_potential("ginzburg_landau", m=2)
    fam = dynamics.orbit_family(0.5)
    tracer.enabled = True
    estimates.integrate(p, fam.start_state(), 1e-3, 10)
    tracer.enabled = False
    v = tracer.layer_values(0, len(tracer.spans))
    assert v["dynamics.steps"] == 10 and v["potentials.grad_calls"] == 10
    assert v["dynamics.self_s"] > 0.0


def test_a_directory_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench("--workload", "suite", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
