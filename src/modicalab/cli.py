"""Command-line interface.

Exit codes: 0 when every requested check holds (or is vacuous), 1 when a
checked inequality is violated or a run fails, 2 for usage errors and for
checks whose hypotheses the supplied data does not satisfy.  Passing
--expect-violation inverts the 0/1 convention for checks that are supposed
to exhibit a violation.

Every check is one runner in CHECKS, keyed by the words that invoke it: a
function of one params dict returning (report, artifacts, ok).  The
subcommands and the suite dispatch through that table, and a subcommand
accepts only the flags and --params keys its selected runner reads.

All file artifacts are byte-reproducible: JSON is written with sorted keys and
repr floats, bulk arrays as `.npy` files, whose header is fixed, and
wall-clock time is printed to the console only, never stored.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from . import counterexample as cx
from . import dynamics, estimates, fields, planar, potentials, solver
from .estimates import DefectReport, HypothesisError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

GL2 = potentials.make_potential("ginzburg_landau", m=2)


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n")


def _write_artifacts(out: Path, artifacts: dict) -> None:
    """Write each artifact under its file name: dicts as JSON, anything else
    is a writer called with the path."""
    out.mkdir(parents=True, exist_ok=True)
    for name, artifact in artifacts.items():
        if isinstance(artifact, dict):
            write_json(out / name, artifact)
        else:
            artifact(out / name)


def _write_connection_artifacts(pc, path: Path) -> None:
    """The periodic connection's trajectory, in the Trajectory format."""
    dynamics.Trajectory(pc.times, pc.u, pc.v, pc.hamiltonian_series()).save(path)


# ---------------------------------------------------------------------------
# shared plumbing of the runners


def _field(p) -> tuple[fields.ClosedFormField, potentials.Potential]:
    """The catalog field p['field'], built from the params it takes, and the
    potential it solves against."""
    name = p["field"]
    f = fields.make_field(name, **{k: p[k] for k in fields.field_keys(name) if k in p})
    if name.startswith("gl_circle"):
        return f, GL2
    if name.startswith("tanh"):
        return f, potentials.make_potential("double_well")
    return f, potentials.make_potential("zero", m=f.m)


def _sample_points(f) -> np.ndarray:
    """Where the pointwise checks evaluate a field: 199 points of [-6, 6] on
    the line, a 33 x 33 grid of [-2, 2]^2 in the plane."""
    if f.n == 1:
        return np.linspace(-6.0, 6.0, 199)[:, None]
    xs = np.linspace(-2.0, 2.0, 33)
    return np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)


def _expected(report: dict, p) -> bool:
    """Whether a check's verdict is the one asked for: a violation exactly
    when --expect-violation is given."""
    return (report["verdict"] == "violated") == p["expect_violation"]


def _circular_orbit(R: float, dt: float):
    """One period of the circular orbit at R with step dt: (family, trajectory)."""
    fam = dynamics.orbit_family(R)
    cx._check_count("--dt", dt, fam.period / dt + 1.0)
    steps = int(math.ceil(fam.period / dt))
    return fam, dynamics.integrate(GL2, fam.start_state(), dt, steps, drift_tol=math.inf)


def _planar_grid(f, h: float) -> fields.GridField:
    """f sampled with spacing h on [-1, 1]^2."""
    if f.n != 2:
        raise ValueError(f"{f.name}: this check needs a planar field (n=2), got n = {f.n}")
    side = 2.0 / h + 1.0
    cx._check_count("--h", h, side * side)
    n = int(round(2.0 / h)) + 1
    return fields.sample_field(f, origin=(-1.0, -1.0), spacing=(h, h), extents=(n, n))


def _integer(p, key: str) -> int:
    """p[key] as an int: a value with a fractional part, or no finite number
    at all, is a usage error, not a value to truncate."""
    value = p[key]
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value == int(value)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _sampled_solution_gate(h: float) -> float:
    # sampled closed-form fields satisfy the discrete equation only to the
    # O(h^2) truncation, so the solves-the-system gates must scale with h^2
    return 1e-8 + 0.5 * h * h


# ---------------------------------------------------------------------------
# runners: params -> (report, artifacts, ok)


def _connection(p, verify: bool):
    pc = cx.assemble(dt=p["dt"])
    report = cx.verify_counterexample(pc, tol=p["tol"])
    artifacts = {
        "counterexample.json": report,
        "counterexample_trajectory.npy": functools.partial(_write_connection_artifacts, pc),
    }
    # a construction that fails its own checks is no verdict either way
    ok = report["checks_pass"] and (not verify or report["liouville_violated"] == p["expect_violation"])
    return report, artifacts, ok


def _orbit(p):
    R, dt = p["R"], p["dt"]
    fam, traj = p["orbit"](R, dt)
    report = {
        "R": R,
        "H": fam.H,
        "lambda": fam.lam,
        "mu": fam.mu,
        "period": fam.period,
        "dt": dt,
        "steps": len(traj.times) - 1,
        "measured_H_mean": float(np.mean(traj.H)),
        "drift": traj.drift(),
        "positive_defect": fam.H > 0.0,
    }
    # the integrated orbit conserves the closed-form H = (-3R^4 + 4R^2 - 1)/4
    ok = report["drift"] <= p["tol"] and abs(report["measured_H_mean"] - fam.H) <= p["tol"]
    return report, {"orbit.json": report, "orbit_trajectory.npy": traj.save}, ok


def _modica(p) -> DefectReport:
    if p["field"] == "counterexample":
        pc = cx.assemble(dt=1e-3 if p["dt"] is None else p["dt"])
        return DefectReport.from_margins(
            "modica", -pc.hamiltonian_series(), pc.u, p["tol"], constants={"lambda": pc.lam, "period": pc.T}
        )
    if p["dt"] is not None:
        raise ValueError("--dt is read only with --field counterexample")
    f, pot = _field(p)
    pts = _sample_points(f)
    return DefectReport.from_margins(
        "modica", -estimates.modica_defect(f.jets(pts), pot), pts, p["tol"],
        constants={"field": p["field"], "potential": pot.name},
    )


def _theorem_31(p) -> DefectReport:
    m = _integer(p, "m")
    D = np.ones(m) if p["D"] is None else np.asarray(p["D"], float)
    A = np.eye(m) if p["A"] is None else np.asarray(p["A"], float)
    cfg = estimates.DiagonalSystemConfig(D=D, A=A, M=float(p["M"]))
    return estimates.diagonal_system_check(cfg, g=None, tol=p["tol"])


def _theorem_32(p) -> DefectReport:
    pot = potentials.make_potential("ginzburg_landau", m=_integer(p, "m"))
    return estimates.ball_confinement_check(pot, None, R=float(p["R"]), tol=p["tol"])


def _theorem_33(p) -> DefectReport:
    if not p["field"].startswith("gl_circle"):
        raise HypothesisError("the quartic radial-well bound applies to the circular-orbit fields")
    f, _ = _field(p)
    pts = _sample_points(f)
    R = f.params["R"]
    return DefectReport.from_margins(
        "radial-well-bound", estimates.gl_pointwise_bound(f.jets(pts)), pts, p["tol"],
        constants={"field": p["field"], "R": R, "expected_margin": 0.5 * (1.0 - R * R) ** 2},
    )


def _theorem_34(p) -> DefectReport:
    eps = float(p["eps"])
    _, traj = p["orbit"](float(p["R"]), p["dt"])
    barrier_stats = estimates.PhiBarrier(eps=eps).validate()
    report = estimates.ode_bound_check(traj, GL2, tol=p["tol"])
    return dataclasses.replace(
        report, constants={**report.constants, "barrier": barrier_stats, "eps": eps}
    )


def _theorem_35(p) -> DefectReport:
    return estimates.convex_well_check(potentials.make_potential("double_well"), None, tol=p["tol"])


def _polygon(p) -> DefectReport:
    if p["vertices"] is not None:
        verts = np.asarray(p["vertices"], float)
    else:
        N = _integer(p, "N")
        ang = 2.0 * math.pi * np.arange(N) / N
        radius = float(p["radius"])
        if not math.isfinite(radius):
            raise ValueError(f"radius must be finite, got {radius!r}")
        verts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return estimates.polygon_confinement_check(
        verts, n_samples=_integer(p, "n_samples"), seed=p["seed"], tol=p["tol"]
    )


def _tensor(p):
    (f, pot), h = _field(p), p["h"]
    grid = functools.cache(lambda hh: _planar_grid(f, hh))
    pair = planar.divergence_pair(grid, pot, h, gate=_sampled_solution_gate(h))
    pair["compatibility_residual"] = planar.compatibility_residual(grid(h), pot)
    # fields with constant stress tensor sit at roundoff on both grids
    ok = pair["residual_h2"] < pair["residual_h"] or max(pair["residual_h"], pair["residual_h2"]) <= 1e-10
    return pair, {"tensor.json": pair}, ok


def _ufield(p):
    (f, pot), h = _field(p), p["h"]
    rec = planar.reconstruct_U(_planar_grid(f, h), pot, gate=_sampled_solution_gate(h))
    gate = 50.0 * h * h if p["tol"] is None else p["tol"]
    report = {
        "path_defect": rec.path_defect,
        "laplacian_defect": rec.laplacian_defect,
        "gauge_index": list(rec.gauge_index),
        "h": h,
        "gate": gate,
    }
    artifacts = {"ufield.json": report, "ufield.npy": functools.partial(fields.save_gridfield, rec.grid)}
    return report, artifacts, max(rec.path_defect, rec.laplacian_defect) <= gate


def _convexity(p):
    f, pot = _field(p)
    pts = _sample_points(f)
    margins = planar.convexity_margin(f.jets(pts), pot)
    report = DefectReport.from_margins(
        "u-convexity", margins, pts, p["tol"], constants={"field": p["field"]}
    ).to_dict()
    return report, {"convexity.json": report}, _expected(report, p)


def _green(p):
    f, pot = _field(p)
    result = planar.green_boundary_identity(f, pot, np.asarray(p["center"], float), float(p["radius"]))
    result["field"] = p["field"]
    return result, {"green.json": result}, result["defect"] <= p["tol"]


def _monotone(p):
    f, pot = _field(p)
    radii = np.linspace(0.25, 2.0, 8) if p["radii"] is None else p["radii"]
    profile = planar.monotonicity_profile(p["density"], f, pot, np.asarray(p["center"], float), radii)
    report = {
        "density": profile.density,
        "center": list(profile.center),
        "radii": list(profile.radii),
        "values": list(profile.values),
        "errors": list(profile.errors),
        "monotone": profile.is_monotone(),
    }
    return report, {"monotone.csv": profile.to_csv, "monotone.json": report}, report["monotone"]


def _relax(p):
    cfg_json = p["config"]
    if not isinstance(cfg_json, dict):
        with open(cfg_json) as fh:
            cfg_json = json.load(fh)
    required = ("potential", "domain", "boundary")
    if not (isinstance(cfg_json, dict) and all(k in cfg_json for k in required)):
        raise ValueError("the relax config must be a JSON object with the keys " + ", ".join(required))
    pot_spec, dom, bspec = (cfg_json[k] for k in required)
    pot = potentials.make_potential(pot_spec["name"], **pot_spec.get("params", {}))
    cfg = solver.RelaxConfig(
        origin=tuple(dom["origin"]),
        spacing=tuple(dom["spacing"]),
        shape=tuple(dom["shape"]),
        boundary=fields.make_field(bspec["field"], **bspec.get("params", {})),
        max_iters=_integer({"max_iters": 50_000, **cfg_json}, "max_iters"),
        tol=float(p["tol"] if p["tol"] is not None else cfg_json.get("tol", 1e-8)),
    )
    result = solver.relax(pot, cfg)
    log = solver.run_log(result)
    report = {**log, "levels": result.levels, "energy": solver.energy(result.field, pot)}
    artifacts = {"relax.json": log, "relax_field.npy": functools.partial(fields.save_gridfield, result.field)}
    return report, artifacts, result.converged


# runners that only the suite calls: each combines the runners above, or a
# relaxation, into one verdict of the paper


def _convexity_dichotomy(p):
    """U is convex on the GL circle solutions with R^2 < 1/3 and not above."""
    below, _, holds = CHECKS["planar convexity"]({**p, "R": math.sqrt(0.3)})
    above, _, fails = CHECKS["planar convexity"]({**p, "R": math.sqrt(0.5), "tol": 1e-6,
                                                  "expect_violation": True})
    report = {
        "margin_below_threshold": below["worst_margin"],
        "margin_above_threshold": above["worst_margin"],
    }
    return report, {"convexity.json": report}, holds and fails


def _monotone_profiles(p):
    """M(r) of Lap |x|^2 is exactly 4 pi r; M(r) of W(u) is nondecreasing on
    the tanh front."""
    exact, exact_art, ok_exact = CHECKS["planar monotone"]({**p, "density": "laplacian_quadratic"})
    _, front_art, ok_front = CHECKS["planar monotone"]({**p, "field": "tanh_planar"})
    error = np.max(np.abs(np.asarray(exact["values"]) - 4.0 * math.pi * np.asarray(exact["radii"])))
    artifacts = {"monotone_quadratic.csv": exact_art["monotone.csv"],
                 "monotone_potential.csv": front_art["monotone.csv"]}
    return {"exact_error": float(error)}, artifacts, ok_exact and ok_front and error < 1e-10


def _divergence_decay(p):
    """div T of the relaxed GL solution with linear-map boundary data decays
    at second order away from the corners."""
    bdry = fields.make_field("harmonic_linear_map")

    def relaxed(hh):
        n = int(round(1.0 / hh)) + 1
        cfg = solver.RelaxConfig(
            origin=(-0.5, -0.5), spacing=(hh, hh), shape=(n, n),
            boundary=bdry, max_iters=400_000, tol=1e-10,
        )
        return solver.relax(GL2, cfg).field

    pair = planar.divergence_pair(relaxed, GL2, 0.05, margin=0.15)
    return pair, {"tensor.json": pair}, 3.5 <= pair["ratio"] <= 4.5


def _transition_profile(p):
    """The relaxed tanh strip carries the line transition energy 2 sqrt(2)/3
    times the strip height 0.5."""
    strip = {
        "potential": {"name": "double_well"},
        "domain": {"origin": [-4.0, 0.0], "spacing": [0.1, 0.1], "shape": [81, 6]},
        "boundary": {"field": "tanh_planar"},
        "max_iters": 20_000,
        "tol": 1e-8,
    }
    report, artifacts, ok = CHECKS["relax"]({**p, "config": strip})
    return report, artifacts, ok and abs(report["energy"] - 2.0 * math.sqrt(2.0) / 3.0 * 0.5) < 5e-3


# ---------------------------------------------------------------------------
# the table


@dataclasses.dataclass(frozen=True)
class Check:
    """One runner with the command-line flags and the --params keys it reads,
    each with its default (a field's own keys come from its catalog entry)."""

    run: Callable[[dict], tuple]
    flags: dict = dataclasses.field(default_factory=dict)
    keys: dict = dataclasses.field(default_factory=dict)
    say: Callable[[dict], list] = lambda report: []
    summary: str = ""

    def __call__(self, given: dict):
        """(report, artifacts, ok) for the given params over the defaults.
        'orbit' maps (R, dt) to the circular orbit; the suite shares one."""
        return self.run({"orbit": _circular_orbit, **self.flags, **self.keys, **given})


def _say_connection(r):
    return [
        f"periodic connection: period {r['T']!r}, lambda {r['lambda']!r}",
        f"  equation residual (sup)      {r['residual_max']:.3e}",
        f"  0.5|u'|^2 - W(u)   mean      {r['modica_defect']!r}",
        f"                     spread    {r['modica_defect_spread']:.3e}",
        f"  gradient-bound violated:     {r['liouville_violated']}",
        f"  internal checks pass:        {r['checks_pass']}",
    ]


def _say_estimate(r):
    worst = "n/a" if r["worst_margin"] is None else f"{r['worst_margin']!r}"
    return [f"check {r['id']}: verdict {r['verdict']} ({r['samples']} samples, worst margin {worst})"]


def _estimate(token: str, check: Callable[[dict], DefectReport], flags: dict, keys=None, *,
              summary: str) -> Check:
    """The table entry of an estimate: `check(params)` gives its DefectReport."""
    def run(p):
        report = check(p).to_dict()
        return report, {f"estimate_{token.replace('.', '_')}.json": report}, _expected(report, p)
    return Check(run, {**flags, "expect_violation": False}, keys or {}, _say_estimate, summary)


_GL = "gl_circle_planar"
_CENTER = (0.0, 0.0)

CHECKS = {
    "counterexample build": Check(
        functools.partial(_connection, verify=False), {"tol": 1e-7, "dt": 1e-3}, say=_say_connection),
    "counterexample verify": Check(
        functools.partial(_connection, verify=True),
        {"tol": 1e-7, "dt": 1e-3, "expect_violation": False}, say=_say_connection),
    "orbit": Check(_orbit, {"R": None, "tol": 1e-6, "dt": 1e-3}, say=lambda r: [
        f"orbit R={r['R']!r}: H = {r['H']!r} (defect {'positive' if r['positive_defect'] else 'nonpositive'})",
        f"  period {r['period']!r}, measured drift {r['drift']:.3e} over one period",
    ]),
    "estimates modica": _estimate(
        "modica", _modica, {"tol": 1e-9, "field": "tanh_planar", "dt": None},
        summary="pointwise gradient bound 0.5|grad u|^2 <= W(u) on a field"),
    "estimates 3.1": _estimate(
        "3.1", _theorem_31, {"tol": 1e-7}, {"m": 2, "D": None, "A": None, "M": 1.0},
        summary="diagonal reaction-diffusion system: P-function constants and bound"),
    "estimates 3.2": _estimate(
        "3.2", _theorem_32, {"tol": 1e-7}, {"m": 2, "R": 1.0},
        summary="confinement to a ball and the resulting gradient estimate"),
    "estimates 3.3": _estimate(
        "3.3", _theorem_33, {"tol": 1e-10, "field": _GL},
        summary="quartic radial well: 0.5|grad u|^2 <= sqrt(W(u))"),
    "estimates 3.4": _estimate(
        "3.4", _theorem_34, {"tol": 1e-7, "dt": 1e-3}, {"R": 0.5, "eps": 0.01},
        summary="one-dimensional refined kinetic-energy envelope and barrier"),
    "estimates 3.5": _estimate(
        "3.5", _theorem_35, {"tol": 1e-7},
        summary="convex-well floor: when small gradients force the estimate"),
    "estimates polygon": _estimate(
        "polygon", _polygon, {"tol": 1e-12, "seed": 0},
        {"vertices": None, "N": 5, "radius": 1.0, "n_samples": 100},
        summary="product potential on a convex polygon: radial confinement"),
    "planar tensor": Check(_tensor, {"field": _GL, "h": 0.02}, say=lambda r: [
        f"div T residual: {r['residual_h']:.3e} at h={r['h']!r},"
        f" {r['residual_h2']:.3e} at h/2 (ratio {r['ratio']:.2f})"]),
    "planar ufield": Check(_ufield, {"field": _GL, "h": 0.02, "tol": None}, say=lambda r: [
        f"U reconstruction: path defect {r['path_defect']:.3e},"
        f" Lap U - 4W defect {r['laplacian_defect']:.3e}"]),
    "planar convexity": Check(
        _convexity, {"field": _GL, "tol": 1e-12, "expect_violation": False}, say=lambda r: [
            f"convexity of U: verdict {r['verdict']}, worst margin {r['worst_margin']!r}"]),
    "planar green": Check(
        _green, {"field": _GL, "tol": 1e-6}, {"center": _CENTER, "radius": 1.0}, say=lambda r: [
            f"Green identity: lhs {r['lhs']!r} rhs {r['rhs']!r} defect {r['defect']:.3e}"]),
    "planar monotone": Check(
        _monotone, {"field": _GL, "density": "potential"}, {"center": _CENTER, "radii": None},
        say=lambda r: [f"profile M(r), density {r['density']}: "
                       + ("nondecreasing" if r["monotone"] else "NOT monotone")]),
    "relax": Check(_relax, {"config": None, "tol": None}, say=lambda r: [
        f"relaxed {r['iters']} cycles on {r['levels']} levels, residual {r['residual']:.3e},"
        f" energy {r['energy_first']!r} -> {r['energy_last']!r}"]),
    "suite convexity-dichotomy": Check(_convexity_dichotomy),
    "suite monotone-profiles": Check(_monotone_profiles),
    "suite divergence-decay": Check(_divergence_decay),
    "suite transition-profile": Check(_transition_profile),
}

# units of (step, check, params), costliest first: workers claim whole units,
# so the steps of one unit share its per-run cache (the R = 0.5 orbit), and
# the verdicts print in this order.  Each step writes the artifacts its runner
# returns, under file names no other step writes.
SUITE = (
    (("orbit-hamiltonian", "orbit", {"R": 0.5}),
     ("estimate-3.4-envelope", "estimates 3.4", {})),
    (("planar-divergence-decay", "suite divergence-decay", {}),),
    (("counterexample-violation", "counterexample verify", {"expect_violation": True}),),
    (("relax-transition-profile", "suite transition-profile", {}),),
    (("estimate-3.2-constants", "estimates 3.2", {}),),
    (("planar-monotone-profiles", "suite monotone-profiles", {}),),
    (("planar-u-reconstruction", "planar ufield", {}),),
    (("estimate-3.1-constants", "estimates 3.1", {}),),
    (("planar-green-identity", "planar green", {}),),
    (("estimate-polygon", "estimates polygon", {}),),
    (("estimate-3.5-floor", "estimates 3.5", {}),),
    (("planar-convexity-dichotomy", "suite convexity-dichotomy", {}),),
    (("estimate-modica-profile", "estimates modica", {}),),
    (("estimate-3.3-margin", "estimates 3.3", {"R": 0.9}),),
)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_units(queue: int, out: Path, orbit, send) -> None:
    """Claim unit indices from the pipe `queue` until it is empty and run
    their steps, writing the artifacts under `out`: send(unit) on each claim,
    then send([step, ok, error, seconds]) after each of its steps."""
    while claim := os.read(queue, 1):
        send(claim[0])
        for step, words, params in SUITE[claim[0]]:
            t0, error = time.perf_counter(), None
            try:
                _, artifacts, ok = CHECKS[words]({**params, "orbit": orbit})
                _write_artifacts(out, artifacts)
            except Exception as e:  # noqa: BLE001 -- suite reports, never crashes
                ok, error = False, str(e)
            send([step, bool(ok), error, time.perf_counter() - t0])


def run_suite(out: Path) -> int:
    """Run every suite step, writing its artifacts under `out`; a step that
    raises fails, and the suite goes on.

    One worker per usable CPU, this process among them, claims units from a
    pipe holding one byte per unit index; a one-byte read is atomic, so each
    unit runs exactly once.  Forked workers send their messages back as JSON
    lines on a pipe of their own, and this process prints the verdicts in
    table order, then each step's wall time on stderr.  The steps of a unit
    whose worker died fail with the worker's exit status."""
    orbit = functools.cache(_circular_orbit)  # one integration per orbit per run
    queue, fill = os.pipe()
    os.write(fill, bytes(range(len(SUITE))))
    os.close(fill)
    sent, pipes, status = {0: []}, {}, {0: 0}  # by worker pid, 0 for this process
    try:
        for _ in range(min(_usable_cpus(), len(SUITE)) - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # the workers running drain the queue
                os.close(r)
                os.close(w)
                break
            if pid == 0:  # a worker: it never returns into the caller
                code = 1
                try:
                    os.close(r)
                    _run_units(queue, out, orbit, lambda m: os.write(w, json.dumps(m).encode() + b"\n"))
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            pipes[pid] = r
        _run_units(queue, out, orbit, lambda m: sent[0].append(json.dumps(m)))
    finally:
        os.close(queue)
        for pid, r in pipes.items():
            with open(r, "rb") as fh:
                sent[pid] = fh.read().splitlines()
            status[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    steps = [step for unit in SUITE for step, _, _ in unit]
    rows = dict.fromkeys(steps, (False, "no worker reported this step", 0.0))  # step -> (ok, error, seconds)
    for pid, messages in sent.items():
        for m in map(json.loads, messages):
            if isinstance(m, int):  # a claimed unit fails unless its rows arrive
                rows.update(dict.fromkeys((step for step, _, _ in SUITE[m]),
                                          (False, f"worker exited with status {status[pid]}", 0.0)))
            else:
                rows[m[0]] = tuple(m[1:])
    for step in steps:
        ok, error, _ = rows[step]
        if error is not None:
            print(f"ERROR {step}: {error}", file=sys.stderr)
        print(f"{'PASS' if ok else 'FAIL'}  {step}")
    passed = sum(rows[step][0] for step in steps)
    print(f"suite: {passed}/{len(steps)} checks passed")
    for step in steps:
        print(f"{step:28s} {1e3 * rows[step][2]:7.1f} ms", file=sys.stderr)
    return EXIT_OK if passed == len(steps) else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser


def _positive_finite(text: str) -> float:
    """argparse type of --dt and --h: a positive, finite float."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


# every flag a runner may read, in the order --help lists them
FLAGS = {
    "R": dict(type=float, required=True, help="orbit radius in (0, 1)"),
    "config": dict(required=True, help="JSON run configuration"),
    "field": dict(help="catalog field id"),
    "params": dict(help="JSON object of parameters"),
    "density": dict(choices=planar._DENSITIES, help="profile density (default potential)"),
    "tol": dict(type=_tolerance, help="override the check tolerance"),
    "dt": dict(type=_positive_finite, help="integration step"),
    "h": dict(type=_positive_finite, help="grid spacing"),
    "seed": dict(type=int, help="seed for sampled checks"),
    "expect_violation": dict(action="store_true", help="exit 0 iff the check reports a violation"),
}

# command -> (help, the argument selecting its check)
COMMANDS = {
    "counterexample": ("build or verify the periodic connection", "mode"),
    "orbit": ("circular orbit of the quartic radial well", None),
    "estimates": ("run a named inequality check", "--theorem"),
    "planar": ("stress tensor, auxiliary function, monotonicity", "op"),
    "relax": ("Dirichlet relaxation on a rectangle", None),
    "suite": ("run the full battery and write artifacts", None),
}


def _reads(check: Check) -> set:
    """The flags a check reads; --params when it takes keys or a field."""
    return set(check.flags) | ({"params"} if check.keys or "field" in check.flags else set())


def _command_checks(command: str) -> dict:
    """The checks of one command, keyed by the value that selects them."""
    return {w.partition(" ")[2]: c for w, c in CHECKS.items() if w.split(" ")[0] == command}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modicalab",
        description="Numerical checks for gradient bounds of semilinear elliptic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, selector) in COMMANDS.items():
        # absent flags stay out of the namespace, so only given ones are checked
        sp = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        checks = _command_checks(command)
        if selector == "--theorem":
            sp.add_argument("--theorem", choices=tuple(checks))
            sp.add_argument("--list-checks", action="store_true", help="list check ids and exit")
        elif selector is not None:
            sp.add_argument(selector, choices=tuple(checks))
        sp.add_argument("--out", help="directory for artifacts")
        if command != "suite":
            sp.add_argument("--json", action="store_true", help="print the report as JSON")
        read = set().union(*map(_reads, checks.values()))
        for flag in (f for f in FLAGS if f in read):
            sp.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag])
    return parser


def _parse_params(parser, raw, words: str, check: Check, field) -> dict:
    """The --params JSON object, holding only keys the check reads."""
    if raw is None:
        return {}
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as e:
        parser.error(f"--params is not valid JSON: {e}")
    if not isinstance(params, dict):
        parser.error("--params must be a JSON object")
    accepted = sorted({*check.keys, *fields.field_keys(field)})
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        parser.error(f"--params: {words} takes no key {', '.join(unknown)};"
                     f" accepted keys: {', '.join(accepted) or 'none'}")
    return params


def _dispatch(parser, args: dict) -> int:
    command, out = args.pop("command"), args.pop("out", None)
    if command == "suite":
        return run_suite(Path(out or "artifacts"))
    as_json = args.pop("json", False)
    if args.pop("list_checks", False):
        for token, check in _command_checks(command).items():
            print(f"{token:8s} {check.summary}")
        return EXIT_OK
    selector_arg = COMMANDS[command][1]
    selector = args.pop(selector_arg.lstrip("-"), None) if selector_arg else None
    words = command if selector is None else f"{command} {selector}"
    if words not in CHECKS:
        parser.error(f"{command} needs --theorem (or --list-checks)")
    check = CHECKS[words]
    unread = sorted(set(args) - _reads(check))
    if unread:
        parser.error(f"{words} does not read " + ", ".join("--" + f.replace("_", "-") for f in unread))
    raw = args.pop("params", None)
    params = _parse_params(parser, raw, words, check, args.get("field", check.flags.get("field")))
    report, artifacts, ok = check({**args, **params})
    if out is not None:
        _write_artifacts(Path(out), artifacts)
    print(json.dumps(_jsonify(report), sort_keys=True) if as_json else "\n".join(check.say(report)))
    return EXIT_OK if ok else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    t0 = time.perf_counter()
    try:
        # overflow is refused, not read as a verdict; the kernels' own errstate wins
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rc = _dispatch(parser, args)
    except HypothesisError as e:
        print(f"hypothesis not satisfied: {e}", file=sys.stderr)
        rc = EXIT_USAGE
    except (cx.ConstructionError, solver.RelaxError, dynamics.BlowUpError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        rc = EXIT_VIOLATION
    except (ValueError, KeyError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        rc = EXIT_USAGE
    finally:
        elapsed = time.perf_counter() - t0
        print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
