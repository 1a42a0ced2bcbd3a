"""Command-line interface.

Exit codes: 0 when every requested check holds (or is vacuous), 1 when a
checked inequality is violated or a run fails, 2 for usage errors and for
checks whose hypotheses the supplied data does not satisfy.  Passing
--expect-violation inverts the 0/1 convention for checks that are supposed
to exhibit a violation.

All file artifacts are byte-reproducible: JSON is written with sorted keys,
floats with repr round-trip precision, and wall-clock time is printed to the
console only, never stored.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import counterexample as cx
from . import dynamics, estimates, fields, planar, potentials, solver
from .estimates import HypothesisError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

THEOREM_TOKENS = ("modica", "3.1", "3.2", "3.3", "3.4", "3.5", "polygon")

_CHECK_SUMMARIES = {
    "modica": "pointwise gradient bound 0.5|grad u|^2 <= W(u) on a field",
    "3.1": "diagonal reaction-diffusion system: P-function constants and bound",
    "3.2": "confinement to a ball and the resulting gradient estimate",
    "3.3": "quartic radial well: 0.5|grad u|^2 <= sqrt(W(u))",
    "3.4": "one-dimensional refined kinetic-energy envelope and barrier",
    "3.5": "convex-well floor: when small gradients force the estimate",
    "polygon": "product potential on a convex polygon: radial confinement",
}


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


def _emit(args, report: dict, lines) -> None:
    if getattr(args, "json", False):
        print(json.dumps(_jsonify(report), sort_keys=True))
    else:
        for line in lines:
            print(line)


def _out_dir(args) -> Path | None:
    out = getattr(args, "out", None)
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_params(parser, raw):
    if raw is None:
        return {}
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as e:
        parser.error(f"--params is not valid JSON: {e}")
    if not isinstance(params, dict):
        parser.error("--params must be a JSON object")
    return params


# ---------------------------------------------------------------------------
# field / potential plumbing


def _field_potential(name: str, f) -> potentials.Potential:
    """The potential a catalog field solves against."""
    if name.startswith("gl_circle"):
        return potentials.make_potential("ginzburg_landau", m=2)
    if name.startswith("tanh"):
        return potentials.make_potential("double_well")
    return potentials.make_potential("zero", m=f.m)


def _sample_points(f, box: float = 2.0, n: int = 33) -> np.ndarray:
    if f.n == 1:
        return np.linspace(-3.0 * box, 3.0 * box, 6 * n + 1)[:, None]
    xs = np.linspace(-box, box, n)
    return np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)


def _jet_margins(f, fn, box: float = 2.0, n: int = 33):
    pts = _sample_points(f, box, n)
    margins = np.empty(len(pts))
    for i, x in enumerate(pts):
        margins[i] = fn(f.jet(x))
    return margins, pts


def _violation_exit(violated: bool, expect: bool) -> int:
    if expect:
        return EXIT_OK if violated else EXIT_VIOLATION
    return EXIT_VIOLATION if violated else EXIT_OK


def _report_exit(report: estimates.DefectReport, args) -> int:
    return _violation_exit(report.verdict == "violated", args.expect_violation)


# ---------------------------------------------------------------------------
# counterexample


def _write_connection_artifacts(pc, report, out: Path, prefix: str = "counterexample") -> list:
    import csv

    write_json(out / f"{prefix}.json", report)
    csv_path = out / f"{prefix}_trajectory.csv"
    H = pc.hamiltonian_series()
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "u_1", "u_2", "v_1", "v_2", "H"])
        for k in range(len(pc.times)):
            wr.writerow(
                [repr(float(pc.times[k]))]
                + [repr(float(x)) for x in pc.u[k]]
                + [repr(float(x)) for x in pc.v[k]]
                + [repr(float(H[k]))]
            )
    return [out / f"{prefix}.json", csv_path]


def cmd_counterexample(args) -> int:
    tol = args.tol if args.tol is not None else 1e-7
    dt = args.dt if args.dt is not None else 1e-3
    pc = cx.assemble(dt=dt)
    report = cx.verify_counterexample(pc, tol=tol)
    out = _out_dir(args)
    if out is not None:
        _write_connection_artifacts(pc, report, out)

    lines = [
        f"periodic connection: period {report['T']!r}, lambda {report['lambda']!r}",
        f"  equation residual (sup)      {report['residual_max']:.3e}",
        f"  0.5|u'|^2 - W(u)   mean      {report['modica_defect']!r}",
        f"                     spread    {report['modica_defect_spread']:.3e}",
        f"  gradient-bound violated:     {report['liouville_violated']}",
        f"  internal checks pass:        {report['checks_pass']}",
    ]
    _emit(args, report, lines)

    if args.mode == "build":
        return EXIT_OK if report["checks_pass"] else EXIT_VIOLATION
    violated = bool(report["liouville_violated"]) and bool(report["checks_pass"])
    return _violation_exit(violated, args.expect_violation)


# ---------------------------------------------------------------------------
# orbit


def _circular_orbit(R: float, dt: float):
    """One period of the circular orbit at R with step dt: (family, trajectory)."""
    fam = dynamics.orbit_family(R)
    p = potentials.make_potential("ginzburg_landau", m=2)
    steps = int(math.ceil(fam.period / dt))
    return fam, dynamics.integrate(p, fam.start_state(), dt, steps, drift_tol=math.inf)


def cmd_orbit(args) -> int:
    if not 0.0 < args.R < 1.0:
        print("orbit: --R must lie strictly between 0 and 1", file=sys.stderr)
        return EXIT_USAGE
    dt = args.dt if args.dt is not None else 1e-3
    fam, traj = _circular_orbit(args.R, dt)
    drift = traj.drift()
    report = {
        "R": args.R,
        "H": fam.H,
        "lambda": fam.lam,
        "mu": fam.mu,
        "period": fam.period,
        "dt": dt,
        "steps": len(traj.times) - 1,
        "measured_H_mean": float(np.mean(traj.H)),
        "drift": drift,
        "positive_defect": fam.H > 0.0,
    }
    out = _out_dir(args)
    if out is not None:
        traj.to_csv(out / "orbit_trajectory.csv")
        write_json(out / "orbit.json", report)
    _emit(
        args,
        report,
        [
            f"orbit R={args.R!r}: H = {fam.H!r} (defect {'positive' if fam.H > 0 else 'nonpositive'})",
            f"  period {fam.period!r}, measured drift {drift:.3e} over one period",
        ],
    )
    tol = args.tol if args.tol is not None else 1e-6
    return EXIT_OK if drift <= tol else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# estimates


def _run_modica(args, params) -> tuple[estimates.DefectReport, int]:
    tol = args.tol if args.tol is not None else 1e-9
    name = args.field or "tanh_planar"
    if name == "counterexample":
        dt = args.dt if args.dt is not None else 1e-3
        pc = cx.assemble(dt=dt)
        kin = 0.5 * np.sum(pc.v**2, axis=1)
        w = pc.orbit_w(pc.times)
        report = estimates.DefectReport.from_margins(
            "modica", w - kin, pc.u, tol,
            constants={"lambda": pc.lam, "period": pc.T},
        )
        return report, _report_exit(report, args)
    f = fields.make_field(name, **params)
    p = _field_potential(name, f)
    margins, pts = _jet_margins(f, lambda jet: estimates.modica_defect(jet, p) * -1.0)
    report = estimates.DefectReport.from_margins(
        "modica", margins, pts, tol, constants={"field": name, "potential": p.name}
    )
    return report, _report_exit(report, args)


def _run_theorem_31(args, params) -> tuple[estimates.DefectReport, int]:
    tol = args.tol if args.tol is not None else 1e-7
    m = int(params.get("m", 2))
    D = np.asarray(params.get("D", np.ones(m)), float)
    A = np.asarray(params.get("A", np.eye(m)), float)
    cfg = estimates.DiagonalSystemConfig(D=D, A=A, M=float(params.get("M", 1.0)))
    _, report = estimates.diagonal_system_check(cfg, g=None, tol=tol)
    return report, _report_exit(report, args)


def _run_theorem_32(args, params) -> tuple[estimates.DefectReport, int]:
    tol = args.tol if args.tol is not None else 1e-7
    p = potentials.make_potential("ginzburg_landau", m=int(params.get("m", 2)))
    R = float(params.get("R", 1.0))
    _, report = estimates.ball_confinement_check(p, None, R=R, tol=tol)
    return report, _report_exit(report, args)


def _run_theorem_33(args, params) -> tuple[estimates.DefectReport, int]:
    tol = args.tol if args.tol is not None else 1e-10
    name = args.field or "gl_circle_planar"
    if not name.startswith("gl_circle"):
        raise HypothesisError("the quartic radial-well bound applies to the circular-orbit fields")
    f = fields.make_field(name, **params)
    margins, pts = _jet_margins(f, estimates.gl_pointwise_bound)
    R = float(params.get("R", 0.9))
    report = estimates.DefectReport.from_margins(
        "radial-well-bound", margins, pts, tol,
        constants={"field": name, "R": R, "expected_margin": 0.5 * (1.0 - R * R) ** 2},
    )
    return report, _report_exit(report, args)


def _run_theorem_34(args, params) -> tuple[estimates.DefectReport, int]:
    tol = args.tol if args.tol is not None else 1e-7
    dt = args.dt if args.dt is not None else 1e-3
    R = float(params.get("R", 0.5))
    eps = float(params.get("eps", 0.01))
    _, traj = _circular_orbit(R, dt)
    barrier_stats = estimates.PhiBarrier(eps=eps).validate()
    report = estimates.ode_bound_check(traj, potentials.make_potential("ginzburg_landau", m=2), tol=tol)
    report = dataclasses.replace(
        report, constants={**report.constants, "barrier": barrier_stats, "eps": eps}
    )
    return report, _report_exit(report, args)


def _run_theorem_35(args, params) -> tuple[estimates.DefectReport, int]:
    tol = args.tol if args.tol is not None else 1e-7
    p = potentials.make_potential("double_well")
    _, report = estimates.convex_well_check(p, None, tol=tol)
    return report, _report_exit(report, args)


def _run_polygon(args, params) -> tuple[estimates.DefectReport, int]:
    tol = args.tol if args.tol is not None else 1e-12
    if "vertices" in params:
        verts = np.asarray(params["vertices"], float)
    else:
        N = int(params.get("N", 5))
        radius = float(params.get("radius", 1.0))
        ang = 2.0 * math.pi * np.arange(N) / N
        verts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    report = estimates.polygon_confinement_check(
        verts, n_samples=int(params.get("n_samples", 100)), seed=args.seed, tol=tol
    )
    return report, _report_exit(report, args)


_THEOREM_RUNNERS = {
    "modica": _run_modica,
    "3.1": _run_theorem_31,
    "3.2": _run_theorem_32,
    "3.3": _run_theorem_33,
    "3.4": _run_theorem_34,
    "3.5": _run_theorem_35,
    "polygon": _run_polygon,
}


def cmd_estimates(args, parser) -> int:
    if args.list_checks:
        for token in THEOREM_TOKENS:
            print(f"{token:8s} {_CHECK_SUMMARIES[token]}")
        return EXIT_OK
    if args.theorem is None:
        parser.error("--theorem is required (or use --list-checks)")
    params = _parse_params(parser, args.params)
    report, rc = _THEOREM_RUNNERS[args.theorem](args, params)
    payload = report.to_dict()
    out = _out_dir(args)
    if out is not None:
        token = args.theorem.replace(".", "_")
        write_json(out / f"estimate_{token}.json", payload)
    worst = "n/a" if report.worst_margin == math.inf else f"{report.worst_margin!r}"
    _emit(
        args,
        payload,
        [
            f"check {report.check_id}: verdict {report.verdict}"
            f" ({report.samples} samples, worst margin {worst})"
        ],
    )
    return rc


# ---------------------------------------------------------------------------
# planar operations


def _planar_grid(f, h: float, box: float = 1.0) -> fields.GridField:
    n = int(round(2.0 * box / h)) + 1
    return fields.sample_field(f, origin=(-box, -box), spacing=(h, h), extents=(n, n))


def cmd_planar(args, parser) -> int:
    params = _parse_params(parser, args.params)
    tol = args.tol
    h = args.h if args.h is not None else 0.02
    out = _out_dir(args)

    center = np.asarray(params.pop("center", (0.0, 0.0)), float)
    radius = float(params.pop("radius", 1.0))
    radii = params.pop("radii", None)
    density = args.density

    name = args.field or "gl_circle_planar"
    f = fields.make_field(name, **params)
    p = _field_potential(name, f)

    # sampled closed-form fields satisfy the discrete equation only to the
    # O(h^2) truncation, so the solves-the-system gates must scale with h^2
    solution_gate = 1e-8 + 0.5 * h * h

    if args.op == "tensor":
        pair = planar.divergence_pair(
            lambda hh: _planar_grid(f, hh), p, h, gate=solution_gate
        )
        grid = _planar_grid(f, h)
        pair["compatibility_residual"] = planar.compatibility_residual(grid, p)
        if out is not None:
            write_json(out / "tensor.json", pair)
        _emit(args, pair, [
            f"div T residual: {pair['residual_h']:.3e} at h={h!r},"
            f" {pair['residual_h2']:.3e} at h/2 (ratio {pair['ratio']:.2f})",
        ])
        # fields with constant stress tensor sit at roundoff on both grids
        ok = pair["residual_h2"] < pair["residual_h"] or max(
            pair["residual_h"], pair["residual_h2"]) <= 1e-10
        return EXIT_OK if ok else EXIT_VIOLATION

    if args.op == "ufield":
        grid = _planar_grid(f, h)
        rec = planar.reconstruct_U(grid, p, gate=solution_gate)
        gate = tol if tol is not None else 50.0 * h * h
        report = {
            "path_defect": rec.path_defect,
            "laplacian_defect": rec.laplacian_defect,
            "gauge_index": list(rec.gauge_index),
            "h": h,
            "gate": gate,
        }
        if out is not None:
            write_json(out / "ufield.json", report)
            fields.save_gridfield(rec.grid, out / "ufield.txt")
        _emit(args, report, [
            f"U reconstruction: path defect {rec.path_defect:.3e},"
            f" Lap U - 4W defect {rec.laplacian_defect:.3e}",
        ])
        return EXIT_OK if max(rec.path_defect, rec.laplacian_defect) <= gate else EXIT_VIOLATION

    if args.op == "convexity":
        check_tol = tol if tol is not None else 1e-12
        margins, pts = _jet_margins(f, lambda jet: planar.convexity_status(jet, p)["margin"])
        report = estimates.DefectReport.from_margins(
            "u-convexity", margins, pts, check_tol, constants={"field": name}
        ).to_dict()
        if out is not None:
            write_json(out / "convexity.json", report)
        _emit(args, report, [
            f"convexity of U: verdict {report['verdict']},"
            f" worst margin {report['worst_margin']!r}",
        ])
        return _violation_exit(report["verdict"] == "violated", args.expect_violation)

    if args.op == "green":
        check_tol = tol if tol is not None else 1e-6
        result = planar.green_boundary_identity(f, p, center, radius)
        result["field"] = name
        if out is not None:
            write_json(out / "green.json", result)
        _emit(args, result, [
            f"Green identity: lhs {result['lhs']!r} rhs {result['rhs']!r}"
            f" defect {result['defect']:.3e}",
        ])
        return EXIT_OK if result["defect"] <= check_tol else EXIT_VIOLATION

    if args.op == "monotone":
        if radii is None:
            radii = np.linspace(0.25, 2.0, 8)
        profile = planar.monotonicity_profile(density, f, p, center, radii)
        report = {
            "density": density,
            "center": list(profile.center),
            "radii": list(profile.radii),
            "values": list(profile.values),
            "errors": list(profile.errors),
            "monotone": profile.is_monotone(),
        }
        if out is not None:
            profile.to_csv(out / "monotone.csv")
            write_json(out / "monotone.json", report)
        _emit(args, report, [
            f"profile M(r), density {density}: "
            + ("nondecreasing" if report["monotone"] else "NOT monotone"),
        ])
        return EXIT_OK if report["monotone"] else EXIT_VIOLATION

    parser.error(f"unknown planar operation {args.op!r}")
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# relax


def _relax_from_config(cfg_path: Path, override_tol=None) -> tuple[solver.RelaxResult, dict]:
    with open(cfg_path) as fh:
        cfg_json = json.load(fh)
    pot_spec = cfg_json["potential"]
    p = potentials.make_potential(pot_spec["name"], **pot_spec.get("params", {}))
    dom = cfg_json["domain"]
    bspec = cfg_json["boundary"]
    boundary = fields.make_field(bspec["field"], **bspec.get("params", {}))
    cfg = solver.RelaxConfig(
        origin=tuple(dom["origin"]),
        spacing=tuple(dom["spacing"]),
        shape=tuple(dom["shape"]),
        boundary=boundary,
        max_iters=int(cfg_json.get("max_iters", 50_000)),
        tol=float(override_tol if override_tol is not None else cfg_json.get("tol", 1e-8)),
    )
    return solver.relax(p, cfg), cfg_json


def cmd_relax(args) -> int:
    result, _ = _relax_from_config(Path(args.config), override_tol=args.tol)
    log = solver.run_log(result)
    out = _out_dir(args)
    if out is not None:
        write_json(out / "relax.json", log)
        fields.save_gridfield(result.field, out / "relax_field.txt")
    _emit(args, log, [
        f"relaxed {log['iters']} cycles on {result.levels} levels, residual {log['residual']:.3e},"
        f" energy {log['energy_first']!r} -> {log['energy_last']!r}",
    ])
    return EXIT_OK if result.converged else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# suite


def cmd_suite(args) -> int:
    out = _out_dir(args) or Path("artifacts")
    out.mkdir(parents=True, exist_ok=True)
    results = []

    def step(name, fn):
        try:
            ok = bool(fn())
        except Exception as e:  # noqa: BLE001 -- suite reports, never crashes
            print(f"ERROR {name}: {e}", file=sys.stderr)
            ok = False
        results.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    def _counterexample():
        pc = cx.assemble()
        report = cx.verify_counterexample(pc)
        _write_connection_artifacts(pc, report, out)
        return report["checks_pass"] and report["liouville_violated"]

    step("counterexample-violation", _counterexample)

    def _orbit():
        fam, traj = _circular_orbit(0.5, 1e-3)
        report = {"R": 0.5, "H": fam.H, "drift": traj.drift(), "period": fam.period}
        write_json(out / "orbit.json", report)
        traj.to_csv(out / "orbit_trajectory.csv")
        return abs(fam.H - (-0.046875)) < 1e-15 and traj.drift() <= 1e-6

    step("orbit-hamiltonian", _orbit)

    def _estimate(token, expect_violated=False, field=None, params=None):
        def run():
            ns = argparse.Namespace(
                tol=None, dt=None, seed=0, expect_violation=expect_violated,
                field=field, json=False,
            )
            report, rc = _THEOREM_RUNNERS[token](ns, params or {})
            write_json(out / f"estimate_{token.replace('.', '_')}.json", report.to_dict())
            return rc == EXIT_OK
        return run

    step("estimate-modica-profile", _estimate("modica", field="tanh_planar"))
    step("estimate-3.1-constants", _estimate("3.1"))
    step("estimate-3.2-constants", _estimate("3.2"))
    step("estimate-3.3-margin", _estimate("3.3", params={"R": 0.9}))
    step("estimate-3.4-envelope", _estimate("3.4"))
    step("estimate-3.5-floor", _estimate("3.5"))
    step("estimate-polygon", _estimate("polygon"))

    gl = fields.make_field("gl_circle_planar", R=0.5)
    glp = potentials.make_potential("ginzburg_landau", m=2)

    def _green():
        result = planar.green_boundary_identity(gl, glp, (0.0, 0.0), 1.0)
        write_json(out / "green.json", result)
        return result["defect"] <= 1e-6

    step("planar-green-identity", _green)

    def _convexity():
        sub = fields.make_field("gl_circle_planar", R=math.sqrt(0.3))
        sup = fields.make_field("gl_circle_planar", R=math.sqrt(0.5))
        m_sub, _ = _jet_margins(sub, lambda jet: planar.convexity_status(jet, glp)["margin"])
        m_sup, _ = _jet_margins(sup, lambda jet: planar.convexity_status(jet, glp)["margin"])
        report = {
            "margin_below_threshold": float(np.min(m_sub)),
            "margin_above_threshold": float(np.min(m_sup)),
        }
        write_json(out / "convexity.json", report)
        return float(np.min(m_sub)) >= -1e-12 and float(np.min(m_sup)) < -1e-6

    step("planar-convexity-dichotomy", _convexity)

    def _monotone():
        radii = np.linspace(0.25, 2.0, 8)
        exact = planar.monotonicity_profile("laplacian_quadratic", None, None, (0.0, 0.0), radii)
        exact.to_csv(out / "monotone_quadratic.csv")
        four_pi_r = 4.0 * math.pi * np.asarray(exact.radii)
        tanh = fields.make_field("tanh_planar")
        dw = potentials.make_potential("double_well")
        prof = planar.monotonicity_profile("potential", tanh, dw, (0.0, 0.0), radii)
        prof.to_csv(out / "monotone_potential.csv")
        return (
            float(np.max(np.abs(np.asarray(exact.values) - four_pi_r))) < 1e-10
            and exact.is_monotone()
            and prof.is_monotone()
        )

    step("planar-monotone-profiles", _monotone)

    def _tensor():
        bdry = fields.make_field("harmonic_linear_map")

        def relaxed(hh):
            n = int(round(1.0 / hh)) + 1
            cfg = solver.RelaxConfig(
                origin=(-0.5, -0.5), spacing=(hh, hh), shape=(n, n),
                boundary=bdry, max_iters=400_000, tol=1e-10,
            )
            return solver.relax(glp, cfg).field

        pair = planar.divergence_pair(relaxed, glp, 0.05, margin=0.15)
        write_json(out / "tensor.json", pair)
        return 3.5 <= pair["ratio"] <= 4.5

    step("planar-divergence-decay", _tensor)

    def _ufield():
        grid = _planar_grid(gl, 0.02)
        rec = planar.reconstruct_U(grid, glp)
        report = {"path_defect": rec.path_defect, "laplacian_defect": rec.laplacian_defect}
        write_json(out / "ufield.json", report)
        return max(rec.path_defect, rec.laplacian_defect) <= 50.0 * 0.02 * 0.02

    step("planar-u-reconstruction", _ufield)

    def _relax():
        dw = potentials.make_potential("double_well")
        tanh = fields.make_field("tanh_planar")
        cfg = solver.RelaxConfig(
            origin=(-4.0, 0.0), spacing=(0.1, 0.1), shape=(81, 6),
            boundary=tanh, max_iters=20_000, tol=1e-8,
        )
        result = solver.relax(dw, cfg)
        log = solver.run_log(result)
        write_json(out / "relax.json", log)
        fields.save_gridfield(result.field, out / "relax_field.txt")
        e = solver.energy(result.field, dw)
        target = 2.0 * math.sqrt(2.0) / 3.0 * 0.5  # transition energy times strip height
        return result.converged and abs(e - target) < 5e-3

    step("relax-transition-profile", _relax)

    failed = [name for name, ok in results if not ok]
    print(f"suite: {len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser


def _positive_finite(text: str) -> float:
    """argparse type of --dt and --h: a positive, finite float."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _add_common(sp, *, dt=False, h=False, field=False):
    sp.add_argument("--tol", type=float, default=None, help="override the check tolerance")
    sp.add_argument("--out", default=None, help="directory for artifacts")
    sp.add_argument("--json", action="store_true", help="print the report as JSON")
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sp.add_argument("--expect-violation", action="store_true",
                    help="exit 0 iff the check reports a violation")
    if dt:
        sp.add_argument("--dt", type=_positive_finite, default=None, help="integration step")
    if h:
        sp.add_argument("--h", type=_positive_finite, default=None, help="grid spacing")
    if field:
        sp.add_argument("--field", default=None, help="catalog field id")
        sp.add_argument("--params", default=None, help="JSON object of parameters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modicalab",
        description="Numerical checks for gradient bounds of semilinear elliptic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("counterexample", help="build or verify the periodic connection")
    sp.add_argument("mode", choices=("build", "verify"))
    _add_common(sp, dt=True)

    sp = sub.add_parser("orbit", help="circular orbit of the quartic radial well")
    sp.add_argument("--R", type=float, required=True, help="orbit radius in (0, 1)")
    _add_common(sp, dt=True)

    sp = sub.add_parser("estimates", help="run a named inequality check")
    sp.add_argument("--theorem", choices=THEOREM_TOKENS, default=None)
    sp.add_argument("--list-checks", action="store_true", help="list check ids and exit")
    _add_common(sp, dt=True, field=True)

    sp = sub.add_parser("planar", help="stress tensor, auxiliary function, monotonicity")
    sp.add_argument("op", choices=("tensor", "ufield", "convexity", "green", "monotone"))
    sp.add_argument("--density", choices=planar._DENSITIES, default="potential")
    _add_common(sp, h=True, field=True)

    sp = sub.add_parser("relax", help="Dirichlet relaxation on a rectangle")
    sp.add_argument("--config", required=True, help="JSON run configuration")
    _add_common(sp)

    sp = sub.add_parser("suite", help="run the full battery and write artifacts")
    _add_common(sp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.command == "counterexample":
            rc = cmd_counterexample(args)
        elif args.command == "orbit":
            rc = cmd_orbit(args)
        elif args.command == "estimates":
            rc = cmd_estimates(args, parser)
        elif args.command == "planar":
            rc = cmd_planar(args, parser)
        elif args.command == "relax":
            rc = cmd_relax(args)
        elif args.command == "suite":
            rc = cmd_suite(args)
        else:  # pragma: no cover -- argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")
            rc = EXIT_USAGE
    except HypothesisError as e:
        print(f"hypothesis not satisfied: {e}", file=sys.stderr)
        rc = EXIT_USAGE
    except (cx.ConstructionError, solver.RelaxError, dynamics.BlowUpError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        rc = EXIT_VIOLATION
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        rc = EXIT_USAGE
    finally:
        elapsed = time.perf_counter() - t0
        print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
