"""The four benchmark workloads.

Each workload is a closed loop with one client: set up once, then run one
operation after another.  An operation's inputs come from (seed, operation
index) alone; `run` is the only part that is timed and the only part that
calls into the program for the measured work; `check` decides whether the
operation's output is correct.  A failed check or an exception is a failed
operation: it is counted, never dropped and never retried.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import modicalab.cli
from modicalab import counterexample, dynamics, estimates, fields, planar, potentials, solver

HERE = Path(__file__).resolve().parent
CX_REFERENCE = HERE / "cx_reference.json"

# tolerances of the cx-probe checks against closed forms and the stored reference
CLOSED_FORM_TOL = 1e-10
REF_TOL = {"w": 1e-9, "grad": 1e-9, "hess": 1e-6}
# central differences with h = 1e-5 themselves err by up to about 2e-5 where
# the tube cutoff bends sharply; a wrong derivative errs by O(1)
FD_TOL = 1e-3


def _rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def tree_digest(root: Path, pattern: str = "*") -> tuple[str, int]:
    """sha256 over the relative paths and bytes of the matching files, and
    their byte count."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


class Suite:
    """One operation is a full `modicalab suite --out <fresh dir>` pass."""

    name = "suite"
    seed_note = "seed unused: the suite's inputs are fixed by the CLI"
    STEPS = 15

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.workdir = workdir / "suite-out"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.digest_file = workdir / "suite-digests.json"
        self.src_digest = tree_digest(src / "modicalab", "*.py")[0]
        self.first_digest = None

    def inputs(self, op: int):
        return self.workdir / f"op{op}"

    def run(self, out: Path):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            rc = modicalab.cli.main(["suite", "--out", str(out)])
        return rc, text.getvalue()

    def check(self, out: Path, result) -> tuple[bool, dict]:
        rc, text = result
        passed = sum(1 for line in text.splitlines() if line.startswith("PASS "))
        digest, size = tree_digest(out)
        shutil.rmtree(self.workdir, ignore_errors=True)
        if self.first_digest is None:
            self.first_digest = digest
        # the digest must also agree with earlier runs of the same source tree
        seen = json.loads(self.digest_file.read_text()) if self.digest_file.exists() else {}
        known = seen.setdefault(self.src_digest, digest)
        self.digest_file.write_text(json.dumps(seen, sort_keys=True, indent=1) + "\n")
        ok = (
            rc == 0
            and passed == self.STEPS
            and f"suite: {self.STEPS}/{self.STEPS} checks passed" in text
            and digest == self.first_digest == known
        )
        info = {"passed_steps": passed, "digest": digest, "bytes": size}
        if not ok:
            info["output"] = text[-2000:]
        return ok, info


# ---------------------------------------------------------------------------
# cx-probe: closed forms of the plateau profile, written independently of src/


def _smoothstep(t):
    t = np.asarray(t, float)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        g = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return f / (f + g)


_GL = np.polynomial.legendre.leggauss(40)


def _rho_and_drho(a):
    """rho(a) = a below 1/4, 1/2 above 3/4, a - (1/2) int_0^tau smoothstep in
    between (tau = 2(a - 1/4)); rho' = 1 - smoothstep(tau)."""
    a = np.asarray(a, float)
    tau = np.clip(2.0 * (a - 0.25), 0.0, 1.0)
    nodes, weights = _GL
    # four Gauss-Legendre panels on [0, tau]
    edges = tau[:, None] * np.linspace(0.0, 1.0, 5)[None, :]
    lo, hi = edges[:, :-1], edges[:, 1:]
    t = 0.5 * (hi - lo)[..., None] * (nodes + 1.0) + lo[..., None]
    integral = np.sum(0.5 * (hi - lo) * (_smoothstep(t) @ weights), axis=1)
    rho = np.where(a <= 0.25, a, np.where(a >= 0.75, 0.5, a - 0.5 * integral))
    drho = np.where(a <= 0.25, 1.0, np.where(a >= 0.75, 0.0, 1.0 - _smoothstep(tau)))
    return rho, drho


A_PLUS = np.array([2.0, 0.0])
A_MINUS = np.array([-2.0, 0.0])
LAM = 3.0 / 8.0  # the plateau level forced by the segment orbit's energy


def _in_patch(x):
    return (np.abs(np.abs(x[:, 0]) - 2.0) <= 1.0) & (np.abs(x[:, 1]) <= 1.0)


def arc_geometry(pc, nodes: int = 4097):
    """Positions and normals of the connecting arc on a uniform s grid."""
    s = np.linspace(0.0, pc.curve.L, nodes)
    return pc.curve.gamma(s), pc.curve.normal(s)


def tube_points(rng, arc, normal, eps, n):
    """Points gamma(s) + mu n(s) with |mu| < eps, mirrored to the lower arc
    with probability 1/2."""
    k = rng.integers(0, len(arc), n)
    mu = rng.uniform(-0.95, 0.95, n) * eps
    pts = arc[k] + mu[:, None] * normal[k]
    pts[:, 1] *= rng.choice([-1.0, 1.0], n)
    return pts


class CxProbe:
    """One operation evaluates w, grad and hess of the assembled potential on
    a seeded batch of 2048 points in the potential's bounding box."""

    name = "cx-probe"
    seed_note = "seed draws the batch points"
    N_TUBE, N_REF, N_PATCH, N_BACKGROUND, N_FD = 960, 64, 512, 512, 4

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        pc = counterexample.assemble()
        if not counterexample.verify_counterexample(pc)["checks_pass"]:
            raise RuntimeError("the assembled connection fails its own verification")
        self.potential = pc.potential
        self.eps = pc.eps_tube
        self.arc, self.arc_normal = arc_geometry(pc)
        xmax = max(3.0, float(np.max(np.abs(self.arc[:, 0])))) + self.eps + 0.1
        ymax = max(1.0, float(np.max(self.arc[:, 1]))) + self.eps + 0.1
        self.box = (xmax, ymax)
        self.reference = json.loads(CX_REFERENCE.read_text())

    def _background(self, rng, n):
        """Uniform points of the box at least eps + 0.02 away from the tube
        axis (so outside the tube) and outside the square patches."""
        xmax, ymax = self.box
        coarse = np.abs(self.arc[::8])
        out = np.empty((0, 2))
        while len(out) < n:
            cand = rng.uniform([-xmax, -ymax], [xmax, ymax], (2 * n, 2))
            cand = cand[~_in_patch(cand)]
            folded = np.abs(cand[:, None, :]) - coarse[None, :, :]
            dist = np.sqrt(np.min(np.sum(folded**2, axis=-1), axis=1))
            out = np.concatenate([out, cand[dist > self.eps + 0.02]])
        return out[:n]

    def inputs(self, op: int):
        rng = _rng(self.seed, op)
        ref_idx = rng.choice(len(self.reference["points"]), self.N_REF, replace=False)
        patch = rng.uniform(-1.0, 1.0, (self.N_PATCH, 2))
        patch[: self.N_PATCH // 2] += A_PLUS
        patch[self.N_PATCH // 2 :] += A_MINUS
        parts = {
            "tube": tube_points(rng, self.arc, self.arc_normal, self.eps, self.N_TUBE),
            "ref": np.asarray(self.reference["points"])[ref_idx],
            "patch": patch,
            "background": self._background(rng, self.N_BACKGROUND),
        }
        labels = np.concatenate([np.full(len(v), k) for k, v in parts.items()])
        pts = np.concatenate(list(parts.values()))
        ref_rows = np.full(len(pts), -1)
        ref_rows[labels == "ref"] = ref_idx
        order = rng.permutation(len(pts))
        return {"points": pts[order], "labels": labels[order], "ref_rows": ref_rows[order]}

    def run(self, inp):
        pts = inp["points"]
        p = self.potential
        return p.w(pts), p.grad(pts), p.hess(pts)

    def check(self, inp, result) -> tuple[bool, dict]:
        w, g, H = result
        pts, labels = inp["points"], inp["labels"]
        measured = {}  # name -> (value, largest value that passes)

        # every point inside a square, whatever its label, is a patch point
        square = _in_patch(pts)
        v = pts[square] - np.where(pts[square, :1] > 0, A_PLUS, A_MINUS)
        rho, drho = _rho_and_drho(np.sum(v**2, axis=1))
        measured["patch_w"] = (_sup(w[square] - 2.0 * LAM * rho), CLOSED_FORM_TOL)
        measured["patch_grad"] = (_sup(g[square] - 4.0 * LAM * drho[:, None] * v), CLOSED_FORM_TOL)

        bg = labels == "background"
        measured["background_w"] = (_sup(w[bg] - LAM), CLOSED_FORM_TOL)
        measured["background_grad"] = (_sup(g[bg]), CLOSED_FORM_TOL)
        measured["background_hess"] = (_sup(H[bg]), CLOSED_FORM_TOL)

        ref = labels == "ref"
        rows = inp["ref_rows"][ref]
        for key, got in (("w", w), ("grad", g), ("hess", H)):
            expect = np.asarray(self.reference[key])[rows]
            measured[f"ref_{key}"] = (_sup(got[ref] - expect), REF_TOL[key])

        tube = (labels == "tube") & ~square
        # the tube stays at least lam/2 because eps <= lam / (2 max kappa)
        measured["tube_below_floor"] = (0.5 * LAM - float(np.min(w[tube])), 0.0)
        measured["hess_asymmetry"] = (_sup(H - np.swapaxes(H, 1, 2)), CLOSED_FORM_TOL)
        fd = max(potentials.fd_consistency(self.potential, x) for x in pts[tube][: self.N_FD])
        measured["fd_consistency"] = (fd, FD_TOL)

        finite = all(np.all(np.isfinite(a)) for a in result)
        ok = finite and all(value <= limit for value, limit in measured.values())
        return ok, {k: value for k, (value, _) in measured.items()}


def _sup(a) -> float:
    a = np.asarray(a, float)
    return float(np.max(np.abs(a))) if a.size else 0.0


class RelaxLadder:
    """One operation relaxes GL (m=2) with harmonic linear-map data at
    h = 0.05 and h = 0.025 from perturbed starts, then measures the stress
    tensor's divergence at both spacings."""

    name = "relax-ladder"
    seed_note = "seed draws the start perturbation of both rungs"
    H = 0.05
    AMPLITUDE = 0.01
    TOL = 1e-10

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.potential = potentials.make_potential("ginzburg_landau", m=2)
        self.boundary = fields.make_field("harmonic_linear_map")

    def inputs(self, op: int):
        rng = _rng(self.seed, op)
        starts = {}
        for h in (self.H, self.H / 2.0):
            n = int(round(1.0 / h)) + 1
            axis = -0.5 + h * np.arange(n)
            X = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
            # the boundary data is the identity map; relax re-imposes it on the edges
            starts[h] = X + rng.uniform(-self.AMPLITUDE, self.AMPLITUDE, X.shape)
        return starts

    def run(self, starts):
        results = {}

        def relaxed(hh):
            n = int(round(1.0 / hh)) + 1
            cfg = solver.RelaxConfig(
                origin=(-0.5, -0.5), spacing=(hh, hh), shape=(n, n),
                boundary=self.boundary, max_iters=400_000, tol=self.TOL,
            )
            init = fields.GridField((-0.5, -0.5), (hh, hh), starts[hh])
            results[hh] = solver.relax(self.potential, cfg, init=init)
            return results[hh].field

        pair = planar.divergence_pair(relaxed, self.potential, self.H, margin=0.15)
        return pair, results

    def check(self, starts, result) -> tuple[bool, dict]:
        pair, results = result
        ok = 3.5 <= pair["ratio"] <= 4.5 and len(results) == 2
        info = {"ratio": pair["ratio"]}
        for h, res in results.items():
            e = res.energies
            # nonincreasing up to the roundoff slack the solver itself allows
            rise = float(np.max(np.diff(e))) if e.size > 1 else 0.0
            ok = ok and res.converged and res.final_residual <= self.TOL
            ok = ok and rise <= 1e-12 * max(1.0, abs(float(e[0])))
            info[f"sweeps_h{h:g}"] = int(res.iterations)
        return ok, info


class Orbits:
    """One operation runs the speed-envelope check on a jittered R^2 grid and
    the ODE bound check on one full circular orbit at a seeded radius."""

    name = "orbits"
    seed_note = "seed jitters the R^2 grid and draws the orbit radius"
    DT = 1e-3
    H_TOL = 1e-9  # seen: below 1e-14 for R in [0.3, 0.8] at dt = 1e-3

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.potential = potentials.make_potential("ginzburg_landau", m=2)

    def inputs(self, op: int):
        rng = _rng(self.seed, op)
        r2 = np.linspace(0.05, 0.95, 19) + rng.uniform(-0.02, 0.02, 19)
        return {"R_grid": np.sqrt(r2), "R": float(rng.uniform(0.3, 0.8))}

    def run(self, inp):
        envelope = estimates.speed_envelope_check(R_grid=inp["R_grid"], dt=self.DT)
        fam = dynamics.orbit_family(inp["R"])
        steps = int(math.ceil(fam.period / self.DT))
        traj = dynamics.integrate(self.potential, fam.start_state(), self.DT, steps, drift_tol=math.inf)
        return envelope, fam, estimates.ode_bound_check(traj, self.potential)

    def check(self, inp, result) -> tuple[bool, dict]:
        envelope, fam, bound = result
        R = inp["R"]
        H_closed = (-3.0 * R**4 + 4.0 * R**2 - 1.0) / 4.0
        gap = envelope.constants["worst_attainment_gap"]
        ok = (
            envelope.verdict == "holds"
            and gap <= 1e-4
            and bound.verdict == "holds"
            and abs(fam.H - H_closed) <= 1e-14
            and abs(bound.constants["H"] - H_closed) <= self.H_TOL
        )
        return ok, {"attainment_gap": gap, "H_error": abs(bound.constants["H"] - H_closed)}


WORKLOADS = {w.name: w for w in (Suite, CxProbe, RelaxLadder, Orbits)}
