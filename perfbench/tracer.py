"""Span tracer that wraps the public functions of modicalab from outside.

`install` replaces every public function of the nine modules, every binding
of it in another module's namespace (``estimates`` imports ``integrate`` by
name, ``planar`` imports ``grid_jets`` by name, and so on) and every public
method of their public classes with a wrapper that records a span: name,
start, end, parent span and operation id.  Spans stay in memory; `save`
writes them once at exit.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time its child spans cover.
Calls of ``Potential.w/grad/hess/eval`` are attributed to the module whose
code does the work: the assembled counterexample potential lives in
``counterexample``, catalog potentials in ``potentials``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = (
    "cli",
    "counterexample",
    "smooth",
    "potentials",
    "dynamics",
    "solver",
    "planar",
    "fields",
    "estimates",
)

# private helpers that a layer metric needs by name
EXTRA_FUNCTIONS = {"cli": ("_write_connection_artifacts",)}

# every span name under which an artifact is written
WRITERS = frozenset(
    {
        "cli.write_json",
        "cli._write_connection_artifacts",
        "dynamics.Trajectory.to_csv",
        "fields.save_gridfield",
        "planar.MonotoneProfile.to_csv",
    }
)


def _points(u) -> int:
    shape = np.shape(u)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


def _annotators(mods) -> dict:
    """Per-span-name functions (args, kwargs, result) -> dict of counters."""
    bind_integrate = _bound(mods["dynamics"].integrate)
    bind_disk = _bound(mods["planar"].disk_integral)

    def relax(args, kwargs, result):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        return {"h": float(min(cfg.spacing)), "sweeps": int(result.iterations)}

    def disk(args, kwargs, result):
        a = bind_disk(args, kwargs)
        return {"n_r": int(a["n_r"]), "n_theta": int(a["n_theta"])}

    return {
        "counterexample.CurveSpec.project": lambda a, k, r: {"pts": _points(a[1])},
        "counterexample.potential.w": lambda a, k, r: {"pts": _points(a[1])},
        "counterexample.potential.grad": lambda a, k, r: {"pts": _points(a[1])},
        "counterexample.potential.hess": lambda a, k, r: {"pts": _points(a[1])},
        "dynamics.integrate": lambda a, k, r: {"steps": int(bind_integrate(a, k)["steps"])},
        "fields.grid_jets": lambda a, k, r: {"nodes": int(r.u.shape[0] * r.u.shape[1])},
        "planar.disk_integral": disk,
        "solver.relax": relax,
    }


class Tracer:
    """In-memory span recorder.  Wrappers record only while `enabled`."""

    def __init__(self):
        self.enabled = False
        self.op = -1  # -1 is the workload's one-off set-up
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent, op, self_s, error]
        self.notes: dict[int, dict] = {}  # span index -> annotator counters
        self._stack: list[list] = []  # [span index, child seconds]
        self._last_error = None

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name, annotations, namer=None):
        """Wrapper recording one span per call.  `namer(args)` picks the span
        name per call; `annotations` maps span names to functions
        (args, kwargs, result) -> dict of counters kept with the span."""
        tracer = self
        fixed_id = self._name_id(name)
        fixed_note = annotations.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if namer is None:
                nid, note = fixed_id, fixed_note
            else:
                span_name = namer(args)
                nid, note = tracer._name_id(span_name), annotations.get(span_name)
            stack = tracer._stack
            idx = len(tracer.spans)
            frame = [idx, 0.0]
            row = [nid, 0.0, 0.0, stack[-1][0] if stack else -1, tracer.op, 0.0, False]
            tracer.spans.append(row)
            stack.append(frame)
            row[1] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                end = time.perf_counter()
                # count an error once, where it was raised, not in every caller
                if e is not tracer._last_error:
                    row[6] = True
                    tracer._last_error = e
                tracer._close(row, frame, start, end)
                raise
            end = time.perf_counter()
            tracer._close(row, frame, start, end)
            if note is not None:
                tracer.notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def _close(self, row, frame, start, end):
        self._stack.pop()
        dur = end - start
        row[2] = end
        row[5] = dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def layer_values(self, lo: int, hi: int) -> dict:
        """Per-layer values of the spans tracer.spans[lo:hi], which belong to one
        operation (or to the set-up).  Keys are per-layer metric names."""
        names, spans, notes = self.names, self.spans, self.notes
        calls, total, self_s = {}, {}, {}
        mod_self = {m: 0.0 for m in MODULES}
        mod_err = {m: 0 for m in MODULES}
        per_h = {}  # relax spacing -> [sweeps, seconds]
        relax_spans = set()
        disk_64x256 = []
        unit = {"w": [0.0, 0], "grad": [0.0, 0], "hess": [0.0, 0], "project": [0.0, 0], "projected_w": 0}
        steps = steps_s = 0.0
        nodes = jets_s = 0.0
        grads_in_relax = 0
        write_s = 0.0
        for idx in range(lo, hi):
            nid, start, end, parent, _op, own, err = spans[idx]
            name = names[nid]
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + own
            mod = _module(name)
            mod_self[mod] += own
            mod_err[mod] += int(err)
            note = notes.get(idx)
            if name.startswith("counterexample.potential.") and parent < 0:
                acc = unit[name.rsplit(".", 1)[1]]
                acc[0] += dur
                acc[1] += note["pts"]
            elif name == "counterexample.CurveSpec.project" and parent >= 0 and spans[parent][3] < 0:
                # projections made by a batch call of the potential, not by a
                # single-point call inside fd_consistency
                caller = names[spans[parent][0]]
                if caller.startswith("counterexample.potential."):
                    unit["project"][0] += dur
                    unit["project"][1] += note["pts"]
                    if caller.endswith(".w"):
                        unit["projected_w"] += note["pts"]
            elif name == "dynamics.integrate":
                steps += note["steps"]
                steps_s += dur
            elif name == "fields.grid_jets":
                nodes += note["nodes"]
                jets_s += dur
            elif name == "solver.relax":
                relax_spans.add(idx)
                acc = per_h.setdefault(note["h"], [0, 0.0])
                acc[0] += note["sweeps"]
                acc[1] += dur
            elif name == "potentials.Potential.grad" and parent in relax_spans:
                grads_in_relax += 1
            elif name == "planar.disk_integral" and (note["n_r"], note["n_theta"]) == (64, 256):
                disk_64x256.append(dur)
            if name in WRITERS:
                p, nested = parent, False
                while p >= 0 and not nested:
                    nested = names[spans[p][0]] in WRITERS
                    p = spans[p][3]
                if not nested:
                    write_s += dur

        def per(acc):
            return acc[0] / acc[1] * 1e6 if acc[1] else 0.0

        def sweeps(h):
            return per_h.get(h, [0, 0.0])[0]

        fine_sweeps, fine_s = per_h.get(0.025, [0, 0.0])
        all_sweeps = sum(acc[0] for acc in per_h.values())
        v = {}
        for m in MODULES:
            v[f"{m}.self_s"] = mod_self[m]
            v[f"{m}.errors"] = mod_err[m]
        v.update(
            {
                "counterexample.solve_segment_s": total.get("counterexample.solve_segment", 0.0),
                "counterexample.build_curve_s": total.get("counterexample.build_curve", 0.0),
                "counterexample.verify_s": total.get("counterexample.verify_counterexample", 0.0),
                "counterexample.w_us_per_pt": per(unit["w"]),
                "counterexample.grad_us_per_pt": per(unit["grad"]),
                "counterexample.hess_us_per_pt": per(unit["hess"]),
                "counterexample.project_calls": calls.get("counterexample.CurveSpec.project", 0),
                "counterexample.project_us_per_pt": per(unit["project"]),
                "counterexample.projected_frac": unit["projected_w"] / unit["w"][1] if unit["w"][1] else 0.0,
                "smooth.calls": sum(c for n, c in calls.items() if _module(n) == "smooth"),
                "potentials.grad_calls": calls.get("potentials.Potential.grad", 0),
                "potentials.grad_self_s": self_s.get("potentials.Potential.grad", 0.0),
                "dynamics.steps": int(steps),
                "dynamics.verlet_us_per_step": steps_s / steps * 1e6 if steps else 0.0,
                "dynamics.heteroclinic_s": total.get("dynamics.shoot_heteroclinic", 0.0),
                "solver.sweeps_to_tol.h0.05": sweeps(0.05),
                "solver.sweeps_to_tol.h0.025": sweeps(0.025),
                "solver.us_per_sweep.h0.025": fine_s / fine_sweeps * 1e6 if fine_sweeps else 0.0,
                "solver.grad_evals_per_sweep": grads_in_relax / all_sweeps if all_sweeps else 0.0,
                "planar.divergence_residual_s": total.get("planar.divergence_residual", 0.0),
                "planar.disk_integral_s": float(np.median(disk_64x256)) if disk_64x256 else 0.0,
                "planar.green_s": total.get("planar.green_boundary_identity", 0.0),
                "planar.monotone_s": total.get("planar.monotonicity_profile", 0.0),
                "planar.reconstruct_U_s": total.get("planar.reconstruct_U", 0.0),
                "fields.grid_jets_us_per_node": jets_s / nodes * 1e6 if nodes else 0.0,
                "fields.jet_calls": calls.get("fields.ClosedFormField.jet", 0),
                "fields.jet_self_s": self_s.get("fields.ClosedFormField.jet", 0.0),
                "estimates.speed_envelope_s": total.get("estimates.speed_envelope_check", 0.0),
                "cli.write_s": write_s,
                "trace.spans": hi - lo,
            }
        )
        return v

    def save(self, path) -> None:
        """Write every span as columns of one .npz file."""
        rows = self.spans
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array([r[0] for r in rows], dtype=np.int32),
            start=np.array([r[1] for r in rows]),
            end=np.array([r[2] for r in rows]),
            parent=np.array([r[3] for r in rows], dtype=np.int64),
            op=np.array([r[4] for r in rows], dtype=np.int32),
            error=np.array([r[6] for r in rows], dtype=bool),
        )


def _potential_namer(method):
    def namer(args):
        owner = "counterexample.potential" if args[0].name == "counterexample" else "potentials.Potential"
        return f"{owner}.{method}"

    return namer


def install(tracer: Tracer) -> int:
    """Wrap every public function and public method of the nine modules and
    rebind every reference to a wrapped function.  Returns the number of
    wrapped callables."""
    import modicalab

    mods = {name: importlib.import_module(f"modicalab.{name}") for name in MODULES}
    annotate = _annotators(mods)
    wrapped = {}  # id(original) -> (original, wrapper)
    count = 0
    for short, mod in mods.items():
        extra = EXTRA_FUNCTIONS.get(short, ())
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and attr not in extra:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                wrapped[id(obj)] = (obj, tracer.wrap(obj, name, annotate))
                count += 1
            elif inspect.isclass(obj):
                for meth, member in list(vars(obj).items()):
                    if meth.startswith("_") or not inspect.isfunction(member):
                        continue
                    name = f"{short}.{attr}.{meth}"
                    namer = _potential_namer(meth) if obj is mods["potentials"].Potential else None
                    setattr(obj, meth, tracer.wrap(member, name, annotate, namer))
                    count += 1
    for ns in [modicalab, *mods.values()]:
        for attr, obj in list(vars(ns).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
    return count
