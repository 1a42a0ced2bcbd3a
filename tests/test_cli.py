"""End-to-end command-line runs: exit codes, JSON output, artifacts."""

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from modicalab import cli, counterexample, dynamics, fields, smooth

CLI = [sys.executable, "-m", "modicalab.cli"]


def run_cli(*argv, timeout=120):
    return subprocess.run(
        CLI + list(argv), capture_output=True, text=True, timeout=timeout
    )


def test_no_arguments_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_orbit_json_reports_the_positive_defect():
    proc = run_cli("orbit", "--R", "0.5", "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["H"] == -0.046875
    assert report["positive_defect"] is False
    assert report["drift"] <= 1e-6

    proc = run_cli("orbit", "--R", "0.9", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["positive_defect"] is True


def test_orbit_rejects_radius_outside_unit_interval():
    assert run_cli("orbit", "--R", "1.5").returncode == 2
    assert run_cli("orbit", "--R", "0").returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "--R", "0.5", "--dt", "0"),
        ("estimates", "--theorem", "3.4", "--dt", "0"),
        ("planar", "tensor", "--h", "0"),
        ("counterexample", "verify", "--dt", "0"),
        ("orbit", "--R", "0.5", "--dt", "nan"),
    ],
)
def test_step_sizes_must_be_positive_and_finite(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "positive and finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_suite_runs_without_scipy(tmp_path):
    code = (
        "import sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(name + ' is blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "from modicalab.cli import main\n"
        "sys.exit(main(['suite', '--out', sys.argv[1]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "suite: 15/15 checks passed" in proc.stdout


def test_orbit_artifacts_are_byte_reproducible(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        proc = run_cli("orbit", "--R", "0.5", "--out", str(d))
        assert proc.returncode == 0, proc.stderr
    for name in ("orbit.json", "orbit_trajectory.npy", "orbit_trajectory.npy.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_estimates_list_checks():
    proc = run_cli("estimates", "--list-checks")
    assert proc.returncode == 0
    tokens = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
    assert tokens == ["modica", "3.1", "3.2", "3.3", "3.4", "3.5", "polygon"]


def test_estimates_rejects_unknown_check():
    proc = run_cli("estimates", "--theorem", "nope")
    assert proc.returncode == 2


def test_estimates_rejects_malformed_params():
    proc = run_cli("estimates", "--theorem", "3.3", "--params", "{not json")
    assert proc.returncode == 2


def test_gradient_bound_holds_on_transition_profile():
    proc = run_cli("estimates", "--theorem", "modica", "--field", "tanh_profile", "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"] == "holds"


def test_gradient_bound_violated_on_the_connection():
    proc = run_cli("estimates", "--theorem", "modica", "--field", "counterexample", "--json")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["verdict"] == "violated"
    assert abs(report["worst_margin"] + 0.125) < 1e-6

    proc = run_cli(
        "estimates", "--theorem", "modica", "--field", "counterexample", "--expect-violation"
    )
    assert proc.returncode == 0, proc.stderr


def test_diagonal_system_constants(tmp_path):
    out = tmp_path / "art"
    proc = run_cli("estimates", "--theorem", "3.1", "--json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["constants"]["lambda"] == 5.0
    on_disk = json.loads((out / "estimate_3_1.json").read_text())
    assert on_disk == report


def test_radial_well_bound_on_circle_field():
    proc = run_cli(
        "estimates", "--theorem", "3.3", "--field", "gl_circle",
        "--params", '{"R": 0.9}', "--json",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"] == "holds"
    expected = 0.5 * (1.0 - 0.81) ** 2
    assert abs(report["worst_margin"] - expected) < 1e-10


def test_remaining_checks_hold():
    for token in ("3.2", "3.4", "3.5", "polygon"):
        proc = run_cli("estimates", "--theorem", token)
        assert proc.returncode == 0, (token, proc.stderr)


def test_connection_verification_exit_codes():
    proc = run_cli("counterexample", "verify", "--expect-violation")
    assert proc.returncode == 0, proc.stderr
    assert "violated:     True" in proc.stdout
    proc = run_cli("counterexample", "verify")
    assert proc.returncode == 1


def test_a_connection_that_fails_its_own_checks_never_passes_verify(capsys):
    # dt = 0.002 lifts the O(dt^2) equation residual past its 1e-5 gate
    for expect in ([], ["--expect-violation"]):
        assert _exit_code(["counterexample", "verify", "--dt", "0.002", *expect]) == 1, expect
        assert "internal checks pass:        False" in capsys.readouterr().out


def test_connection_runner_inverts_the_segment_at_most_four_times(tmp_path, monkeypatch):
    """Only the orbit's own samples and its two endpoints invert t(y); the
    report and the trajectory array read the stored samples."""
    calls = []
    sol = counterexample.SegmentSolution.sol
    monkeypatch.setattr(counterexample.SegmentSolution, "sol", lambda self, t: calls.append(t) or sol(self, t))
    _, artifacts, ok = cli.CHECKS["counterexample verify"]({"expect_violation": True})
    cli._write_artifacts(tmp_path, artifacts)
    assert ok
    assert (tmp_path / "counterexample_trajectory.npy").exists()
    assert len(calls) <= 4


def test_planar_green_identity_passes():
    proc = run_cli("planar", "green", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["defect"] <= 1e-6


def test_planar_convexity_dichotomy():
    sup = json.dumps({"R": float(np.sqrt(0.5))})
    proc = run_cli("planar", "convexity", "--params", sup)
    assert proc.returncode == 1
    proc = run_cli("planar", "convexity", "--params", sup, "--expect-violation")
    assert proc.returncode == 0, proc.stderr
    sub = json.dumps({"R": float(np.sqrt(0.3))})
    proc = run_cli("planar", "convexity", "--params", sub)
    assert proc.returncode == 0, proc.stderr


def test_planar_monotone_writes_csv(tmp_path):
    out = tmp_path / "prof"
    proc = run_cli(
        "planar", "monotone", "--field", "tanh_planar",
        "--density", "potential", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = (out / "monotone.csv").read_text().splitlines()
    assert lines[0] == "r,M,quad_error_estimate"
    assert len(lines) == 9  # default eight radii


def test_planar_tensor_accepts_sampled_solutions():
    # constant-tensor field: both residuals at roundoff
    proc = run_cli("planar", "tensor", "--h", "0.05", "--json")
    assert proc.returncode == 0, proc.stderr
    pair = json.loads(proc.stdout)
    assert max(pair["residual_h"], pair["residual_h2"]) <= 1e-10
    # genuinely varying tensor: the halved spacing must shrink the residual
    proc = run_cli("planar", "tensor", "--field", "tanh_planar", "--json")
    assert proc.returncode == 0, proc.stderr
    pair = json.loads(proc.stdout)
    assert pair["residual_h2"] < pair["residual_h"]


def test_planar_ufield_artifact_roundtrips(tmp_path):
    out = tmp_path / "art"
    proc = run_cli("planar", "ufield", "--h", "0.05", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rec = fields.load_gridfield(out / "ufield.npy")
    assert rec.meta["content"] == "auxiliary-U"
    report = json.loads((out / "ufield.json").read_text())
    assert report["path_defect"] <= report["gate"]


@pytest.fixture()
def relax_config(tmp_path):
    cfg = {
        "potential": {"name": "double_well"},
        "domain": {
            "origin": [-3.0, 0.0],
            "spacing": [0.15, 0.15],
            "shape": [41, 5],
        },
        "boundary": {"field": "tanh_planar"},
        "max_iters": 20000,
        "tol": 1e-8,
    }
    path = tmp_path / "relax.json"
    path.write_text(json.dumps(cfg))
    return path


def test_relax_from_config(relax_config, tmp_path):
    out = tmp_path / "art"
    proc = run_cli("relax", "--config", str(relax_config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "cycles on 2 levels, residual" in proc.stdout  # 41 x 5 halves once
    log = json.loads((out / "relax.json").read_text())
    assert log["converged"] is True
    g = fields.load_gridfield(out / "relax_field.npy")
    assert g.values.shape == (41, 5, 1)


@pytest.mark.parametrize("change, reason", [
    pytest.param({"max_iters": 0}, "max_iters", id="max_iters-0"),
    pytest.param({"domain": {"origin": [-3.0, 0.0], "spacing": [0.0, 0.15], "shape": [41, 5]}},
                 "spacing", id="spacing-0"),
    pytest.param({"tol": float("nan")}, "tol", id="tol-nan"),
])
def test_relax_bad_numbers_are_usage_errors(relax_config, change, reason):
    cfg = json.loads(relax_config.read_text())
    relax_config.write_text(json.dumps({**cfg, **change}))
    proc = run_cli("relax", "--config", str(relax_config))
    assert proc.returncode == 2
    assert reason in proc.stderr and "Traceback" not in proc.stderr


def test_relax_bad_config_is_usage_error(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"domain": {}}))
    assert run_cli("relax", "--config", str(broken)).returncode == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{]")
    assert run_cli("relax", "--config", str(garbled)).returncode == 2
    assert run_cli("relax", "--config", str(tmp_path / "missing.json")).returncode == 2


@pytest.mark.parametrize("potential, accepted", [
    ({"name": "double_well", "params": {"m": 3}}, "accepted: none"),
    ({"name": "ginzburg_landau", "params": {"bogus": 3}}, "accepted: m"),
])
def test_relax_potential_params_it_does_not_take_are_usage_errors(capsys, relax_config, potential, accepted):
    relax_config.write_text(json.dumps({**json.loads(relax_config.read_text()), "potential": potential}))
    assert _exit_code(["relax", "--config", str(relax_config)]) == 2
    assert accepted in capsys.readouterr().err


@pytest.mark.parametrize("config", [[1, 2], {}])
def test_relax_config_needs_an_object_with_the_required_keys(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    proc = run_cli("relax", "--config", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert all(key in proc.stderr for key in ("potential", "domain", "boundary")), proc.stderr


# ---------------------------------------------------------------------------
# the runner table: flags, --params keys, suite steps


def _exit_code(argv):
    """main's exit code, counting a parser error's SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


def _relax_strip(tmp_path, **extra):
    path = tmp_path / "strip.json"
    path.write_text(json.dumps({
        "potential": {"name": "double_well"},
        "domain": {"origin": [-3.0, 0.0], "spacing": [0.15, 0.15], "shape": [41, 5]},
        "boundary": {"field": "tanh_planar"},
        **extra,
    }))
    return str(path)


@pytest.mark.parametrize("argv, reason", [
    (["suite", "--tol", "1e-300", "--seed", "9", "--json", "--expect-violation"], "unrecognized"),
    (["planar", "tensor", "--tol", "1e-300"], "does not read --tol"),
    (["planar", "tensor", "--expect-violation"], "does not read --expect-violation"),
    (["planar", "green", "--seed", "7", "--density", "grad_sq"], "unrecognized"),
    (["planar", "green", "--density", "grad_sq"], "does not read --density"),
    (["estimates", "--theorem", "3.1", "--field", "tanh_planar", "--dt", "5"], "does not read --dt, --field"),
    (["estimates", "--theorem", "modica", "--dt", "0.01"], "--field counterexample"),
    (["orbit", "--R", "0.5", "--expect-violation"], "unrecognized"),
    (["counterexample", "build", "--expect-violation"], "does not read --expect-violation"),
    (["relax", "--config", "{strip}", "--seed", "1"], "unrecognized"),
])
def test_flags_a_check_does_not_read_are_usage_errors(capsys, tmp_path, argv, reason):
    argv = [_relax_strip(tmp_path) if a == "{strip}" else a for a in argv]
    assert _exit_code(argv) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("argv, accepted", [
    (["estimates", "--theorem", "3.3", "--params", '{"R": 0.9, "bogus": 1}'], "accepted keys: R"),
    (["estimates", "--theorem", "modica", "--field", "tanh_planar", "--params", '{"R": 0.5}'],
     "accepted keys: none"),
    (["estimates", "--theorem", "3.5", "--params", '{"R": 0.5}'], "does not read --params"),
    (["estimates", "--theorem", "3.4", "--params", '{"R": 0.5, "N": 3}'], "accepted keys: R, eps"),
    (["planar", "monotone", "--params", '{"radius": 2.0}'], "accepted keys: R, center, radii"),
    (["planar", "convexity", "--field", "product_saddle", "--params", '{"R": 0.5}'], "accepted keys: none"),
])
def test_unknown_params_keys_are_usage_errors(capsys, argv, accepted):
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert accepted in err and "Traceback" not in err


def test_every_catalog_field_runs_through_every_field_check_without_raising(capsys):
    """Each check that reads --field, run on each catalog field with its
    default params, exits 0, 1 or 2: a field a check cannot take, or one
    whose required params are left out, is a usage error, not a traceback."""
    codes = {}
    for words in (w for w, check in cli.CHECKS.items() if "field" in check.flags):
        command, _, token = words.partition(" ")
        selector = cli.COMMANDS[command][1]
        argv = [command, *([selector] if selector.startswith("--") else []), token]
        for name in fields.CATALOG_IDS:
            codes[words, name] = cli.main(argv + ["--field", name])
    assert len(codes) == 7 * len(fields.CATALOG_IDS)
    assert set(codes.values()) <= {0, 1, 2}, codes


@pytest.mark.parametrize("op", ["tensor", "ufield", "monotone"])
@pytest.mark.parametrize("name", ["gl_circle", "tanh_profile"])
def test_planar_checks_on_a_line_field_name_the_planar_requirement(capsys, op, name):
    assert _exit_code(["planar", op, "--field", name]) == 2
    err = capsys.readouterr().err
    assert "needs a planar field (n=2)" in err and "trailing axis" not in err


@pytest.mark.parametrize("argv, reason", [
    pytest.param(["estimates", "--theorem", "polygon", "--params", '{"vertices": [1, 2, 3]}'],
                 "vertices must be a list of points of the plane", id="polygon-flat-vertices"),
    pytest.param(["planar", "monotone", "--params", '{"radii": []}'], "at least two radii", id="no-radii"),
    pytest.param(["planar", "monotone", "--params", '{"radii": [1.0]}'], "at least two radii", id="one-radius"),
    pytest.param(["estimates", "--theorem", "3.1", "--params", '{"m": 0}'], "m x m with m >= 1", id="m-0"),
    pytest.param(["estimates", "--theorem", "3.1", "--params", '{"M": -1}'], "M must be positive", id="M-negative"),
    pytest.param(["relax", "--config", "{map-config}"], "potential's m = 1 components", id="relax-map-data"),
    pytest.param(["estimates", "--theorem", "modica", "--tol", "nan"], "--tol: must be finite and >= 0",
                 id="tol-nan"),
    pytest.param(["counterexample", "verify", "--tol", "-1"], "--tol: must be finite and >= 0", id="tol-negative"),
    pytest.param(["estimates", "--theorem", "3.2", "--params", '{"R": -1}'], "R must be positive and finite",
                 id="R-negative"),
    pytest.param(["estimates", "--theorem", "3.2", "--params", '{"R": NaN}'], "R must be positive and finite",
                 id="R-nan"),
    pytest.param(["estimates", "--theorem", "polygon", "--params", '{"n_samples": 0}'],
                 "n_samples must be at least 1", id="polygon-no-samples"),
    pytest.param(["estimates", "--theorem", "polygon", "--seed", "39", "--params", '{"n_samples": 1}'],
                 "no sample fell outside the polygon", id="polygon-no-exterior-sample"),
    pytest.param(["planar", "green", "--params", '{"center": [0]}'], "center must be a finite point of the plane",
                 id="green-center-1d"),
    pytest.param(["planar", "green", "--params", '{"center": [0, 0, 0]}'],
                 "center must be a finite point of the plane", id="green-center-3d"),
    pytest.param(["planar", "monotone", "--params", '{"center": [0, 0, 0]}'],
                 "center must be a finite point of the plane", id="monotone-center-3d"),
    pytest.param(["planar", "green", "--params", '{"radius": NaN}'], "radius must be positive and finite",
                 id="green-radius-nan"),
    pytest.param(["planar", "green", "--params", '{"radius": Infinity}'], "radius must be positive and finite",
                 id="green-radius-inf"),
    pytest.param(["planar", "monotone", "--params", '{"radii": [0.5, NaN]}'],
                 "radii must be positive, finite and strictly increasing", id="monotone-radii-nan"),
    pytest.param(["estimates", "--theorem", "3.2", "--params", '{"m": 2.7}'], "m must be an integer, got 2.7",
                 id="32-m-fractional"),
    pytest.param(["estimates", "--theorem", "3.1", "--params", '{"m": 2.5}'], "m must be an integer, got 2.5",
                 id="31-m-fractional"),
    pytest.param(["estimates", "--theorem", "polygon", "--params", '{"N": 5.5}'], "N must be an integer, got 5.5",
                 id="polygon-N-fractional"),
    pytest.param(["estimates", "--theorem", "polygon", "--params", '{"n_samples": 99.5}'],
                 "n_samples must be an integer, got 99.5", id="polygon-n-samples-fractional"),
    pytest.param(["relax", "--config", "{fractional-cycles}"], "max_iters must be an integer, got 2.5",
                 id="relax-max-iters-fractional"),
    pytest.param(["estimates", "--theorem", "polygon", "--params", '{"radius": NaN}'], "radius must be finite",
                 id="polygon-radius-nan"),
    pytest.param(["estimates", "--theorem", "polygon", "--params", '{"vertices": [[0, 0], [1, 0], [0, NaN]]}'],
                 "vertices must be finite", id="polygon-vertices-nan"),
    pytest.param(["estimates", "--theorem", "3.1", "--params", '{"D": [1, NaN]}'], "D must be finite",
                 id="31-D-nan"),
    pytest.param(["estimates", "--theorem", "3.1", "--params", '{"A": [[1, 0], [0, Infinity]]}'],
                 "A must be finite", id="31-A-inf"),
    # counts no allocator grants: refused before anything is allocated
    pytest.param(["counterexample", "verify", "--dt", "1e-12"],
                 "dt 1e-12 asks for 19,650,902,463,806 samples, over the cap of 10,000,000", id="dt-past-the-cap"),
    pytest.param(["orbit", "--R", "0.5", "--dt", "1e-12"],
                 "--dt 1e-12 asks for 7,255,197,456,938 samples, over the cap of 10,000,000", id="orbit-dt-past-the-cap"),
    pytest.param(["planar", "tensor", "--h", "1e-7"],
                 "--h 1e-07 asks for 400,000,040,000,001 samples, over the cap of 10,000,000", id="h-past-the-cap"),
    # an overflow is refused, not read as a verdict
    pytest.param(["planar", "green", "--params", '{"radius": 1e300}'], "overflow encountered",
                 id="green-radius-overflows"),
    pytest.param(["estimates", "--theorem", "3.2", "--params", '{"R": 1e300}'], "overflow encountered",
                 id="32-R-overflows"),
])
def test_bad_input_exits_2_with_its_reason(capsys, tmp_path, argv, reason):
    if "{map-config}" in argv:
        config = {"potential": {"name": "double_well"}, "boundary": {"field": "harmonic_linear_map"},
                  "domain": {"origin": [0.0, 0.0], "spacing": [0.1, 0.1], "shape": [9, 9]}}
        (tmp_path / "map.json").write_text(json.dumps(config))
        argv = [str(tmp_path / "map.json") if a == "{map-config}" else a for a in argv]
    if "{fractional-cycles}" in argv:
        argv = [_relax_strip(tmp_path, max_iters=2.5) if a == "{fractional-cycles}" else a for a in argv]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err


def test_dt_past_the_cap_is_refused_before_the_segment_is_sampled(capsys, monkeypatch):
    def sampled(self, F):
        raise AssertionError("the segment was sampled")

    monkeypatch.setattr(smooth._PanelIntegral, "inverse", sampled)
    assert _exit_code(["counterexample", "verify", "--dt", "1.5e-6"]) == 2
    assert "dt 1.5e-06 asks for 13,100,603 samples, over the cap of 10,000,000" in capsys.readouterr().err


class _Recording(dict):
    """A params dict that records every key a runner looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_each_subcommand_registers_exactly_the_flags_its_runners_read(tmp_path):
    given = {"orbit": {"R": 0.5}, "relax": {"config": _relax_strip(tmp_path)}}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(cli.COMMANDS)
    for command, sp in subparsers.items():
        registered = {a.dest for a in sp._actions if a.option_strings}
        registered -= {"help", "out", "json", "theorem", "list_checks"}
        read = set()
        for words, check in cli.CHECKS.items():
            if words.split(" ")[0] != command or command == "suite":
                continue
            params = _Recording({"orbit": cli._circular_orbit, **check.flags, **check.keys,
                                 **given.get(words, {})})
            check.run(params)
            assert not set(check.flags) & set(check.keys), words
            flags = (params.read & set(cli.FLAGS)) - set(check.keys)
            assert flags == set(check.flags), words
            assert params.read - flags - {"orbit"} == set(check.keys), words
            read |= flags | ({"params"} if check.keys or "field" in flags else set())
        assert registered == read, command


@pytest.fixture(scope="module")
def two_suite_runs(tmp_path_factory):
    """Two suite runs in one process, each with the radii of the circular
    orbits it integrated.  Every integration, in whichever worker, appends
    one line to a file opened with O_APPEND, so no worker's count is lost."""
    runs = []
    integrate = dynamics.integrate
    with pytest.MonkeyPatch.context() as mp:
        for k in range(2):
            log = tmp_path_factory.mktemp(f"radii{k}") / "radii"
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

            def counting(p, start, *args, **kwargs):
                os.write(fd, f"{float(np.linalg.norm(start.u))!r}\n".encode())
                return integrate(p, start, *args, **kwargs)

            mp.setattr(dynamics, "integrate", counting)
            out = tmp_path_factory.mktemp(f"suite{k}")
            try:
                assert cli.main(["suite", "--out", str(out)]) == 0
            finally:
                os.close(fd)
            runs.append((out, [float(r) for r in log.read_text().split()]))
    return runs


def test_each_suite_run_integrates_the_shared_orbit_once(two_suite_runs):
    for _, radii in two_suite_runs:
        assert radii.count(0.5) == 1


_SUBCOMMAND_STEPS = [s for unit in cli.SUITE for s in unit if not s[1].startswith("suite ")]


@pytest.mark.parametrize("step, words, params", _SUBCOMMAND_STEPS, ids=[s[0] for s in _SUBCOMMAND_STEPS])
def test_suite_step_artifacts_are_the_subcommand_artifacts(two_suite_runs, tmp_path, step, words, params):
    command, _, selector = words.partition(" ")
    argv = [command] + (["--theorem"] if command == "estimates" else []) + ([selector] if selector else [])
    check, keys = cli.CHECKS[words], {}
    for key, value in params.items():
        if key not in check.flags:
            keys[key] = value
        else:
            argv += ["--" + key.replace("_", "-")] + ([] if value is True else [repr(value)])
    if keys:
        argv += ["--params", json.dumps(keys)]
    assert _exit_code(argv + ["--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written
    suite_out = two_suite_runs[0][0]
    for name in written:
        assert (tmp_path / name).read_bytes() == (suite_out / name).read_bytes(), name


def test_suite_runs_in_one_process_write_identical_trees(two_suite_runs):
    trees = [{p.name: p.read_bytes() for p in sorted(out.iterdir())} for out, _ in two_suite_runs]
    assert len(trees[0]) == 24
    assert trees[0] == trees[1]


def test_suite_arrays_load_as_c_ordered_float64(two_suite_runs):
    out = two_suite_runs[0][0]
    names = sorted(p.name for p in out.glob("*.npy"))
    assert names == ["counterexample_trajectory.npy", "orbit_trajectory.npy", "relax_field.npy", "ufield.npy"]
    for name in names:
        a = np.load(out / name, allow_pickle=False)
        assert a.dtype == np.dtype("<f8") and a.flags.c_contiguous, name
        assert json.loads((out / f"{name}.json").read_text()), name


def test_suite_out_stays_small(two_suite_runs):
    # bulk text (2.95 MB of repr floats) must not come back unnoticed
    size = sum(p.stat().st_size for p in two_suite_runs[0][0].iterdir())
    assert size <= 1_500_000, f"suite --out holds {size:,} bytes"


def _writers(out) -> dict:
    """Each file name the suite steps write, run one by one into directories
    of their own under `out`, with the steps that write it."""
    writers = {}
    for step, words, params in (s for unit in cli.SUITE for s in unit):
        _, artifacts, _ = cli.CHECKS[words](params)
        cli._write_artifacts(out / step, artifacts)
        for path in (out / step).iterdir():
            writers.setdefault(path.name, []).append(step)
    return writers


def test_each_out_file_is_written_by_exactly_one_suite_step(tmp_path):
    """The suite's workers write into one --out side by side: a file name two
    steps write would be a race between them."""
    steps = [step for unit in cli.SUITE for step, _, _ in unit]
    assert len(set(steps)) == len(steps) == 15
    writers = _writers(tmp_path)
    assert len(writers) == 24
    assert {name: by for name, by in writers.items() if len(by) > 1} == {}


def test_a_step_that_reuses_a_file_name_fails_the_guard(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "SUITE", ((("estimate-3.1-constants", "estimates 3.1", {}),),
                                       (("estimate-3.1-again", "estimates 3.1", {"tol": 1e-6}),)))
    assert _writers(tmp_path) == {"estimate_3_1.json": ["estimate-3.1-constants", "estimate-3.1-again"]}


@pytest.fixture()
def within_a_minute():
    """Fails the test, rather than hanging it, if it runs past 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the suite run did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_suite_workers_print_and_write_what_one_worker_does(monkeypatch, capsys, tmp_path, within_a_minute):
    """Four workers, more than the cores of a small box, against one: the
    same stdout and the same --out bytes, and each step's time on stderr."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = []
    for n in (1, 4):
        _cpus(monkeypatch, n)
        assert cli.main(["suite", "--out", str(tmp_path / str(n))]) == 0
        out, err = capsys.readouterr()
        runs.append((out, {p.name: p.read_bytes() for p in sorted((tmp_path / str(n)).iterdir())}))
    assert len(forks) == 3
    assert runs[0] == runs[1]
    assert len(runs[1][1]) == 24
    steps = [step for unit in cli.SUITE for step, _, _ in unit]
    assert [line.split()[0] for line in err.splitlines() if line.endswith(" ms")] == steps
    assert " ms" not in out
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exit_3():
    os._exit(3)


def _raise():
    raise RuntimeError("a step raised in a worker")


@pytest.mark.parametrize("fault, reason", [
    pytest.param(_exit_3, "worker exited with status 3", id="worker-dies"),
    pytest.param(_raise, "a step raised in a worker", id="step-raises"),
])
def test_a_step_that_fails_in_a_worker_fails_the_suite(monkeypatch, capsys, tmp_path, within_a_minute,
                                                         fault, reason):
    """Every runner faults in a worker and passes at once in this process,
    which waits until a worker has claimed a unit."""
    parent, faulted = os.getpid(), tmp_path / "faulted"

    def run(p):
        if os.getpid() != parent:
            faulted.touch()
            fault()
        while not faulted.exists():
            time.sleep(0.001)
        return {}, {}, True

    for words in {words for unit in cli.SUITE for _, words, _ in unit}:
        monkeypatch.setitem(cli.CHECKS, words, dataclasses.replace(cli.CHECKS[words], run=run))
    _cpus(monkeypatch, 2)
    assert cli.main(["suite", "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed, out
    assert all(f"ERROR {step}: {reason}" in err for step in failed), err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_fork_that_fails_leaves_the_queue_to_the_running_workers(monkeypatch, capsys, tmp_path):
    def refused():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(os, "fork", refused)
    _cpus(monkeypatch, 2)
    assert cli.main(["suite", "--out", str(tmp_path)]) == 0
    assert "suite: 15/15 checks passed" in capsys.readouterr().out
    assert len(list(tmp_path.iterdir())) == 24
