import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symtop import dynamics, orbits, poisson, reduction
from symtop.algebra3 import exp_so3
from symtop.cli import CSV_COLUMNS, main, write_csv
from symtop.dynamics import Trajectory
from symtop.phase import LAYOUTS, SpaceId

FREE_TOP_REDUCED = {
    "space": "reduced",
    "body": {"M": 1.0, "I1": 1.0, "I3": 0.5},
    "potential": {"type": "zero"},
    "initial": {
        "x": [0.1, -0.2, 0.3],
        "p": [0.2, 0.1, -0.1],
        "nu": [0.8944271909999159, 0.0, 0.4472135954999579],
        "pi": [0.2, 0.3, 0.9],
    },
    "dt": 1e-3,
    "T": 0.5,
    "sample_stride": 50,
}

FREE_TOP_FULL = {
    "space": "full",
    "body": {"M": 1.0, "I1": 1.0, "I3": 0.5},
    "potential": {"type": "zero"},
    "initial": {
        "x": [0.1, -0.2, 0.3],
        "p": [0.2, 0.1, -0.1],
        "axis_angle": [0.4, -0.3, 0.8],
        "pi": [0.2, 0.3, 0.9],
    },
    "dt": 1e-3,
    "T": 0.5,
    "sample_stride": 50,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [list(map(float, line.strip().split(","))) for line in f]
    return header, np.array(rows)


def test_simulate_reduced_writes_csv(tmp_path):
    cfg = write_config(tmp_path, FREE_TOP_REDUCED)
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == [
        "t", "x1", "x2", "x3", "p1", "p2", "p3", "nu1", "nu2", "nu3",
        "pi1", "pi2", "pi3", "energy", "C1", "C2", "ortho_defect",
    ]
    c1 = rows[:, header.index("C1")]
    assert np.abs(c1 - 1.0).max() <= 1e-12
    # reduced runs emit a zero orthogonality-defect column
    assert np.all(rows[:, header.index("ortho_defect")] == 0.0)
    assert rows[0, 0] == 0.0 and abs(rows[-1, 0] - 0.5) < 1e-12


def test_simulate_full_space(tmp_path):
    cfg = write_config(tmp_path, FREE_TOP_FULL)
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert np.abs(rows[:, header.index("C1")] - 1.0).max() <= 1e-12
    assert rows[:, header.index("ortho_defect")].max() <= 1e-12


def test_csv_bit_stable(tmp_path):
    cfg = write_config(tmp_path, FREE_TOP_REDUCED)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_simulate_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2


def test_simulate_missing_config():
    assert main(["simulate", "--config", "/nonexistent.json", "--out", "/tmp/o.csv"]) == 2


def test_simulate_rejects_zero_horizon(tmp_path):
    cfg = dict(FREE_TOP_REDUCED, T=0.0)
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")]) == 2


_NESTED_SUM = '{"type": "sum", "terms": [' * 495 + '{"type": "zero"}' + "]}" * 495


@pytest.mark.parametrize(
    "text, message",
    [
        (b"[" * 100_000, "error: config nests too deeply"),
        (json.dumps(FREE_TOP_REDUCED).replace('{"type": "zero"}', _NESTED_SUM).encode(), "error: config nests too deeply"),
        (b"\xff{", "error: config is not valid UTF-8"),
    ],
    ids=["brackets-100000", "sum-495", "not-utf8"],
)
def test_simulate_unreadable_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert captured.out == ""


def test_simulate_rejects_unknown_key(tmp_path):
    # "seed" is not a config key: nothing would read it.
    for extra in ({"extra": 1}, {"seed": 0}):
        cfg = dict(FREE_TOP_REDUCED, **extra)
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")]) == 2


BAD_ROTATIONS = {
    "non-orthogonal": [1.01, 0, 0, 0, 1, 0, 0, 0, 1],  # defect ~2e-2 > 1e-6
    "reflection": [1, 0, 0, 0, 1, 0, 0, 0, -1],  # orthogonal, det -1
}


def _with_rotation(r):
    cfg = json.loads(json.dumps(FREE_TOP_FULL))
    del cfg["initial"]["axis_angle"]
    cfg["initial"]["R"] = r
    return cfg


def test_simulate_rejects_bad_rotation(tmp_path, capsys):
    for r in BAD_ROTATIONS.values():
        cfg = write_config(tmp_path, _with_rotation(r))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: initial rotation defect")
        assert not (tmp_path / "o.csv").exists()


def test_compare_rejects_bad_rotation(tmp_path, capsys):
    for r in BAD_ROTATIONS.values():
        assert main(["compare", "--config", write_config(tmp_path, _with_rotation(r))]) == 2
        assert capsys.readouterr().err.startswith("error: initial rotation defect")


def test_simulate_rejects_off_sphere_nu(tmp_path):
    cfg = json.loads(json.dumps(FREE_TOP_REDUCED))
    cfg["initial"]["nu"] = [1.0, 0.5, 0.0]
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")]) == 2


def test_simulate_accepts_nearly_unit_nu(tmp_path):
    cfg = json.loads(json.dumps(FREE_TOP_REDUCED))
    cfg["initial"]["nu"] = [1.0 + 5e-7, 0.0, 0.0]  # renormalized on load
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")]) == 0


def test_simulate_rejects_bad_potential(tmp_path):
    cfg = dict(FREE_TOP_REDUCED, potential={"type": "magnetic"})
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")]) == 2


def test_simulate_nonfinite_exit_code(tmp_path):
    # dipole singularity: aim straight at the origin with a large momentum
    cfg = json.loads(json.dumps(FREE_TOP_REDUCED))
    cfg["potential"] = {"type": "dipole", "m": 0.05, "mu": [0.0, 0.0, 1.0]}
    cfg["initial"]["x"] = [1.0, 0.0, 0.0]
    cfg["initial"]["p"] = [-1e155, 0.0, 0.0]
    cfg["T"] = 1.0
    cfg["dt"] = 0.5
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 3


def test_simulate_dipole_singularity_reports_step(tmp_path, capsys):
    cfg = json.loads(json.dumps(FREE_TOP_REDUCED))
    cfg["potential"] = {"type": "dipole", "m": 0.05, "mu": [0.0, 0.0, 1.0]}
    cfg["initial"]["x"] = [0.0, 0.0, 0.0]
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "step 0 of 500 (t = 0)" in err and "dipole" in err


def _with(cfg, path, value):
    """Deep copy of cfg with the entry at path (a tuple of keys) replaced."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


GRAVITY_REDUCED = _with(FREE_TOP_REDUCED, ("potential",), {"type": "gravity", "g": [0.0, 0.0, -1.0], "chi": 0.3})
DIPOLE_REDUCED = _with(FREE_TOP_REDUCED, ("potential",), {"type": "dipole", "m": 0.05, "mu": [0.0, 0.0, 1.0]})


SUM_REDUCED = _with(FREE_TOP_REDUCED, ("potential",), {"type": "sum", "terms": [
    {"type": "zero"}, {"type": "gravity", "g": [0.0, 0.0, 0.0], "chi": 0.3}]})

_ONE_ATTITUDE = "error: initial must give exactly one of 'R' (9 numbers) or 'axis_angle' (3 numbers)"
_NO_ATTITUDE = {k: v for k, v in FREE_TOP_FULL["initial"].items() if k != "axis_angle"}


@pytest.mark.parametrize(
    "cfg, message",
    [(cfg, "error: ") for cfg in [
        _with(FREE_TOP_REDUCED, ("dt",), True),
        _with(FREE_TOP_REDUCED, ("T",), True),
        _with(FREE_TOP_REDUCED, ("body", "M"), True),
        _with(FREE_TOP_REDUCED, ("body", "I1"), True),
        _with(FREE_TOP_REDUCED, ("body", "I3"), True),
        _with(FREE_TOP_REDUCED, ("sample_stride",), True),
        _with(FREE_TOP_REDUCED, ("seed",), False),
        _with(GRAVITY_REDUCED, ("potential", "chi"), "0.3"),
        _with(GRAVITY_REDUCED, ("potential", "chi"), float("nan")),
        _with(GRAVITY_REDUCED, ("potential", "chi"), float("inf")),
        _with(GRAVITY_REDUCED, ("potential", "chi"), True),
        _with(DIPOLE_REDUCED, ("potential", "m"), "0.05"),
        _with(DIPOLE_REDUCED, ("potential", "m"), float("nan")),
        _with(DIPOLE_REDUCED, ("potential", "m"), 10**400),
        _with(FREE_TOP_REDUCED, ("dt",), float("inf")),
        _with(_with(FREE_TOP_REDUCED, ("T",), 1e300), ("dt",), 1e-10),
        _with(_with(FREE_TOP_REDUCED, ("T",), 1.0), ("dt",), 0.3),
        _with(FREE_TOP_REDUCED, ("T",), 4e-4),
        _with(FREE_TOP_REDUCED, ("initial", "x"), ["0.1", 0.0, 0.0]),
        _with(FREE_TOP_REDUCED, ("initial", "p"), [True, 0.0, 0.0]),
        _with(FREE_TOP_REDUCED, ("initial", "pi"), [10**400, 0.0, 0.0]),
        _with(FREE_TOP_REDUCED, ("initial", "x"), {"0": 0.1}),
    ]] + [
        # rules the library states; the error names the config path
        (_with(FREE_TOP_REDUCED, ("body", "M"), 0), "error: body: M = 0.0 must be positive"),
        (_with(FREE_TOP_REDUCED, ("body", "I3"), -1), "error: body: I3 = -1.0 must be positive"),
        (_with(FREE_TOP_REDUCED, ("dt",), 0), "error: config: dt = 0.0 must be positive"),
        (_with(FREE_TOP_REDUCED, ("T",), -1), "error: config: T = -1.0 must be positive"),
        (_with(GRAVITY_REDUCED, ("potential", "g"), [0, 0, 0]),
         "error: potential: gravity vector must be nonzero"),
        (SUM_REDUCED, "error: potential.terms[1]: gravity vector must be nonzero"),
        (_with(GRAVITY_REDUCED, ("potential", "g"), [0, 0, -1e160]),
         "error: potential: gravity vector length overflows to inf"),
        # rules of the config itself
        (_with(FREE_TOP_REDUCED, ("space",), "half"), "error: config.space must be 'full' or 'reduced'"),
        (_with(FREE_TOP_REDUCED, ("method",), "euler"), "error: config.method must be one of ('rk4', 'rk4_repair')"),
        (_with(FREE_TOP_REDUCED, ("sample_stride",), 0), "error: config.sample_stride must be a positive integer"),
        (_with(FREE_TOP_FULL, ("initial", "R"), [1, 0, 0, 0, 1, 0, 0, 0, 1]), _ONE_ATTITUDE),
        (_with(FREE_TOP_FULL, ("initial",), _NO_ATTITUDE), _ONE_ATTITUDE),
        (_with(FREE_TOP_REDUCED, ("body",), 5), "error: body must be an object"),
        ({k: v for k, v in FREE_TOP_REDUCED.items() if k != "dt"}, "error: config missing keys: ['dt']"),
        (_with(SUM_REDUCED, ("potential", "terms"), []), "error: potential.terms must be a non-empty list"),
        (_with(SUM_REDUCED, ("potential", "terms"), 3), "error: potential.terms must be a non-empty list"),
    ],
    ids=[
        "dt-bool", "T-bool", "M-bool", "I1-bool", "I3-bool", "stride-bool", "seed-bool",
        "chi-string", "chi-nan", "chi-inf", "chi-bool", "m-string", "m-nan", "m-huge-int",
        "dt-inf", "T-overflows-steps", "T-not-multiple-of-dt", "T-below-one-step",
        "vector-string", "vector-bool", "vector-huge-int", "vector-object",
        "M-zero", "I3-negative", "dt-zero", "T-negative", "g-zero", "sum-term-g-zero",
        "g-length-overflows",
        "space-half", "method-euler", "stride-zero", "R-and-axis-angle", "no-attitude", "body-number",
        "dt-missing", "terms-empty", "terms-number",
    ],
)
def test_simulate_rejects_bad_number(tmp_path, capsys, cfg, message):
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert not (tmp_path / "o.csv").exists()


def test_simulate_accepts_integer_numbers(tmp_path):
    cfg = _with(_with(GRAVITY_REDUCED, ("potential", "chi"), 1), ("T",), 1)
    cfg = _with(_with(cfg, ("body",), {"M": 1, "I1": 2, "I3": 1}), ("dt",), 0.25)
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")]) == 0


def test_check_suite_passes(capsys):
    assert main(["check", "--suite", "brackets", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def _nan_on_second_call(monkeypatch, module, name):
    """Replace module.name by a wrapper whose second result carries a NaN."""
    original = getattr(module, name)
    calls = []

    def planted(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        if len(calls) != 2:
            return out
        if isinstance(out, np.ndarray):
            out = out.copy()
            out.flat[-1] = np.nan
            return out
        if isinstance(out, orbits.OrbitLevel):
            return orbits.OrbitLevel(c1=out.c1, c2=np.nan)
        return np.nan

    monkeypatch.setattr(module, name, planted)


@pytest.mark.parametrize(
    "suite, module, name, line",
    [
        ("brackets", poisson, "structure_matrix", "brackets/CotSO3"),
        ("jacobi", poisson, "jacobi_residual_all", "jacobi/CotSO3"),
        ("poisson-map", reduction, "poisson_map_residual_all", "poisson-map/CotSE3->Reduced"),
        ("casimirs", orbits, "casimirs", "casimirs/coadjoint-invariance"),
        ("casimirs", poisson, "bracket", "casimirs/bracket-annihilation"),
        ("orbits", orbits, "witness_residual", "orbits/witness-transitivity"),
        ("orbits", orbits, "magnetic_form", "orbits/magnetic-antisymmetry"),
        ("gradients", poisson, "fd_gradient", "gradients/potential-zero"),
    ],
)
def test_check_fails_on_a_planted_nan(monkeypatch, capsys, suite, module, name, line):
    # the NaN comes at the second sample, after a finite residual
    _nan_on_second_call(monkeypatch, module, name)
    assert main(["check", "--suite", suite]) == 1
    out = capsys.readouterr().out
    row, = (r for r in out.splitlines() if r.startswith(line + " "))
    assert "max residual       nan" in row and row.endswith("FAIL")
    assert out.endswith("CHECK FAILURES PRESENT\n")


def test_orbit_fails_on_a_planted_nan(monkeypatch, capsys):
    _nan_on_second_call(monkeypatch, orbits, "witness_residual")
    assert main(["orbit", "--nu", "0,0,1", "--pi", "0.1,0.2,0.3", "--count", "5"]) == 1
    assert "worst witness residual: nan  (FAIL at 1e-9)" in capsys.readouterr().out


def test_check_deterministic(capsys):
    main(["check", "--suite", "casimirs", "--seed", "7"])
    first = capsys.readouterr().out
    main(["check", "--suite", "casimirs", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_compare_free_top(tmp_path, capsys):
    cfg = write_config(tmp_path, FREE_TOP_FULL)
    assert main(["compare", "--config", cfg]) == 0
    assert "PASS" in capsys.readouterr().out


def test_compare_gravity(tmp_path, capsys):
    cfg = json.loads(json.dumps(FREE_TOP_FULL))
    cfg["potential"] = {"type": "gravity", "g": [0.0, 0.0, -1.0], "chi": 0.3}
    assert main(["compare", "--config", write_config(tmp_path, cfg)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_compare_requires_full_space(tmp_path):
    assert main(["compare", "--config", write_config(tmp_path, FREE_TOP_REDUCED)]) == 2


def test_compare_rejects_second_dt(tmp_path):
    cfg = dict(FREE_TOP_FULL, dt_reduced=1e-2)  # unknown key: mismatched dt impossible
    assert main(["compare", "--config", write_config(tmp_path, cfg)]) == 2


def test_orbit_report(capsys):
    assert main(["orbit", "--nu", "0,0,1", "--pi", "0,0,2", "--count", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "C1 = 1" in out and "C2 = 2" in out
    assert "PASS" in out


def test_orbit_orthogonal_momentum_zero_magnetic(capsys):
    assert main(["orbit", "--nu", "0,0,1", "--pi", "5,0,0", "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert "C2 = 0" in out
    for line in out.splitlines():
        if line.strip().startswith("B(u, v)"):
            assert float(line.split("=")[1]) == 0.0


def test_orbit_rejects_zero_nu():
    assert main(["orbit", "--nu", "0,0,0", "--pi", "1,0,0"]) == 2


def test_orbit_rejects_malformed_vector():
    assert main(["orbit", "--nu", "1,2", "--pi", "0,0,1"]) == 2


@pytest.mark.parametrize(
    "nu, pi, message",
    [
        ("1,0,nan", "0.1,0.2,0.3", "error: --nu expects finite numbers"),
        ("1,0,0", "0,0,inf", "error: --pi expects finite numbers"),
        ("1,0,1e400", "0,0,1", "error: --nu expects finite numbers"),
        ("1e-6,0,0", "0.1,0.2,0.3", "error: orbit report requires 1e-09 < |nu|^2"),
        ("1e200,0,0", "0,0,1", "error: orbit report requires 1e-09 < |nu|^2"),
        ("1e150,0,0", "1e200,0,0", "error: orbit report requires 1e-09 < |nu|^2"),
        ("1,0,0", "1e10,0,0", "error: orbit report requires 1e-09 < |nu|^2"),
        # s = 1e308 is finite, but nu x d in the witness translation is not
        ("0,1e154,0", "0,0,1e154", "error: orbit report requires 1e-09 < |nu|^2"),
    ],
    ids=[
        "nu-nan", "pi-inf", "nu-overflows", "nu-below-witness-tol", "nu-squared-overflows",
        "scale-overflows", "nu-below-scaled-tol", "witness-translation-overflows",
    ],
)
def test_orbit_rejects_bad_vector(capsys, nu, pi, message):
    assert main(["orbit", "--nu", nu, "--pi", pi]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert captured.out == ""


_FINITE3 = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(_FINITE3, _FINITE3)
def test_orbit_fuzzed_finite_vectors_exit_0_or_2(nu, pi):
    # "--nu=..." because argparse would read a leading "-" as an option
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["orbit", f"--nu={','.join(map(repr, nu))}", f"--pi={','.join(map(repr, pi))}", "--count", "5"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), out + err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1 and out == "", err


ORBIT_ARGS = ["orbit", "--nu", "0,0,1", "--pi", "0.1,0.2,0.3"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--suite", "all", "--seed", "-1"], "error: --seed must be a non-negative integer"),
        (ORBIT_ARGS + ["--seed", "-1"], "error: --seed must be a non-negative integer"),
        (ORBIT_ARGS + ["--count", "-5"], "error: --count must be a positive integer"),
        (ORBIT_ARGS + ["--count", "0"], "error: --count must be a positive integer"),
        (["compare", "--tol", "nan"], "error: --tol must be a positive finite number"),
        (["compare", "--tol", "inf"], "error: --tol must be a positive finite number"),
        (["compare", "--tol=-1e-6"], "error: --tol must be a positive finite number"),
    ],
    ids=["check-seed", "orbit-seed", "orbit-count-negative", "orbit-count-zero", "tol-nan", "tol-inf", "tol-negative"],
)
def test_bad_flag_values_exit_2(tmp_path, capsys, argv, message):
    if argv[0] == "compare":
        argv = argv + ["--config", write_config(tmp_path, FREE_TOP_FULL)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "nu, pi", [("1,0,0", "1e8,3,0"), ("1e5,0,0", "0,1,1"), ("1e100,0,0", "0,0,1")]
)
def test_orbit_large_inputs_pass(capsys, nu, pi):
    assert main(["orbit", "--nu", nu, "--pi", pi]) == 0
    out = capsys.readouterr().out
    line, = (ln for ln in out.splitlines() if ln.startswith("worst witness residual"))
    assert float(line.split()[3]) < 1e-14 and "PASS" in line


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "symtop.cli", *args], capture_output=True, text=True
    )


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_step_too_large_for_repair_exits_3(tmp_path, command):
    # dt = 5 takes R far outside the repair's reach in the first step
    cfg = _with(_with(FREE_TOP_FULL, ("dt",), 5.0), ("T",), 10.0)
    args = ["--config", write_config(tmp_path, cfg)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "o.csv")]
    proc = _run_cli(command, *args)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: step 1 of 2 (t = 5): orthogonality defect")
    assert "exceeds repair limit" in proc.stderr
    assert "Traceback" not in proc.stderr


_DIPOLE_FULL = _with(FREE_TOP_FULL, ("potential",), DIPOLE_REDUCED["potential"])


# Finite configs whose first monitors overflow: one error line and exit 3.
@pytest.mark.parametrize(
    "cfg, commands, message",
    [
        (_with(FREE_TOP_FULL, ("initial", "pi"), [1e160, 0, 0]), ("simulate", "compare"), "non-finite monitor"),
        (_with(GRAVITY_REDUCED, ("initial", "p"), [1e160, 0, 0]), ("simulate",), "non-finite monitor"),
        (_with(_DIPOLE_FULL, ("initial", "x"), [1e155, 0, 0]), ("simulate", "compare"), "|x|^2 overflows"),
    ],
    ids=["spin-term", "energy", "dipole-r2"],
)
def test_overflowing_monitor_exits_3(tmp_path, capsys, cfg, commands, message):
    args = ["--config", write_config(tmp_path, cfg)]
    for command in commands:
        extra = ["--out", str(tmp_path / "o.csv")] if command == "simulate" else []
        assert main([command, *args, *extra]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: step 0 of 500 (t = 0): ") and err.count("\n") == 1, err
        assert message in err


def test_simulate_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    def run(*args):
        raise AssertionError("simulate ran before --out was found unwritable")

    monkeypatch.setattr(dynamics, "simulate", run)
    out = str(tmp_path / "missing" / "o.csv")
    assert main(["simulate", "--config", write_config(tmp_path, FREE_TOP_REDUCED), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out: ") and err.count("\n") == 1, err


def test_simulate_failed_run_keeps_existing_out(tmp_path):
    out = tmp_path / "o.csv"
    out.write_bytes(b"earlier,run\n1,2\n")
    cfg = _with(FREE_TOP_FULL, ("initial", "pi"), [1e160, 0, 0])  # exits 3 at step 0
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
    assert out.read_bytes() == b"earlier,run\n1,2\n"


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shipped(name, **initial):
    """The shipped config name with T = 0.01 and the given initial entries;
    an R replaces the axis_angle."""
    cfg = json.loads((_CONFIGS / name).read_text())
    if "R" in initial:
        del cfg["initial"]["axis_angle"]
    cfg["initial"].update(initial)
    cfg["T"] = 0.01
    return cfg


# Finite entries whose admission check overflows inside numpy: exit 2 with the
# one-line error, and no numpy warning on the way.
@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize(
    "cfg, message",
    [
        (_shipped("free_top_full.json", R=[1e155, 0, 0, 0, 1, 0, 0, 0, 1]), "error: initial rotation defect inf"),
        (_shipped("free_top_full.json", axis_angle=[1e200, 0, 0]), "error: initial.axis_angle length overflows to inf"),
        (_shipped("gravity_reduced.json", nu=[1e200, 0, 0]), "error: initial |nu| deviates from 1 by inf"),
    ],
    ids=["R", "axis-angle", "nu"],
)
def test_huge_initial_entry_exits_2(tmp_path, capsys, cfg, message, command):
    extra = ["--out", str(tmp_path / "o.csv")] if command == "simulate" else []
    assert main([command, "--config", write_config(tmp_path, cfg), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err


def test_simulate_failed_run_leaves_no_new_out(tmp_path, capsys):
    out = tmp_path / "o.csv"
    cfg = _shipped("free_top_full.json", pi=[1e160, 0, 0])  # exits 3 at step 0
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: step 0 of 10 ") and err.count("\n") == 1, err
    assert not out.exists()


# OpenBLAS picks its kernel from the CPU at run time, and OPENBLAS_CORETYPE
# forces one in a single process.  Nehalem and Prescott run on any x86-64 CPU
# and round without fused multiply-adds.  No BLAS call reaches a CSV field.
@pytest.mark.parametrize("name", ["dipole_full.json", "gravity_reduced.json"])
def test_csv_bytes_do_not_depend_on_the_openblas_kernel(tmp_path, name):
    cfg = json.loads((_CONFIGS / name).read_text())
    cfg["T"] = 0.1
    path = write_config(tmp_path, cfg)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    csvs = []
    for core in (None, "Nehalem", "Prescott"):
        out = tmp_path / f"{core}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "symtop.cli", "simulate", "--config", path, "--out", str(out)],
            env=env if core is None else {**env, "OPENBLAS_CORETYPE": core},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append(out.read_bytes())
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]


# Columns of the (x, p, nu, pi) entries of each chart, written out.
_CSV_ENTRIES = {
    SpaceId.Reduced: list(range(12)),
    SpaceId.CotSE3: [0, 1, 2, 3, 4, 5, 8, 11, 14, 15, 16, 17],
}


def test_csv_header():
    # CSV_COLUMNS is built from Layout.names; the header text is fixed
    assert CSV_COLUMNS == "t,x1,x2,x3,p1,p2,p3,nu1,nu2,nu3,pi1,pi2,pi3,energy,C1,C2,ortho_defect"


@pytest.mark.parametrize("space", list(_CSV_ENTRIES))
def test_csv_text(tmp_path, space):
    v = [-0.0, 5e-324, 1e308, -1.5e-300]
    z = np.resize(v, (2, LAYOUTS[space].dim))  # each row cycles through v
    a, b = np.array(v[:2]), np.array(v[2:])
    traj = Trajectory(space, t=a, z=z, energy=b, c1=a[::-1], c2=b[::-1], ortho_defect=a)
    path = str(tmp_path / "o.csv")
    write_csv(path, traj)
    lines = [CSV_COLUMNS] + [
        ",".join(format(float(v), ".17g") for v in
                 [traj.t[i], *z[i, _CSV_ENTRIES[space]], traj.energy[i], traj.c1[i], traj.c2[i], traj.ortho_defect[i]])
        for i in range(2)
    ]
    with open(path, "rb") as f:
        assert f.read() == "".join(line + "\n" for line in lines).encode()


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, FREE_TOP_REDUCED)
    out = str(tmp_path / "traj.csv")
    proc = _run_cli("simulate", "--config", cfg, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert "drift" in proc.stdout


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ANGLES = st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3).map(exp_so3)
_REFLECT = np.diag([1.0, 1.0, -1.0])
_R_ENTRIES = st.one_of(
    st.lists(_FINITE, min_size=9, max_size=9),
    _ANGLES.map(lambda r: r.ravel().tolist()),
    _ANGLES.map(lambda r: (r @ _REFLECT).ravel().tolist()),
)
_NU = st.one_of(
    st.lists(_FINITE, min_size=3, max_size=3),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: (np.array(v) / np.linalg.norm(v)).tolist()),
)
# (dt, T): near-whole horizons of at most 50 steps with dt up to 10, and
# arbitrary pairs.  Valid pairs of more than 50 steps, or with dt > 10, would
# run long; they are not drawn.  A dt far outside the integrator's stable range
# (|omega| dt < 1) may end in exit 3, see _STEP_FAILURE.
_WHOLE = st.tuples(
    st.floats(1e-3, 10.0), st.integers(1, 50), st.sampled_from([0.0, 1e-12, 1e-8, 0.3, -0.5])
).map(lambda a: (a[0], a[0] * a[1] * (1.0 + a[2])))
_ANY = st.tuples(st.floats(), st.floats()).filter(
    lambda a: not (a[0] > 0.0 and a[1] > 0.0 and (a[0] > 10.0 or a[1] / a[0] > 50.0))
)
# The one stderr line of a run that fails in a step (exit 3): the step and t,
# then the repair's limit, a zero-length nu, a non-finite state or monitor, or
# the dipole's singularity.
_STEP_FAILURE = re.compile(
    r"error: step \d+ of \d+ \(t = [^)]*\): (orthogonality defect .* exceeds repair limit"
    r"|nu has zero length|integration step produced a non-finite state|non-finite monitor|dipole potential)"
)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["full", "reduced"]), _R_ENTRIES, _NU, st.one_of(_WHOLE, _ANY))
# one step of dt 1 from the identity leaves R past the repair limit: exit 3
@example("full", [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0], (1.0, 1.0))
def test_simulate_fuzzed_config_exits_0_or_2(space, r, nu, horizon):
    cfg = json.loads(json.dumps(FREE_TOP_FULL if space == "full" else FREE_TOP_REDUCED))
    if space == "full":
        del cfg["initial"]["axis_angle"]
        cfg["initial"]["R"] = r
    else:
        cfg["initial"]["nu"] = nu
    cfg["dt"], cfg["T"] = horizon
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", path, "--out", os.path.join(tmp, "o.csv")])
    err = err.getvalue()
    assert code in (0, 2, 3), err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 3:
        assert _STEP_FAILURE.match(err) and "dipole" not in err, err
    with np.errstate(all="ignore"):  # the det of finite entries may overflow
        reflected = space == "full" and np.linalg.det(np.reshape(r, (3, 3))) < 0
    if reflected:
        assert code == 2  # no rotation has det < 0


# Config fields other than R, nu and the horizon.  Valid numbers come from
# ranges where 20 steps of dt <= 0.1 stay inside the integrator's stable range
# (|omega| dt < 1).  Up to two fields are then replaced by values the config
# must reject.
_VEC3 = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)
_POTENTIAL = st.recursive(
    st.one_of(
        st.fixed_dictionaries({"type": st.just("zero")}),
        st.fixed_dictionaries({"type": st.just("gravity"), "g": _VEC3, "chi": st.floats(-1.0, 1.0)}),
        st.fixed_dictionaries({"type": st.just("dipole"), "m": st.floats(-0.1, 0.1), "mu": _VEC3}),
    ),
    lambda terms: st.fixed_dictionaries(
        {"type": st.just("sum"), "terms": st.lists(terms, min_size=1, max_size=3)}
    ),
    max_leaves=4,
)
# Never a finite JSON number, so never valid where a number is expected.
_JUNK = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.just({}),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400]),
)
_BAD_VEC3 = st.one_of(
    _JUNK,
    st.lists(st.floats(-2.0, 2.0), max_size=4).filter(lambda v: len(v) != 3),
    st.tuples(_VEC3, st.integers(0, 2), _JUNK).map(lambda a: a[0][:a[1]] + [a[2]] + a[0][a[1] + 1:]),
)
_BAD_POTENTIAL = st.one_of(
    _JUNK,
    st.fixed_dictionaries({"type": st.sampled_from(["gravity", "dipole", "sum", "spring", 1])}),
    st.tuples(_POTENTIAL, st.text(max_size=2)).map(lambda a: {**a[0], "extra" + a[1]: 0}),
    st.fixed_dictionaries({"type": st.just("sum"), "terms": st.one_of(st.just([]), _JUNK)}),
    st.fixed_dictionaries({"type": st.just("gravity"), "g": st.just([0.0, 0.0, 0.0]), "chi": st.just(0.3)}),
    st.fixed_dictionaries({"type": st.just("gravity"), "g": st.just([0.0, 0.0, -1e160]), "chi": st.just(0.3)}),
    st.fixed_dictionaries(
        {"type": st.just("gravity"), "g": _BAD_VEC3, "chi": st.one_of(st.floats(-1.0, 1.0), _JUNK)}
    ),
    st.fixed_dictionaries({"type": st.just("dipole"), "m": _JUNK, "mu": _VEC3}),
    st.fixed_dictionaries({"type": st.just("dipole"), "m": st.just(0.05), "mu": _BAD_VEC3}),
    st.builds(lambda bad, ok: {"type": "sum", "terms": [ok, bad]}, _JUNK, _POTENTIAL),
)
_BAD_FIELDS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from([("body", "M"), ("body", "I1"), ("body", "I3")]),
                  st.one_of(_JUNK, st.floats(max_value=0.0))),
        st.tuples(st.sampled_from([("initial", "x"), ("initial", "p"), ("initial", "pi")]), _BAD_VEC3),
        st.tuples(st.just(("potential",)), _BAD_POTENTIAL),
    ),
    max_size=2,
)


def _has_dipole(node) -> bool:
    if not isinstance(node, dict):
        return False
    return node.get("type") == "dipole" or any(_has_dipole(t) for t in node.get("terms") or ())


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["full", "reduced"]),
    st.fixed_dictionaries({"M": st.floats(0.5, 2.0), "I1": st.floats(0.5, 2.0), "I3": st.floats(0.5, 2.0)}),
    _POTENTIAL,
    st.fixed_dictionaries({"x": _VEC3, "p": _VEC3, "pi": _VEC3}),
    _BAD_FIELDS,
    _WHOLE,
)
def test_simulate_fuzzed_body_potential_initial(space, body, potential, vectors, bad, horizon):
    cfg = json.loads(json.dumps(FREE_TOP_FULL if space == "full" else FREE_TOP_REDUCED))
    cfg["body"], cfg["potential"] = body, potential
    cfg["initial"].update(vectors)
    for path, value in bad:
        cfg = _with(cfg, path, value)
    cfg["dt"], cfg["T"] = horizon
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", path, "--out", os.path.join(tmp, "o.csv")])
    err = err.getvalue()
    assert code in (0, 2, 3), err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if bad:
        assert code == 2, err
    if code == 3:
        # a valid config fails only in a step, reported by step and t; only a
        # dipole has a singularity
        assert _STEP_FAILURE.match(err), err
        assert _has_dipole(cfg["potential"]) or "dipole" not in err, err


# Every finite float, for the fields whose size the config does not bound.
_ANY_VEC3 = st.lists(_FINITE, min_size=3, max_size=3)
_ANY_POTENTIAL = st.recursive(
    st.one_of(
        st.fixed_dictionaries({"type": st.just("zero")}),
        st.fixed_dictionaries({"type": st.just("gravity"), "g": _ANY_VEC3, "chi": st.floats(-1.0, 1.0)}),
        st.fixed_dictionaries({"type": st.just("dipole"), "m": st.floats(-0.1, 0.1), "mu": _ANY_VEC3}),
    ),
    lambda terms: st.fixed_dictionaries(
        {"type": st.just("sum"), "terms": st.lists(terms, min_size=1, max_size=3)}
    ),
    max_leaves=4,
)
# (dt, T): whole horizons of 1 to 50 steps, dt up to 10.
_SHORT = st.tuples(st.floats(1e-3, 10.0), st.integers(1, 50)).map(lambda a: (a[0], a[0] * a[1]))


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(["full", "reduced"]),
    # nonnegative: the other fuzz draws the negative ones
    st.fixed_dictionaries({"M": _FINITE.map(abs), "I1": _FINITE.map(abs), "I3": _FINITE.map(abs)}),
    _ANY_POTENTIAL,
    st.fixed_dictionaries({"x": _ANY_VEC3, "p": _ANY_VEC3, "pi": _ANY_VEC3}),
    _SHORT,
)
def test_simulate_fuzzed_finite_magnitudes(space, body, potential, vectors, horizon):
    cfg = json.loads(json.dumps(FREE_TOP_FULL if space == "full" else FREE_TOP_REDUCED))
    cfg["body"], cfg["potential"] = body, potential
    cfg["initial"].update(vectors)
    cfg["dt"], cfg["T"] = horizon
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", path, "--out", os.path.join(tmp, "o.csv")])
    err = err.getvalue()
    assert code in (0, 2, 3), err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
