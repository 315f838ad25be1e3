"""The bytes of the shipped outputs, pinned.

Runs cli.main in process on every shipped config and compares its output
with literals: the sha256 of each simulate CSV, of the check --suite all
--seed 0 report and of two orbit reports, and both compare lines.  No output
reaches a BLAS product whose result depends on the summation order, nor a
numpy function that follows its SIMD dispatch for the CPU (see the
float-native rule in README.md), so these literals hold under any OpenBLAS
kernel and any set of numpy CPU features; like test_frozen_bits.py they
depend on numpy's random generator (numpy==2.4.*).  Only the two full-chart
configs, through initial.axis_angle, reach libm's sin and cos; the check and
orbit reports reach neither (a test runs them with both disabled).  A change
that moves one of them is a recorded deviation.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from symtop.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CSV_SHA256 = {
    "dipole_full": "07d65e93cae491c7d839231418762d0a481d47d2a096d2828a4495997ba92d05",
    "free_top_full": "23da04afa904e407000c3938de642e8af3a87562457fda4e467a9f8fa66f9f89",
    "gravity_reduced": "32ad11f3868fede139b9c2c88069c3214c83a67e5e7f1c695a53392f80bd7cb7",
}
COMPARE_LINES = {
    "dipole_full": "commutation residual 6.817e-14  tol 1.0e-06  PASS\n",
    "free_top_full": "commutation residual 6.184e-14  tol 1.0e-06  PASS\n",
}
CHECK_ALL_SEED_0_SHA256 = "0cbd2f0764467a1e2efd7d69ed5991bbfc7b0521bba05d3ceb3e1c7c5683fe5b"
ORBIT_SHA256 = {
    "--nu 0,0,1 --pi 0.1,0.2,0.3 --count 200": "a5d4789b15e7fd7f9740aeb08319634f8a57ac353ce5e597caf986863a8ef52e",
    "--nu 1,0,0 --pi 1e8,3,0": "e6cc33c801accf0da1b9b35e28c386dfa6fc629ae70ab4e5a63a920d1dc54ab6",
}


# Parametrized over the files, so a config without a literal fails (KeyError).
@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_simulate_csv_bytes(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(["simulate", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*_full.json")))
def test_compare_line(name, capsys):
    assert main(["compare", "--config", str(CONFIGS / f"{name}.json")]) == 0
    assert capsys.readouterr().out == COMPARE_LINES[name]


def test_check_all_seed_0_report(capsys):
    assert main(["check", "--suite", "all", "--seed", "0"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHECK_ALL_SEED_0_SHA256


@pytest.mark.parametrize("args", sorted(ORBIT_SHA256))
def test_orbit_report(args, capsys):
    assert main(["orbit", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ORBIT_SHA256[args]


def test_check_and_orbit_reports_without_sin_or_cos(monkeypatch, capsys):
    # only an angle input (initial.axis_angle, z_rotation, free_top_analytic)
    # reaches libm; the random rotations of check and orbit need none
    def trig(t):
        raise AssertionError("math.sin or math.cos called")

    monkeypatch.setattr(math, "sin", trig)
    monkeypatch.setattr(math, "cos", trig)
    assert main(["check", "--suite", "all", "--seed", "0"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHECK_ALL_SEED_0_SHA256
    for args, digest in ORBIT_SHA256.items():
        assert main(["orbit", *args.split()]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_orbit_report_without_numpy_simd_dispatch():
    # numpy refuses to disable a feature it does not dispatch or the CPU
    # lacks, so the set is read from the running numpy
    features = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    args = "--nu 0,0,1 --pi 0.1,0.2,0.3 --count 200"
    proc = subprocess.run(
        [sys.executable, "-m", "symtop.cli", "orbit", *args.split()],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": features}, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == ORBIT_SHA256[args]
