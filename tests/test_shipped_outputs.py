"""The bytes of the shipped outputs, pinned.

Runs cli.main in process on every shipped config and compares its output
with literals: the sha256 of each simulate CSV, of the check --suite all
--seed 0 report and of two orbit reports, and both compare lines.  No output
reaches a BLAS product whose result depends on the summation order, nor a
numpy function that follows its SIMD dispatch for the CPU (see the
float-native rule in README.md), so these literals hold under any OpenBLAS
kernel and any set of numpy CPU features; like test_frozen_bits.py they
depend on numpy's random generator (numpy==2.4.*) and on libm's sin and
cos.  A change that moves one of them is a recorded deviation.
"""

import hashlib
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
CHECK_ALL_SEED_0_SHA256 = "437836913866a335323756cc238eb614cddd04cbf81f692ba565708ea4921968"
ORBIT_SHA256 = {
    "--nu 0,0,1 --pi 0.1,0.2,0.3 --count 200": "2ec2cbc8f62a796f63aecaa3176a535a3d0fff294f21410a5831f79d59667ca3",
    "--nu 1,0,0 --pi 1e8,3,0": "e4db19414eab1bee21077992fa96902eda33615049e188ac7c23af627ba5e166",
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
