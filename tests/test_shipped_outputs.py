"""The bytes of the shipped outputs, pinned.

Runs cli.main in process on every shipped config and compares its output
with literals: the sha256 of each simulate CSV and of the check --suite all
--seed 0 report, and both compare lines.  No output reaches a BLAS product
whose result depends on the summation order (see the float-native rule in
README.md), so these literals hold under any OpenBLAS kernel; like
test_frozen_bits.py they depend on numpy's random generator (numpy==2.4.*)
and on libm's sin and cos.  A change that moves one of them is a recorded
deviation.

orbit is left out: rotation_aligning's np.arctan2 follows numpy's SIMD
dispatch for the CPU, so its last bits differ between hosts.
"""

import hashlib
from pathlib import Path

import pytest

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
CHECK_ALL_SEED_0_SHA256 = "3dbf902e19eb5c4ca3b8abf662867810e9a4f5564e2f15e0b1531c840589e949"


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
