"""Seeded inputs and output checks for the symtop benchmark workloads.

A workload is a fixed list of operations.  Each workload function writes the
configs a seed calls for into a scratch directory and returns operations
that call the program and check its output; the program sees only those
files and arguments.  trajectory and dense-output make one `symtop.cli.main`
call per operation; certify calls the suite functions behind `symtop check`
(see `certify`).  Every check uses the tolerances of the acceptance criteria
in tests/test_acceptance.py; a violation raises OutputError, which the
runner counts as a failed operation.

The program is looked up in sys.modules at call time, so an operation runs
whatever symtop the runner imported last, traced or not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

DT = 1e-3
BODY = {"M": 1.0, "I1": 1.0, "I3": 0.5}

# The PRESET_POTENTIALS of symtop.checks, written as config nodes.
POTENTIALS = {
    "zero": {"type": "zero"},
    "gravity": {"type": "gravity", "g": [0.0, 0.0, -1.0], "chi": 0.3},
    "dipole": {"type": "dipole", "m": 0.05, "mu": [0.0, 0.0, 1.0]},
}
POTENTIALS["gravity+dipole"] = {
    "type": "sum", "terms": [POTENTIALS["gravity"], POTENTIALS["dipole"]],
}

# Horizons per workload.  A run times each operation by its fastest
# repetition (see run.py), so operations are kept short, 30 to 100 steps or
# 5-20 ms on a 2-core Xeon, to fit into the host's brief fast stretches.
TRAJECTORY_T = 0.03
DENSE_T = 0.03

CSV_HEADER = "t,x1,x2,x3,p1,p2,p3,nu1,nu2,nu3,pi1,pi2,pi3,energy,C1,C2,ortho_defect"
COLS = {name: i for i, name in enumerate(CSV_HEADER.split(","))}

# Acceptance tolerances (criteria 7, 8 and 9).
C1_TOL, C2_TOL, ENERGY_TOL, ORTHO_TOL = 1e-12, 1e-8, 1e-8, 1e-9
FREE_TOP_TOL = 1e-7
COMPARE_TOL = 1e-6
# The last sample must sit at T; allow rounding in how t is accumulated,
# far below one step.
HORIZON_TOL = 1e-9


class OutputError(Exception):
    """An operation's output violates its check."""


@dataclass(frozen=True)
class Operation:
    """One call into the program and the check of its output.

    `steps` counts the RK4 steps the call integrates and `rows` the CSV rows
    it writes; both are fixed by the inputs.  `run()` makes the call, raises
    OutputError on a violation, and returns the number of certification
    samples the call reports (0 for simulate and compare).  Operations of
    one `group` do the same work on different inputs, so the runner pools
    their times; an operation without a group is a group of its own.
    """

    name: str
    steps: int
    rows: int
    run: Callable[[], int]
    group: str = ""


def _cli(argv: tuple[str, ...], check: Callable[[int, str], None]) -> Callable[[], int]:
    """`symtop <argv>` in process, then check(exit_code, stdout)."""
    def run() -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = sys.modules["symtop.cli"].main(list(argv))
        check(code, out.getvalue())
        return 0
    return run


def n_steps(T: float) -> int:
    return int(round(T / DT))


def sample_count(T: float, stride: int) -> int:
    """Rows simulate writes: t = 0, every stride-th step, and the endpoint."""
    n = n_steps(T)
    return 1 + n // stride + (1 if n % stride else 0)


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _initial(rng: np.random.Generator, space: str) -> dict:
    # |x| >= 1.2 with |p| <= 0.26 keeps every run far from the dipole
    # singularity at the origin over these horizons.
    state = {
        "x": (_unit(rng) * rng.uniform(1.2, 2.0)).tolist(),
        "p": rng.uniform(-0.15, 0.15, 3).tolist(),
        "pi": rng.uniform(-1.0, 1.0, 3).tolist(),
    }
    if space == "full":
        state["axis_angle"] = rng.uniform(-1.5, 1.5, 3).tolist()
    else:
        state["nu"] = _unit(rng).tolist()
    return state


def _write_config(workdir: str, name: str, config: dict) -> str:
    path = os.path.join(workdir, name.replace("/", "_").replace("+", "-") + ".json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config, f)
    return path


def read_csv(path: str) -> np.ndarray:
    """Parse a trajectory CSV strictly: exact header, 17 fields on every
    line, and a final newline (a file cut mid-line fails)."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise OutputError(f"cannot read {path}: {e}") from None
    if not text.endswith("\n"):
        raise OutputError("CSV does not end with a newline")
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise OutputError("CSV header differs from the documented columns")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(COLS) for r in rows):
        raise OutputError("CSV row with a wrong number of fields")
    try:
        return np.array(rows, dtype=float).reshape(len(rows), len(COLS))
    except ValueError as e:
        raise OutputError(f"CSV field is not a number: {e}") from None


def check_trajectory(data: np.ndarray, T: float, rows: int, method: str,
                     reference: np.ndarray | None) -> None:
    """The simulate checks on a parsed CSV.

    rk4_repair runs must conserve C1, C2 and the energy and stay orthogonal
    within the criterion-8 tolerances; `reference`, when given, holds the
    expected (x, p, nu, pi) of every row (criterion 7's free-top oracle).
    """
    if data.shape[0] != rows:
        raise OutputError(f"{data.shape[0]} rows, expected {rows}")
    if not np.all(np.isfinite(data)):
        raise OutputError("non-finite value in CSV")
    t_last = data[-1, COLS["t"]]
    if abs(t_last - T) > HORIZON_TOL:
        raise OutputError(f"last sample at t = {t_last!r}, expected T = {T!r}")
    if method == "rk4_repair":
        drifts = {
            "|C1-1|": (np.abs(data[:, COLS["C1"]] - 1.0).max(), C1_TOL),
            "|dC2|": (np.abs(data[:, COLS["C2"]] - data[0, COLS["C2"]]).max(), C2_TOL),
            "|dh|": (np.abs(data[:, COLS["energy"]] - data[0, COLS["energy"]]).max(), ENERGY_TOL),
            "ortho": (data[:, COLS["ortho_defect"]].max(), ORTHO_TOL),
        }
        for label, (value, tol) in drifts.items():
            if not value <= tol:
                raise OutputError(f"{label} = {value:.3e} exceeds {tol:.0e}")
    if reference is not None:
        err = np.abs(data[:, COLS["x1"]:COLS["pi3"] + 1] - reference).max()
        if not err <= FREE_TOP_TOL:
            raise OutputError(f"free-top error {err:.3e} exceeds {FREE_TOP_TOL:.0e}")


def _free_top_rows(config: dict, T: float, stride: int) -> np.ndarray:
    """Expected (x, p, nu, pi) at every sample time, from symtop's closed-form
    free-top solution."""
    from symtop.dynamics import BodyParams, free_top_analytic
    from symtop.phase import ReducedState

    init = config["initial"]
    s0 = ReducedState(x=np.array(init["x"]), p=np.array(init["p"]),
                      nu=np.array(init["nu"]), pi=np.array(init["pi"]))
    bp = BodyParams(**config["body"])
    n = n_steps(T)
    ks = sorted(set(range(0, n + 1, stride)) | {n})
    out = []
    for k in ks:
        s = free_top_analytic(s0, k * DT, bp)
        out.append(np.concatenate([s.x, s.p, s.nu, s.pi]))
    return np.array(out)


def _simulate_op(workdir: str, name: str, config: dict, free_top: bool) -> Operation:
    T, stride, method = config["T"], config["sample_stride"], config["method"]
    cfg_path = _write_config(workdir, name, config)
    out_path = cfg_path[:-len(".json")] + ".csv"
    rows = sample_count(T, stride)
    reference = _free_top_rows(config, T, stride) if free_top else None

    def check(code: int, stdout: str) -> None:
        if code != 0:
            raise OutputError(f"exit code {code}")
        check_trajectory(read_csv(out_path), T, rows, method, reference)

    return Operation(f"simulate/{name}", n_steps(T), rows,
                     _cli(("simulate", "--config", cfg_path, "--out", out_path), check))


def _compare_op(workdir: str, name: str, config: dict) -> Operation:
    cfg_path = _write_config(workdir, "compare-" + name, config)

    def check(code: int, stdout: str) -> None:
        m = re.search(r"commutation residual (\S+)", stdout)
        if code != 0 or m is None:
            raise OutputError(f"exit code {code}, output {stdout.strip()!r}")
        residual = float(m.group(1))
        if not residual <= COMPARE_TOL:
            raise OutputError(f"commutation residual {residual:.3e} exceeds {COMPARE_TOL:.0e}")

    # compare integrates the full and the reduced system.
    return Operation(f"compare/{name}", 2 * n_steps(config["T"]), 0,
                     _cli(("compare", "--config", cfg_path), check))


def _config(rng, space: str, potential: str, T: float, stride: int, method: str) -> dict:
    return {
        "space": space, "body": BODY, "potential": POTENTIALS[potential],
        "initial": _initial(rng, space), "dt": DT, "T": T,
        "method": method, "sample_stride": stride,
    }


def trajectory(seed: int, workdir: str, T: float = TRAJECTORY_T) -> list[Operation]:
    """simulate every preset potential on both charts, and compare each full
    config.  The reduced zero-potential run uses plain rk4 and is checked
    against the free-top solution."""
    rng = np.random.default_rng(seed)
    ops = []
    for potential in POTENTIALS:
        for space in ("full", "reduced"):
            plain = (space, potential) == ("reduced", "zero")
            config = _config(rng, space, potential, T, 100, "rk4" if plain else "rk4_repair")
            name = f"{space}/{potential}"
            ops.append(_simulate_op(workdir, name, config, free_top=plain))
            if space == "full":
                ops.append(_compare_op(workdir, name, config))
    return ops


def dense_output(seed: int, workdir: str, T: float = DENSE_T) -> list[Operation]:
    """simulate with a CSV row after every step, on full/dipole and
    reduced/gravity."""
    rng = np.random.default_rng(seed)
    return [
        _simulate_op(workdir, f"{space}/{potential}",
                     _config(rng, space, potential, T, 1, "rk4_repair"), free_top=False)
        for space, potential in (("full", "dipole"), ("reduced", "gravity"))
    ]


# The suites `check --suite all` runs, in its order: their default sizes,
# and how many chunks certify splits each into (1-3 ms each on a 2-core
# Xeon).  The orbit suite is split by hand, see certify.
SUITES = {
    "brackets": ({"points_per_space": 250}, 50),
    "jacobi": ({"points": 100}, 25),
    "poisson-map": ({"points": 100}, 100),
    "casimirs": ({"pairs": 1000, "fields": 100}, 50),
    "orbits": ({"pairs": 0}, 1),
    "gradients": ({"points": 100}, 50),
}
# The orbit suite's witness-transitivity pairs and their tolerance.
WITNESS_PAIRS, WITNESS_CHUNKS, WITNESS_TOL = 1000, 50, 1e-9


def _suite_op(suite: str, seed: int, sizes: dict) -> Operation:
    def run() -> int:
        results = sys.modules["symtop.checks"].SUITES[suite](seed=seed, **sizes)
        failed = [r.line() for r in results if not r.passed]
        if failed or not results:
            raise OutputError(f"{len(failed)} of {len(results)} checks failed: {failed[:1]}")
        return sum(r.samples for r in results)

    return Operation(f"check/{suite}/seed{seed}", 0, 0, run, group=f"check/{suite}")


def _witness_op(seed: int, pairs: int) -> Operation:
    """The witness-transitivity loop of checks.check_orbits, through the
    functions it calls: a group element mapping each random same-level
    pair onto each other, and its residual."""
    def run() -> int:
        checks, orbits = sys.modules["symtop.checks"], sys.modules["symtop.orbits"]
        rng = np.random.default_rng(seed)
        worst = 0.0
        for k in range(pairs):
            q1, q2 = checks.random_same_level_pair(
                rng, force_antipodal=(k % 10 == 3), force_aligned=(k % 10 == 7))
            g = orbits.same_orbit_witness(q1, q2)
            worst = max(worst, orbits.witness_residual(g, q1, q2))
        if not worst <= WITNESS_TOL:
            raise OutputError(f"witness residual {worst:.3e} exceeds {WITNESS_TOL:.0e}")
        return pairs

    return Operation(f"check/orbits-witness/seed{seed}", 0, 0, run, group="check/orbits-witness")


def certify(seed: int, workdir: str) -> list[Operation]:
    """The certification suites behind `symtop check`, looked up as the CLI
    looks them up (checks.SUITES), with seeds drawn from the run seed.

    A round covers the samples of one `check --suite all`, split into
    chunks of 1-3 ms with a seed each: a whole suite takes up to 0.4 s,
    longer than the host's fast stretches often last (see run.py).  The
    chunks of a suite form one group, and the groups are interleaved so
    that each is spread over the whole round and meets the same fast
    stretches as the others.  The orbit suite draws 200 magnetic-form
    samples (about 65 ms) per call whatever its size, so it runs once with
    no witness pairs, and its 1000 witness pairs run as chunks of their own.
    """
    base = int(np.random.default_rng(seed).integers(0, 2**31 - 16))
    placed = [
        ((k + 0.5) / chunks, _suite_op(suite, base + k, {key: n // chunks for key, n in sizes.items()}))
        for suite, (sizes, chunks) in SUITES.items()
        for k in range(chunks)
    ]
    placed += [((k + 0.5) / WITNESS_CHUNKS, _witness_op(base + k, WITNESS_PAIRS // WITNESS_CHUNKS))
               for k in range(WITNESS_CHUNKS)]
    return [op for _, op in sorted(placed, key=lambda p: p[0])]


WORKLOADS: dict[str, Callable[[int, str], list[Operation]]] = {
    "trajectory": trajectory,
    "dense-output": dense_output,
    "certify": certify,
}
