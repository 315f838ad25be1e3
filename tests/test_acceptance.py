"""Acceptance gate: one test per certification criterion, each printed as a
pass/fail line with its measured residual and pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import time

import numpy as np
import pytest

from symtop.checks import (
    PRESET_BODY,
    PRESET_POTENTIALS,
    check_brackets,
    check_casimirs,
    check_gradients,
    check_jacobi,
    check_orbits,
    check_poisson_map,
)
from symtop.dynamics import (
    ZeroPotential,
    commutation_residual,
    free_top_analytic,
    hamiltonian_field,
    simulate,
)
from symtop.phase import FullState, ReducedState, SpaceId, flatten
from symtop.reduction import chart_projection, right_action, section, z_rotation

BP = PRESET_BODY  # M = 1, I1 = 1, I3 = 0.5 (distinct moments)

NU0 = np.array([0.2, -0.4, 0.7]) / np.linalg.norm([0.2, -0.4, 0.7])
PI0 = np.array([0.4, 0.3, 0.9])
X0 = np.array([1.5, 0.0, 0.3])
P0 = np.array([0.0, 0.15, 0.05])

DT, HORIZON, STRIDE = 1e-3, 10.0, 100


def reduced_start() -> ReducedState:
    return ReducedState(x=X0, p=P0, nu=NU0, pi=PI0)


def full_start() -> FullState:
    return FullState(x=X0, R=section(NU0), p=P0, pi=PI0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_bracket_tables_exact():
    t0 = time.perf_counter()
    results = check_brackets(seed=0, points_per_space=250)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_residual for r in results)
    ok = worst == 0.0 and elapsed < 1.0
    report("1 bracket tables", ok, f"max diff {worst:.1e} over 1000 points, {elapsed:.2f}s < 1s")
    assert worst == 0.0
    assert elapsed < 1.0


def test_criterion_2_jacobi_identity():
    t0 = time.perf_counter()
    results = check_jacobi(seed=0, points=100)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_residual for r in results)
    ok = worst <= 1e-10 and elapsed < 10.0
    report("2 Jacobi identity", ok, f"max residual {worst:.2e} <= 1e-10, {elapsed:.2f}s < 10s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_3_poisson_map_property():
    results = check_poisson_map(seed=0, points=100)
    worst = max(r.max_residual for r in results)
    ok = worst <= 1e-10
    report("3 Poisson-map projections", ok, f"max residual {worst:.2e} <= 1e-10")
    assert worst <= 1e-10


def test_criterion_4_casimir_invariance():
    results = check_casimirs(seed=0, pairs=1000, fields=100)
    worst = max(r.max_residual for r in results)
    ok = worst <= 1e-12
    report("4 Casimir invariance", ok, f"max residual {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_criterion_5_orbit_transitivity():
    results = {r.name: r for r in check_orbits(seed=0, pairs=1000)}
    witness = results["orbits/witness-transitivity"]
    ok = witness.max_residual <= 1e-9
    report("5 orbit witness", ok, f"max residual {witness.max_residual:.2e} <= 1e-9 on 1000 pairs")
    assert witness.max_residual <= 1e-9


def test_criterion_6_magnetic_form():
    results = {r.name: r for r in check_orbits(seed=1, pairs=10)}
    anti = results["orbits/magnetic-antisymmetry"].max_residual
    rep = results["orbits/magnetic-representative"].max_residual
    zero = results["orbits/magnetic-zero-level"].max_residual
    ok = anti == 0.0 and rep <= 1e-12 and zero == 0.0
    report(
        "6 magnetic form", ok,
        f"antisymmetry {anti:.1e} exact, representative {rep:.2e} <= 1e-12, zero level {zero:.1e}",
    )
    assert anti == 0.0
    assert rep <= 1e-12
    assert zero == 0.0


def test_criterion_7_free_top_oracle_and_order():
    s0 = reduced_start()
    h = hamiltonian_field(SpaceId.Reduced, BP, ZeroPotential())
    z0 = flatten(s0, SpaceId.Reduced)
    traj = simulate(h, z0, DT, HORIZON, sample_stride=STRIDE)
    worst = 0.0
    for i, t in enumerate(traj.t):
        ref = flatten(free_top_analytic(s0, t, BP), SpaceId.Reduced)
        worst = max(worst, float(np.abs(traj.z[i] - ref).max()))

    # convergence order against the closed form, faster spin for headroom
    fast = ReducedState(x=X0, p=P0, nu=NU0, pi=np.array([0.5, 1.2, 2.0]))
    zf = flatten(fast, SpaceId.Reduced)
    dts = np.array([1e-2, 5e-3, 2.5e-3])
    errs = []
    for dt in dts:
        tr = simulate(h, zf, dt, 2.0, method="rk4", sample_stride=10)
        err = max(
            float(np.abs(tr.z[i] - flatten(free_top_analytic(fast, t, BP), SpaceId.Reduced)).max())
            for i, t in enumerate(tr.t)
        )
        errs.append(err)
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])

    ok = worst <= 1e-7 and abs(slope - 4.0) <= 0.2
    report("7 free-top oracle", ok, f"max error {worst:.2e} <= 1e-7, RK4 slope {slope:.3f} in 4.0±0.2")
    assert worst <= 1e-7
    assert abs(slope - 4.0) <= 0.2


def test_criterion_8_conservation_all_presets():
    worst = {"dC1": 0.0, "dC2": 0.0, "dh": 0.0, "ortho": 0.0}
    for name, pot in PRESET_POTENTIALS.items():
        red = simulate(
            hamiltonian_field(SpaceId.Reduced, BP, pot),
            flatten(reduced_start(), SpaceId.Reduced),
            DT, HORIZON, sample_stride=STRIDE,
        )
        full = simulate(
            hamiltonian_field(SpaceId.CotSE3, BP, pot),
            flatten(full_start(), SpaceId.CotSE3),
            DT, HORIZON, sample_stride=STRIDE,
        )
        for traj in (red, full):
            worst["dC1"] = max(worst["dC1"], float(np.abs(traj.c1 - 1.0).max()))
            worst["dC2"] = max(worst["dC2"], float(np.abs(traj.c2 - traj.c2[0]).max()))
            worst["dh"] = max(worst["dh"], float(np.abs(traj.energy - traj.energy[0]).max()))
        worst["ortho"] = max(worst["ortho"], float(full.ortho_defect.max()))
    ok = (
        worst["dC1"] <= 1e-12
        and worst["dC2"] <= 1e-8
        and worst["dh"] <= 1e-8
        and worst["ortho"] <= 1e-9
    )
    report(
        "8 conservation", ok,
        f"dC1 {worst['dC1']:.1e} <= 1e-12, dC2 {worst['dC2']:.1e} <= 1e-8, "
        f"dh {worst['dh']:.1e} <= 1e-8, ortho {worst['ortho']:.1e} <= 1e-9",
    )
    assert worst["dC1"] <= 1e-12
    assert worst["dC2"] <= 1e-8
    assert worst["dh"] <= 1e-8
    assert worst["ortho"] <= 1e-9


def test_criterion_9_reduction_commutes_with_dynamics():
    t0 = time.perf_counter()
    residuals = {}
    for name in ("zero", "gravity", "dipole"):
        residuals[name] = commutation_residual(
            full_start(), BP, PRESET_POTENTIALS[name], DT, HORIZON, sample_stride=STRIDE
        )
    elapsed = time.perf_counter() - t0
    worst = max(residuals.values())
    ok = worst <= 1e-6 and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in residuals.items())
    report("9 reduction commutation", ok, f"{detail} (all <= 1e-6), {elapsed:.1f}s < 60s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_10_circle_invariance_of_dynamics():
    pot = PRESET_POTENTIALS["gravity"]
    h = hamiltonian_field(SpaceId.CotSE3, BP, pot)
    _, proj = chart_projection(SpaceId.Reduced)
    base = simulate(h, flatten(full_start(), SpaceId.CotSE3), DT, HORIZON, sample_stride=STRIDE)
    base_projected = base.z @ proj.T
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        shifted = right_action(z_rotation(theta), full_start())
        traj = simulate(h, flatten(shifted, SpaceId.CotSE3), DT, HORIZON, sample_stride=STRIDE)
        worst = max(worst, float(np.abs(traj.z @ proj.T - base_projected).max()))
    ok = worst <= 1e-9
    report("10 circle invariance", ok, f"max projected difference {worst:.2e} <= 1e-9 over 10 shifts")
    assert worst <= 1e-9


def test_gradient_suite_supporting():
    results = check_gradients(seed=0, points=100)
    worst = max(r.max_residual for r in results)
    ok = worst <= 1e-5
    report("gradients (supporting)", ok, f"max relative deviation {worst:.2e} <= 1e-5")
    assert worst <= 1e-5
