import math

import numpy as np
import numpy.testing as npt
import pytest

from symtop.algebra3 import exp_so3, orthogonality_defect
from symtop.checks import PRESET_POTENTIALS
from symtop.dynamics import (
    METHODS,
    BodyParams,
    DipolePotential,
    LinearGravity,
    SumPotential,
    ZeroPotential,
    commutation_residual,
    free_top_analytic,
    full_hamiltonian,
    full_hamiltonian_field,
    nu_pi_of,
    reduced_hamiltonian,
    reduced_hamiltonian_field,
    _hamiltonian_field,
    _monitors,
    _repair,
    simulate,
    spin_coefficient,
    step,
    step_count,
)
from symtop.errors import DimensionMismatch, NonFinite
from symtop.orbits import casimir_fields
from symtop.phase import (
    LAYOUTS,
    FullState,
    ReducedState,
    SpaceId,
    flatten,
    random_chart_point,
    random_state,
    random_unit,
)
from symtop.poisson import ScalarField, coordinate, fd_gradient, random_polynomial, structure_matrix
from symtop.reduction import pullback, right_action, section, z_rotation
from test_acceptance import NU0, P0, PI0, X0, full_start, reduced_start

BP = BodyParams(M=1.0, I1=1.0, I3=0.5)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def reduced_point(x=(0.1, -0.2, 0.3), p=(0.2, 0.1, -0.1), nu=(1.0, 0.0, 0.5), pi=(0.2, 0.3, 0.9)):
    return ReducedState(x=np.array(x), p=np.array(p), nu=unit(nu), pi=np.array(pi))


def full_point(s=None):
    s = s or reduced_point()
    return FullState(x=s.x, R=section(s.nu), p=s.p, pi=s.pi)


def test_body_params_validation():
    with pytest.raises(ValueError):
        BodyParams(M=0.0, I1=1.0, I3=1.0)
    with pytest.raises(ValueError):
        BodyParams(M=1.0, I1=-1.0, I3=1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: BodyParams(M=math.inf, I1=1.0, I3=1.0),
        lambda: BodyParams(M=1.0, I1=math.nan, I3=1.0),
        lambda: BodyParams(M=1.0, I1=1.0, I3=math.inf),
        lambda: LinearGravity(g=[math.nan, 0.0, 0.0], chi=0.3),
        lambda: LinearGravity(g=[0.0, 0.0, -math.inf], chi=0.3),
        lambda: LinearGravity(g=[0.0, 0.0, -1.0], chi=math.nan),
        lambda: LinearGravity(g=[0.0, 0.0, -1.0], chi=-math.inf),
        lambda: DipolePotential(m=math.nan, mu=[0.0, 0.0, 1.0]),
        lambda: DipolePotential(m=math.inf, mu=[0.0, 0.0, 1.0]),
        lambda: DipolePotential(m=0.05, mu=[0.0, math.nan, 1.0]),
    ],
    ids=["M-inf", "I1-nan", "I3-inf", "g-nan", "g-inf", "chi-nan", "chi-inf", "m-nan", "m-inf", "mu-nan"],
)
def test_parameters_reject_non_finite_values(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_gravity_vector_whose_length_overflows_is_rejected():
    # |g|^2 overflows above about 1.3e154, which would make g/|g| zero
    with pytest.raises(ValueError, match="^gravity vector length overflows to inf$"):
        LinearGravity(g=[0.0, 0.0, -1e160], chi=0.3)
    assert LinearGravity(g=[0.0, 0.0, -1e150], chi=0.3).grad_nu(None, None, None) == (0.0, 0.0, -0.3)


def test_reduced_hamiltonian_frozen():
    s = ReducedState(
        x=np.zeros(3), p=np.array([2.0, 0, 0]), nu=np.array([0.0, 0, 1]), pi=np.array([0.0, 0, 3])
    )
    h = reduced_hamiltonian(s, BodyParams(M=2.0, I1=1.0, I3=0.5), ZeroPotential())
    assert h == 5.5


def test_reduced_hamiltonian_zero_at_rest():
    s = ReducedState(x=np.zeros(3), p=np.zeros(3), nu=np.array([0.0, 0, 1]), pi=np.zeros(3))
    assert reduced_hamiltonian(s, BP, ZeroPotential()) == 0.0


def test_gravity_shifts_energy_additively():
    s = reduced_point()
    pot = LinearGravity(g=np.array([0.0, 0.0, -2.0]), chi=0.7)
    base = reduced_hamiltonian(s, BP, ZeroPotential())
    withg = reduced_hamiltonian(s, BP, pot)
    ghat = np.array([0.0, 0.0, -1.0])
    expected_shift = BP.M * float(pot.g @ s.x) + 0.7 * float(s.nu @ ghat)
    assert abs(withg - base - expected_shift) < 1e-15


def test_full_hamiltonian_frozen():
    s = FullState(x=np.zeros(3), R=np.eye(3), p=np.zeros(3), pi=np.array([0.0, 0, 2]))
    h = full_hamiltonian(s, BodyParams(M=1.0, I1=1.0, I3=2.0), ZeroPotential())
    assert h == 1.0


def test_full_equals_reduced_when_moments_match():
    bp = BodyParams(M=1.3, I1=0.9, I3=0.9)
    s = reduced_point()
    f = full_point(s)
    pot = LinearGravity(g=np.array([0.0, 0.0, -1.0]), chi=0.2)
    assert abs(full_hamiltonian(f, bp, pot) - reduced_hamiltonian(s, bp, pot)) < 1e-14


def test_full_hamiltonian_circle_invariant():
    s = full_point()
    pot = LinearGravity(g=np.array([0.1, -0.3, -1.0]), chi=0.4)
    h0 = full_hamiltonian(s, BP, pot)
    for theta in (0.3, 1.9, -2.5):
        assert abs(full_hamiltonian(right_action(z_rotation(theta), s), BP, pot) - h0) < 1e-12


@pytest.mark.parametrize(
    "pot",
    [
        ZeroPotential(),
        LinearGravity(g=np.array([0.0, 0.0, -1.0]), chi=0.3),
        DipolePotential(m=0.05, mu=np.array([0.0, 0.0, 1.0])),
        SumPotential(
            terms=(
                LinearGravity(g=np.array([0.0, 0.0, -1.0]), chi=0.3),
                DipolePotential(m=0.05, mu=np.array([0.3, 0.0, 1.0])),
            )
        ),
    ],
    ids=["zero", "gravity", "dipole", "sum"],
)
def test_potential_gradients_match_fd(pot):
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = random_unit(rng) * rng.uniform(0.8, 2.0)
        nu = random_unit(rng)
        gx = pot.grad_x(x, nu, BP)
        gn = pot.grad_nu(x, nu, BP)
        fx = fd_gradient(lambda xx: pot.value(xx, nu, BP), x)
        fn = fd_gradient(lambda nn: pot.value(x, nn, BP), nu)
        scale = max(np.linalg.norm(gx), np.linalg.norm(gn), 1.0)
        assert np.abs(gx - fx).max() / scale < 1e-5
        assert np.abs(gn - fn).max() / scale < 1e-5


def test_dipole_matches_vector_formula():
    # the numpy form of the field and its Jacobian, as the reference for the
    # componentwise float arithmetic in DipolePotential
    pot = DipolePotential(m=0.05, mu=np.array([0.3, -0.4, 1.0]))
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = random_unit(rng) * rng.uniform(0.5, 3.0)
        nu = random_unit(rng)
        mu, r = pot.mu, np.linalg.norm(x)
        b = (3.0 * x * (mu @ x) / (x @ x) - mu) / r**3
        jb_nu = 3.0 * (nu * (mu @ x) + x * (mu @ nu) + mu * (x @ nu)) / r**5 - 15.0 * (mu @ x) * (x @ nu) * x / r**7
        npt.assert_allclose(pot.grad_nu(x, nu, BP), -pot.m * b, rtol=0, atol=1e-15 * np.abs(b).max())
        npt.assert_allclose(pot.grad_x(x, nu, BP), -pot.m * jb_nu, rtol=0, atol=1e-15 * np.abs(jb_nu).max())
        assert abs(pot.value(x, nu, BP) + pot.m * (nu @ b)) <= 1e-15 * np.abs(b).max()


@pytest.mark.parametrize(
    "x, cause",
    [([0.0, 0.0, 0.0], "singular"), ([1e-9, 0.0, 0.0], "singular"), ([np.nan, 0.0, 0.0], "singular"),
     ([np.inf, 1.0, 0.0], "singular"), ([1e155, 1e155, 0.0], "overflows")],
    ids=["origin", "below-floor", "nan", "inf", "square-overflows"],
)
def test_dipole_singularity_raises_nonfinite(x, cause):
    pot = DipolePotential(m=0.05, mu=np.array([0.0, 0.0, 1.0]))
    x, nu = np.array(x), np.array([0.0, 0.0, 1.0])
    for method in (pot.value, pot.grad_x, pot.grad_nu):
        with pytest.raises(NonFinite, match=f"dipole potential.*{cause}"):
            method(x, nu, BP)


def test_spin_term_overflows_to_inf_not_an_error():
    s = full_point(reduced_point(pi=(1e160, 0.0, 0.0)))
    with np.errstate(over="ignore"):
        assert full_hamiltonian(s, BP, ZeroPotential()) == math.inf


def test_simulate_rejects_non_finite_monitor():
    # finite state, energy |p|^2/(2M) = inf: reported at step 0, without a warning
    z = flatten(reduced_point(), SpaceId.Reduced)
    z[3] = 1e160
    with pytest.raises(NonFinite, match=r"step 0 of 10 \(t = 0\): non-finite monitor"):
        simulate(SpaceId.Reduced, reduced_hamiltonian_field(BP, ZeroPotential()), z, 0.01, 0.1)


def test_sum_potential_needs_a_term():
    with pytest.raises(ValueError):
        SumPotential(terms=())


def test_hamiltonian_field_gradients_match_fd():
    pot = LinearGravity(g=np.array([0.0, 0.0, -1.0]), chi=0.3)
    for fld, space in (
        (reduced_hamiltonian_field(BP, pot), SpaceId.Reduced),
        (full_hamiltonian_field(BP, pot), SpaceId.CotSE3),
    ):
        for seed in range(10):
            z = flatten(random_state(space, seed), space)
            g = fld.gradient(z)
            fd = fd_gradient(fld.value, z)
            assert np.abs(g - fd).max() / max(np.linalg.norm(g), 1.0) < 1e-5


CHARTS = [
    (SpaceId.CotSE3, full_hamiltonian_field),
    (SpaceId.Reduced, reduced_hamiltonian_field),
]


def dot_left_to_right(a, b):
    """a . b of two 3-vectors, summed left to right on floats."""
    (a0, a1, a2), (b0, b1, b2) = np.asarray(a).tolist(), np.asarray(b).tolist()
    return (a0 * b0 + a1 * b1) + a2 * b2


def fixed_order_potential_value(pot, x, nu):
    """V(x, nu) with every dot product summed left to right and the terms of
    a sum added in order: the reference for the float forms."""
    if isinstance(pot, SumPotential):
        v = 0.0
        for t in pot.terms:
            v += fixed_order_potential_value(t, x, nu)
        return v
    if isinstance(pot, LinearGravity):
        return BP.M * dot_left_to_right(pot.g, x) + pot.chi * dot_left_to_right(pot._ghat, nu)
    return pot.value(x, nu, BP)


@pytest.mark.parametrize("space, make", CHARTS, ids=["full", "reduced"])
def test_hamiltonian_value_matches_fixed_order_form(space, make):
    # Exact equality: no BLAS call enters the energy or the Casimir monitors,
    # so their bits do not depend on the OpenBLAS kernel.
    lay = LAYOUTS[space]
    kappa = spin_coefficient(BP) if space is SpaceId.CotSE3 else 0.0
    for pot in PRESET_POTENTIALS.values():
        h = make(BP, pot)
        for seed in range(20):
            z = flatten(random_state(space, seed), space)
            x, p, nu, pi = z[lay.x], z[lay.p], z[lay.axis], z[lay.pi]
            v = dot_left_to_right(p, p) / (2.0 * BP.M) + dot_left_to_right(pi, pi) / (2.0 * BP.I1)
            if kappa:
                c = dot_left_to_right(nu, pi)
                v += kappa * (c * c)
            v += fixed_order_potential_value(pot, x, nu)
            assert h(z) == v
            assert _monitors(space, h, z.tolist())[:3] == (v, dot_left_to_right(nu, nu), dot_left_to_right(nu, pi))


@pytest.mark.parametrize("space, make", CHARTS, ids=["full", "reduced"])
def test_hamiltonian_gradient_placed_by_layout(space, make):
    # The reference assembles the gradient the slice way, [0.0] * dim plus
    # one assignment per block, from the same float expressions.
    lay = LAYOUTS[space]
    kappa = spin_coefficient(BP) if space is SpaceId.CotSE3 else 0.0
    for pot in PRESET_POTENTIALS.values():
        h = make(BP, pot)
        for seed in range(10):
            z = flatten(random_state(space, seed), space)
            x, p, nu, pi = (z[s].tolist() for s in (lay.x, lay.p, lay.axis, lay.pi))
            g_nu = list(pot.grad_nu(x, nu, BP))
            g_pi = [v / BP.I1 for v in pi]
            if kappa:
                spin = 2.0 * kappa * (nu[0] * pi[0] + nu[1] * pi[1] + nu[2] * pi[2])
                g_nu = [a + spin * b for a, b in zip(g_nu, pi)]
                g_pi = [a + spin * b for a, b in zip(g_pi, nu)]
            ref = [0.0] * lay.dim
            ref[lay.x] = pot.grad_x(x, nu, BP)
            ref[lay.p] = [v / BP.M for v in p]
            ref[lay.axis] = g_nu
            ref[lay.pi] = g_pi
            g = h.grad(z.tolist())
            assert list(g) == ref and list(h.grad(z)) == ref
            if lay.r is not None:
                # the first two columns of R: exact (positive) zeros
                off_axis = [lay.r_entry(j, k) for j in range(3) for k in range(2)]
                assert all(math.copysign(1.0, g[a]) == 1.0 and g[a] == 0.0 for a in off_axis)


def test_field_values_match_state_functions():
    pot = LinearGravity(g=np.array([0.0, 0.0, -1.0]), chi=0.3)
    s = reduced_point()
    f = full_point(s)
    hred = reduced_hamiltonian_field(BP, pot)
    hfull = full_hamiltonian_field(BP, pot)
    assert abs(hred(flatten(s, SpaceId.Reduced)) - reduced_hamiltonian(s, BP, pot)) < 1e-15
    assert abs(hfull(flatten(f, SpaceId.CotSE3)) - full_hamiltonian(f, BP, pot)) < 1e-15


def test_step_exact_for_linear_flow():
    h = reduced_hamiltonian_field(BP, ZeroPotential())
    s = ReducedState(x=np.zeros(3), p=np.array([0.4, -0.2, 1.0]), nu=np.array([0.0, 0, 1]), pi=np.zeros(3))
    z = flatten(s, SpaceId.Reduced)
    z1 = step(SpaceId.Reduced, h, z, 0.25, method="rk4")
    npt.assert_allclose(z1[0:3], 0.25 * s.p / BP.M, atol=1e-16)
    npt.assert_array_equal(z1[3:6], s.p)


def test_step_repair_renormalizes_nu():
    h = reduced_hamiltonian_field(BP, ZeroPotential())
    z = flatten(reduced_point(), SpaceId.Reduced)
    for _ in range(50):
        z = step(SpaceId.Reduced, h, z, 0.05)
        assert abs(z[6:9] @ z[6:9] - 1.0) < 1e-12


def test_step_repair_reorthonormalizes_r():
    from symtop.algebra3 import orthogonality_defect

    h = full_hamiltonian_field(BP, ZeroPotential())
    z = flatten(full_point(), SpaceId.CotSE3)
    for _ in range(50):
        z = step(SpaceId.CotSE3, h, z, 0.05)
        assert orthogonality_defect(z[6:15].reshape(3, 3)) < 1e-12


def test_step_validates_inputs():
    h = reduced_hamiltonian_field(BP, ZeroPotential())
    z = flatten(reduced_point(), SpaceId.Reduced)
    with pytest.raises(DimensionMismatch):
        step(SpaceId.CotSE3, h, z, 0.1)
    with pytest.raises(ValueError):
        step(SpaceId.Reduced, h, z, -0.1)
    with pytest.raises(ValueError):
        step(SpaceId.Reduced, h, z, 0.1, method="euler")
    short = ScalarField(SpaceId.Reduced, lambda z: 0.0, lambda z: np.zeros(11))
    with pytest.raises(DimensionMismatch):
        step(SpaceId.Reduced, short, z, 0.1)


def test_step_raises_on_non_finite():
    bad = ScalarField(
        SpaceId.Reduced,
        lambda z: 0.0,
        lambda z: np.full(12, np.nan),
    )
    z = flatten(reduced_point(), SpaceId.Reduced)
    with pytest.raises(NonFinite):
        step(SpaceId.Reduced, bad, z, 0.1, method="rk4")


def test_simulate_zero_hamiltonian_constant():
    h = ScalarField(SpaceId.Reduced, lambda z: 0.0, lambda z: np.zeros(12))
    z0 = flatten(reduced_point(), SpaceId.Reduced)
    traj = simulate(SpaceId.Reduced, h, z0, 0.1, 1.0, method="rk4")
    for i in range(len(traj)):
        npt.assert_array_equal(traj.z[i], z0)


def test_simulate_free_top_pi_constant():
    h = reduced_hamiltonian_field(BP, ZeroPotential())
    z0 = flatten(reduced_point(), SpaceId.Reduced)
    traj = simulate(SpaceId.Reduced, h, z0, 1e-3, 2.0, sample_stride=100)
    assert np.abs(traj.z[:, 9:12] - z0[9:12]).max() < 1e-10
    assert np.abs(traj.energy - traj.energy[0]).max() < 1e-10


def test_simulate_sampling_and_monotone_time():
    h = reduced_hamiltonian_field(BP, ZeroPotential())
    z0 = flatten(reduced_point(), SpaceId.Reduced)
    traj = simulate(SpaceId.Reduced, h, z0, 0.01, 0.5, sample_stride=7)
    assert traj.t[0] == 0.0
    assert abs(traj.t[-1] - 0.5) < 1e-12
    assert np.all(np.diff(traj.t) > 0)


def test_simulate_rejects_bad_horizon():
    h = reduced_hamiltonian_field(BP, ZeroPotential())
    z0 = flatten(reduced_point(), SpaceId.Reduced)
    with pytest.raises(ValueError):
        simulate(SpaceId.Reduced, h, z0, 0.01, 0.0)
    # 1.0 is 3.33 steps of 0.3; the run must not stop silently at t = 0.9
    with pytest.raises(ValueError, match="whole number of steps"):
        simulate(SpaceId.Reduced, h, z0, 0.3, 1.0)


@pytest.mark.parametrize(
    "field, shape",
    [(reduced_hamiltonian_field, (11,)), (reduced_hamiltonian_field, (12, 1)), (full_hamiltonian_field, (12,))],
    ids=["z0-length-11", "z0-column", "full-chart-field"],
)
def test_simulate_checks_its_inputs_before_step_0(field, shape):
    z0 = np.resize(flatten(reduced_point(), SpaceId.Reduced), shape)
    with pytest.raises(DimensionMismatch):
        simulate(SpaceId.Reduced, field(BP, ZeroPotential()), z0, 0.01, 0.1)


@pytest.mark.parametrize(
    "T, dt, n",
    [(1.0, 0.25, 4), (10.0, 1e-3, 10000), (0.03, 1e-3, 30), (0.5, 0.5, 1), (1.0 + 5e-10, 0.25, 4)],
)
def test_step_count_whole_horizons(T, dt, n):
    assert step_count(T, dt) == n


@pytest.mark.parametrize(
    "T, dt",
    [(1.0, 0.3), (4e-4, 1e-3), (1e300, 1e-10), (0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.5),
     (float("nan"), 0.1), (1.0, float("nan")), (float("inf"), 0.1), (1.0 + 2e-9, 0.25)],
)
def test_step_count_rejects(T, dt):
    with pytest.raises(ValueError):
        step_count(T, dt)


def test_free_top_analytic_at_zero():
    s = reduced_point()
    out = free_top_analytic(s, 0.0, BP)
    npt.assert_array_equal(flatten(out, SpaceId.Reduced), flatten(s, SpaceId.Reduced))


def test_free_top_analytic_axis_spin_fixed():
    nu = unit((0.3, -0.4, 0.6))
    s = ReducedState(x=np.zeros(3), p=np.zeros(3), nu=nu, pi=2.5 * nu)
    for t in (0.7, 3.1):
        npt.assert_allclose(free_top_analytic(s, t, BP).nu, nu, atol=1e-12)


def test_free_top_analytic_full_period():
    nu = np.array([1.0, 0.0, 0.0])
    pi = np.array([0.0, 0.0, 1.0]) * BP.I1  # unit angular rate
    s = ReducedState(x=np.zeros(3), p=np.zeros(3), nu=nu, pi=pi)
    npt.assert_allclose(free_top_analytic(s, 2 * np.pi, BP).nu, nu, atol=1e-12)


def test_free_top_simulation_matches_oracle():
    s0 = reduced_point()
    h = reduced_hamiltonian_field(BP, ZeroPotential())
    traj = simulate(SpaceId.Reduced, h, flatten(s0, SpaceId.Reduced), 1e-3, 2.0, sample_stride=100)
    worst = 0.0
    for i, t in enumerate(traj.t):
        ref = flatten(free_top_analytic(s0, t, BP), SpaceId.Reduced)
        worst = max(worst, float(np.abs(traj.z[i] - ref).max()))
    assert worst < 1e-9


def test_commutation_residual_matched_moments():
    bp = BodyParams(M=1.0, I1=0.8, I3=0.8)
    res = commutation_residual(full_point(), bp, ZeroPotential(), 1e-2, 1.0)
    assert res < 1e-10


def test_commutation_residual_free_top_short():
    res = commutation_residual(full_point(), BP, ZeroPotential(), 1e-3, 1.0, sample_stride=20)
    assert res < 1e-7


def test_nu_pi_of_reads_attitude_column():
    s = full_point()
    nu, pi = nu_pi_of(SpaceId.CotSE3, flatten(s, SpaceId.CotSE3))
    npt.assert_array_equal(nu, s.R[:, 2])
    npt.assert_array_equal(pi, s.pi)


def acceptance_start(space):
    start = full_start() if space is SpaceId.CotSE3 else reduced_start()
    return flatten(start, space)


def free_attitude_miss(kappa):
    """Max over samples of |z - oracle|_inf for a free full-chart run of the
    Hamiltonian with spin coefficient kappa, against the closed-form motion
    of the true one: x moves uniformly, p and pi are constant, and
    R(t) = exp_so3(t pi / I1) R0 exp_so3(2 kappa_true <nu, pi> t e3)."""
    space = SpaceId.CotSE3
    h = _hamiltonian_field(space, BP, ZeroPotential(), kappa, "H")
    traj = simulate(space, h, acceptance_start(space), 1e-3, 2.0, sample_stride=100)
    r0, spin = section(NU0), 2.0 * spin_coefficient(BP) * float(NU0 @ PI0)
    worst = 0.0
    for t, z in zip(traj.t, traj.z):
        r = exp_so3((t / BP.I1) * PI0) @ r0 @ exp_so3(np.array([0.0, 0.0, spin * t]))
        want = flatten(FullState(x=X0 + t * P0 / BP.M, R=r, p=P0, pi=PI0), space)
        worst = max(worst, float(np.abs(z - want).max()))
    return worst


def test_full_free_top_attitude_oracle():
    # The spin term kappa <nu, pi>^2 turns the body about its own axis and
    # moves nothing on the quotient, so only the full attitude shows it.
    assert free_attitude_miss(spin_coefficient(BP)) < 1e-12


@pytest.mark.parametrize("factor", [-1.0, 0.0], ids=["kappa-negated", "kappa-zero"])
def test_full_free_top_attitude_oracle_sees_the_spin_term(factor):
    assert free_attitude_miss(factor * spin_coefficient(BP)) > 0.5


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", list(PRESET_POTENTIALS))
@pytest.mark.parametrize("space", [SpaceId.CotSE3, SpaceId.Reduced], ids=["full", "reduced"])
def test_step_matches_rk4_on_structure_matrix(space, name, method):
    # RK4 on Lambda(z) grad h(z) with Lambda from the affine tensors: ties the
    # float step's stage sums and repair to the tensor certificate.
    make = full_hamiltonian_field if space is SpaceId.CotSE3 else reduced_hamiltonian_field
    h = make(BP, PRESET_POTENTIALS[name])

    def slope(z):
        return structure_matrix(space, z) @ h.gradient(z)

    dt = 1e-3
    z = ref = acceptance_start(space)
    for _ in range(100):
        z = step(space, h, z, dt, method)
        k1 = slope(ref)
        k2 = slope(ref + 0.5 * dt * k1)
        k3 = slope(ref + 0.5 * dt * k2)
        k4 = slope(ref + dt * k3)
        ref = ref + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if method == "rk4_repair":
            ref = np.array(_repair(space, ref.tolist()))
        assert np.abs(z - ref).max() <= 1e-14 * np.abs(ref).max()


# The momentum map of the left SE(3) action is (p, J) with J = x × p + pi, and
# J·n is conserved when V is invariant under rotations about n: every n for the
# zero potential, g for gravity, mu for the dipole.  The axes are tilted: with
# g = -e3, every term of dJ_z/dt is exactly zero, so that preset tests nothing.
G_TILTED, MU_TILTED = np.array([0.3, -0.2, -1.0]), np.array([0.2, 0.5, 0.8])
MOMENTUM_CASES = {
    "zero": (ZeroPotential(), np.eye(3)),
    "gravity": (LinearGravity(g=G_TILTED, chi=0.3), unit([G_TILTED])),
    "dipole": (DipolePotential(m=0.05, mu=MU_TILTED), unit([MU_TILTED])),
}
MOMENTUM_TOL = 1e-10


def momentum_drift(space, potential, axes):
    """max |(J(t) - J(0))·n| over the samples of a run from the acceptance
    start and over the rows n of axes."""
    make = full_hamiltonian_field if space is SpaceId.CotSE3 else reduced_hamiltonian_field
    traj = simulate(space, make(BP, potential), acceptance_start(space), 1e-3, 1.0, sample_stride=100)
    xpnp = traj.z[:, LAYOUTS[space].reduced]  # x, p, nu, pi
    j = np.cross(xpnp[:, 0:3], xpnp[:, 3:6]) + xpnp[:, 9:12]
    return float(np.abs((j - j[0]) @ axes.T).max())


@pytest.mark.parametrize("name", list(MOMENTUM_CASES))
@pytest.mark.parametrize("space", [SpaceId.CotSE3, SpaceId.Reduced], ids=["full", "reduced"])
def test_momentum_map_conserved_about_symmetry_axes(space, name):
    assert momentum_drift(space, *MOMENTUM_CASES[name]) <= MOMENTUM_TOL


@pytest.mark.parametrize("defect", ["grad_x-negated", "grad_nu-zero"])
@pytest.mark.parametrize("space", [SpaceId.CotSE3, SpaceId.Reduced], ids=["full", "reduced"])
def test_momentum_map_catches_a_planted_dipole_defect(monkeypatch, space, defect):
    if defect == "grad_x-negated":
        grad_x = DipolePotential.grad_x
        monkeypatch.setattr(DipolePotential, "grad_x", lambda *a: tuple(-g for g in grad_x(*a)))
    else:
        monkeypatch.setattr(DipolePotential, "grad_nu", lambda *a: (0.0, 0.0, 0.0))
    assert momentum_drift(space, *MOMENTUM_CASES["dipole"]) > MOMENTUM_TOL


def fields_on(space):
    """Hamiltonians of every preset on the charts that have one, and a random
    quadratic on every chart."""
    fields = [random_polynomial(space, np.random.default_rng(5), scale=0.3)]
    make = {SpaceId.CotSE3: full_hamiltonian_field, SpaceId.Reduced: reduced_hamiltonian_field}.get(space)
    if make is not None:
        fields += [make(BP, pot) for pot in PRESET_POTENTIALS.values()]
    return fields


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("space", list(SpaceId), ids=lambda s: s.value)
def test_step_on_a_float_list_matches_step_on_an_array(space, method):
    for h in fields_on(space):
        for seed in range(5):
            z = random_chart_point(space, seed)
            got = step(space, h, z.tolist(), 0.05, method)
            assert type(got) is list and all(type(v) is float for v in got)
            assert np.array(got).tobytes() == step(space, h, z, 0.05, method).tobytes()


@pytest.mark.parametrize("space", list(SpaceId), ids=lambda s: s.value)
def test_step_rejects_a_float_list_of_the_wrong_length(space):
    h = fields_on(space)[0]
    z = random_chart_point(space, 0).tolist()
    for bad in (z[:-1], z + [0.0], []):
        with pytest.raises(DimensionMismatch):
            step(space, h, bad, 0.05)


def reference_run(space, h, z0, dt, T, method, stride):
    """simulate as a loop of ndarray steps with the monitors read off arrays:
    t, z, energy, C1, C2 and the orthogonality defect of every sample."""
    lay = LAYOUTS[space]
    n = step_count(T, dt)
    z, rows = z0, []
    for k in range(n + 1):
        if k:
            z = step(space, h, z, dt, method)
        if k % stride == 0 or k == n:
            nu, pi = z[lay.axis], z[lay.pi]
            ortho = orthogonality_defect(z[lay.r].reshape(3, 3)) if lay.r is not None else 0.0
            rows.append((k * dt, z, h(z), dot_left_to_right(nu, nu), dot_left_to_right(nu, pi), ortho))
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("space", list(SpaceId), ids=lambda s: s.value)
def test_simulate_matches_a_loop_of_array_steps(space, method):
    for h in fields_on(space):
        z0 = random_chart_point(space, 3)
        traj = simulate(space, h, z0, 0.01, 0.3, method, 7)
        got = (traj.t, traj.z, traj.energy, traj.c1, traj.c2, traj.ortho_defect)
        for a, b in zip(got, reference_run(space, h, z0, 0.01, 0.3, method, 7)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), h.name


@pytest.mark.parametrize("space", list(SpaceId), ids=lambda s: s.value)
def test_every_field_builder_accepts_a_float_list(space):
    # simulate's monitors call value, and the RK4 step calls grad, on float
    # lists: each builder must give the bits it gives on the array.
    fields = fields_on(space) + [coordinate(space, a) for a in range(LAYOUTS[space].dim)]
    if LAYOUTS[space].nu is not None:
        fields += casimir_fields(space)
    fields += [f * g for f in fields[:3] for g in fields[:3]]
    if LAYOUTS[space].r is not None:  # pull-backs of the fields of the chart below
        below = SpaceId.Reduced if space is SpaceId.CotSE3 else SpaceId.Se3Dual
        fields += [pullback(f) for f in fields_on(below) + list(casimir_fields(below))]
    for f in fields:
        for seed in range(3):
            z = random_chart_point(space, seed)
            assert f(z.tolist()) == f(z) and type(f(z.tolist())) is float, f.name
            assert np.asarray(f.grad(z.tolist()), dtype=float).tobytes() == f.gradient(z).tobytes(), f.name
