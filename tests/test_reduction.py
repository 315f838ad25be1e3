import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtop import reduction
from symtop.algebra3 import exp_so3, rotation_defect
from symtop.checks import check_poisson_map
from symtop.errors import DimensionMismatch
from symtop.phase import (
    LAYOUTS,
    CotSO3State,
    FullState,
    SpaceId,
    _random_unit,
    dim,
    flatten,
    random_chart_point,
    random_state,
)
from symtop.poisson import coordinate
from symtop.orbits import casimir_fields
from symtop.reduction import (
    chart_projection,
    poisson_map_residual,
    poisson_map_residual_all,
    project_full,
    right_action,
    section,
    tau,
    tilde_tau,
    z_rotation,
)


def test_z_rotation_fixes_third_axis_exactly():
    for theta in (0.0, 0.3, np.pi / 2, 2.1, -4.0):
        z = z_rotation(theta)
        npt.assert_array_equal(z[:, 2], [0.0, 0.0, 1.0])
        npt.assert_array_equal(z[2, :], [0.0, 0.0, 1.0])


def test_tau_identity():
    npt.assert_array_equal(tau(np.eye(3)), [0.0, 0.0, 1.0])


@pytest.mark.parametrize("shape", [(4, 4), (5, 3), (9,), (3,)])
def test_tau_refuses_any_shape_but_3x3(shape):
    # a 4x4 identity used to give a 4-vector, a 5x3 array five entries
    with pytest.raises(ValueError, match=re.escape(f"attitude matrix must be 3x3, got shape {shape}")):
        tau(np.ones(shape))


def test_tau_invariant_under_circle_exactly():
    for seed in range(20):
        s = random_state(SpaceId.CotSO3, seed)
        for theta in (0.1, 1.7, -2.2):
            npt.assert_array_equal(tau(s.R @ z_rotation(theta)), tau(s.R))


def test_tau_quarter_turn_about_x():
    npt.assert_allclose(tau(exp_so3([np.pi / 2, 0, 0])), [0.0, -1.0, 0.0], atol=1e-12)


def test_tilde_tau_passes_pi_through():
    for seed in range(10):
        s = random_state(SpaceId.CotSO3, seed)
        q = tilde_tau(s)
        npt.assert_array_equal(q.pi, s.pi)
        assert abs(q.nu @ q.nu - 1.0) < 1e-12


def test_tilde_tau_identity():
    q = tilde_tau(CotSO3State(R=np.eye(3), pi=np.array([0.5, -0.25, 2.0])))
    npt.assert_array_equal(q.nu, [0.0, 0.0, 1.0])
    npt.assert_array_equal(q.pi, [0.5, -0.25, 2.0])


def test_project_full_passthrough():
    for seed in range(10):
        s = random_state(SpaceId.CotSE3, seed)
        r = project_full(s)
        npt.assert_array_equal(r.x, s.x)
        npt.assert_array_equal(r.p, s.p)
        npt.assert_array_equal(r.pi, s.pi)
        npt.assert_array_equal(r.nu, tau(s.R))


def test_projection_circle_invariance_exact():
    for seed in range(10):
        s = random_state(SpaceId.CotSE3, seed)
        for theta in (0.4, -1.3, 3.0):
            shifted = right_action(z_rotation(theta), s)
            a = flatten(project_full(shifted), SpaceId.Reduced)
            b = flatten(project_full(s), SpaceId.Reduced)
            npt.assert_array_equal(a, b)


def test_right_action_identity_and_composition():
    s = random_state(SpaceId.CotSE3, 3)
    npt.assert_array_equal(right_action(np.eye(3), s).R, s.R)
    rng = np.random.default_rng(0)
    b1 = exp_so3(rng.normal(size=3))
    b2 = exp_so3(rng.normal(size=3))
    lhs = right_action(b1, right_action(b2, s))
    rhs = right_action(b2 @ b1, s)
    npt.assert_allclose(lhs.R, rhs.R, atol=1e-15)
    npt.assert_array_equal(lhs.pi, s.pi)


def test_right_action_rejects_other_states():
    with pytest.raises(DimensionMismatch):
        right_action(np.eye(3), random_state(SpaceId.Reduced, 0))


def test_section_is_preimage():
    rng = np.random.default_rng(1)
    for _ in range(200):
        nu = np.array(_random_unit(rng))
        npt.assert_allclose(tau(section(nu)), nu, atol=1e-12)
    # near-axis directions stay well-conditioned
    for nu in ([0, 0, 1], [0, 0, -1], [1e-12, 0, 1], [0, 1, 0]):
        nu = np.asarray(nu, dtype=float)
        nu = nu / np.linalg.norm(nu)
        npt.assert_allclose(tau(section(nu)), nu, atol=1e-12)


# |nu|^2 overflows, underflows to 0, or is subnormal (so |nu| has lost bits)
@pytest.mark.parametrize("nu", [[1e200, 0, 0], [-1e300, 1e300, 1e300], [1e-170, 1e-170, 0], [1e-320, 0, 0],
                                [3e-160, 4e-160, 0]])
def test_section_at_the_ends_of_the_float_range(nu):
    nu = np.asarray(nu, dtype=float)
    r = section(nu)
    assert rotation_defect(r) <= 1e-15
    unit = nu / np.abs(nu).max()
    npt.assert_allclose(tau(r), unit / np.linalg.norm(unit), rtol=0, atol=1e-15)


@pytest.mark.parametrize("nu", [[0, 0, 0], [np.inf, 0, 0], [np.nan, 0, 0], [1, np.nan, 0], [-np.inf, np.inf, 0]])
def test_section_rejects_a_zero_or_non_finite_axis(nu):
    with pytest.raises(ValueError, match="cannot build a frame over nu"):
        section(np.asarray(nu, dtype=float))


def test_chart_projection_matrices():
    src, p = chart_projection(SpaceId.Reduced)
    assert src is SpaceId.CotSE3 and p.shape == (12, 18)
    src, p = chart_projection(SpaceId.Se3Dual)
    assert src is SpaceId.CotSO3 and p.shape == (6, 12)
    # flat projection agrees with the typed map
    s = random_state(SpaceId.CotSE3, 5)
    _, pm = chart_projection(SpaceId.Reduced)
    npt.assert_array_equal(pm @ flatten(s, SpaceId.CotSE3), flatten(project_full(s), SpaceId.Reduced))
    s = random_state(SpaceId.CotSO3, 5)
    _, pm = chart_projection(SpaceId.Se3Dual)
    npt.assert_array_equal(pm @ flatten(s, SpaceId.CotSO3), flatten(tilde_tau(s), SpaceId.Se3Dual))


def test_poisson_map_residual_nu_pi_pair():
    f = coordinate(SpaceId.Reduced, 6)   # nu1
    g = coordinate(SpaceId.Reduced, 10)  # pi2
    for seed in range(20):
        s = random_state(SpaceId.CotSE3, seed)
        assert abs(poisson_map_residual(f, g, s)) < 1e-10


def test_poisson_map_residual_translational_exact():
    f = coordinate(SpaceId.Reduced, 0)  # x1
    g = coordinate(SpaceId.Reduced, 3)  # p1
    s = random_state(SpaceId.CotSE3, 1)
    assert poisson_map_residual(f, g, s) == 0.0


def test_poisson_map_residual_casimir():
    _, c2 = casimir_fields(SpaceId.Reduced)
    for a in (0, 4, 7, 11):
        g = coordinate(SpaceId.Reduced, a)
        for seed in range(5):
            s = random_state(SpaceId.CotSE3, seed)
            assert abs(poisson_map_residual(c2, g, s)) < 1e-10


def test_projection_tables_are_read_only():
    for reduced_space in (SpaceId.Reduced, SpaceId.Se3Dual):
        _, p, sel = reduction._projection(reduced_space)
        assert chart_projection(reduced_space)[1] is p
        for table in (p, sel):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0
            edited = table.copy()
            edited[0] = 0
            assert edited.flags.writeable


def test_poisson_map_residual_all_pairs_both_projections():
    for reduced_space in (SpaceId.Reduced, SpaceId.Se3Dual):
        src, _ = chart_projection(reduced_space)
        fields = [coordinate(reduced_space, a) for a in range(dim(reduced_space))]
        for seed in range(5):
            z = random_chart_point(src, seed)
            for a in range(len(fields)):
                for b in range(a + 1, len(fields)):
                    assert abs(poisson_map_residual(fields[a], fields[b], z)) < 1e-10


_VEC = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array)
_ROT = st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3).map(lambda v: exp_so3(np.array(v)))
_SOURCE_STATES = st.one_of(
    st.builds(FullState, x=_VEC, R=_ROT, p=_VEC, pi=_VEC),
    st.builds(CotSO3State, R=_ROT, pi=_VEC),
)


@settings(max_examples=50, deadline=None)
@given(_SOURCE_STATES)
def test_poisson_map_at_generated_points(state):
    reduced_space = SpaceId.Reduced if isinstance(state, FullState) else SpaceId.Se3Dual
    src, _ = chart_projection(reduced_space)
    z = flatten(state, src)
    fields = [coordinate(reduced_space, a) for a in range(dim(reduced_space))]
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            # the poisson-map suite's tolerance
            assert abs(poisson_map_residual(fields[a], fields[b], z)) <= 1e-10


def test_poisson_map_residual_accepts_typed_rotational_state():
    f = coordinate(SpaceId.Se3Dual, 0)
    g = coordinate(SpaceId.Se3Dual, 4)
    s = random_state(SpaceId.CotSO3, 2)
    assert abs(poisson_map_residual(f, g, s)) < 1e-10


def _assert_matches_pairwise(reduced_space, z):
    fields = [coordinate(reduced_space, a) for a in range(dim(reduced_space))]
    defect = poisson_map_residual_all(reduced_space, z)
    for a in range(len(fields)):
        for b in range(len(fields)):
            assert defect[a, b] == poisson_map_residual(fields[a], fields[b], z)


def test_poisson_map_residual_all_matches_pairwise():
    for reduced_space in (SpaceId.Reduced, SpaceId.Se3Dual):
        src, _ = chart_projection(reduced_space)
        for seed in range(10):
            _assert_matches_pairwise(reduced_space, random_chart_point(src, seed))


@settings(max_examples=50, deadline=None)
@given(_SOURCE_STATES)
def test_poisson_map_residual_all_matches_pairwise_at_generated_points(state):
    reduced_space = SpaceId.Reduced if isinstance(state, FullState) else SpaceId.Se3Dual
    _assert_matches_pairwise(reduced_space, state)


@pytest.mark.parametrize("reduced_space, n", [(SpaceId.Reduced, 12), (SpaceId.Se3Dual, 6)])
def test_poisson_map_residual_all_exact_zero(reduced_space, n):
    src, _ = chart_projection(reduced_space)
    for seed in range(20):
        defect = poisson_map_residual_all(reduced_space, random_chart_point(src, seed))
        assert defect.shape == (n, n)
        npt.assert_array_equal(defect, -defect.T)
        npt.assert_array_equal(defect, 0.0)


def test_poisson_map_residual_all_rejects_wrong_chart():
    with pytest.raises(DimensionMismatch):
        poisson_map_residual_all(SpaceId.Reduced, random_chart_point(SpaceId.Reduced, 0))
    with pytest.raises(DimensionMismatch):
        poisson_map_residual_all(SpaceId.Se3Dual, random_state(SpaceId.CotSE3, 0))
    with pytest.raises(DimensionMismatch):
        poisson_map_residual_all(SpaceId.CotSE3, random_chart_point(SpaceId.CotSE3, 0))


def _swap_x_p(p, dst, src):
    # reduced x reads the source p block and reduced p the source x block
    p[dst.x] = 0.0
    p[dst.p] = 0.0
    p[dst.x, src.p] = np.eye(3)
    p[dst.p, src.x] = np.eye(3)


def _nu_from_third_row(p, dst, src):
    # nu_j reads R[2, j] instead of R[j, 2]
    for j in range(3):
        p[dst.axis.start + j] = 0.0
        p[dst.axis.start + j, src.r_entry(2, j)] = 1.0


def _nu_from_second_column(p, dst, src):
    # every column of R brackets with pi like nu, so this is still a Poisson map
    for j in range(3):
        p[dst.axis.start + j] = 0.0
        p[dst.axis.start + j, src.r_entry(j, 1)] = 1.0


@pytest.mark.parametrize(
    "reduced_space, mutate, poisson",
    [
        (SpaceId.Reduced, _swap_x_p, False),
        (SpaceId.Reduced, _nu_from_third_row, False),
        (SpaceId.Se3Dual, _nu_from_third_row, False),
        (SpaceId.Reduced, _nu_from_second_column, True),
    ],
    ids=["Reduced-swap-x-p", "Reduced-nu-third-row", "Se3Dual-nu-third-row", "Reduced-nu-second-column"],
)
def test_poisson_map_certificate_catches_wrong_projection(monkeypatch, reduced_space, mutate, poisson):
    src, p, _ = reduction._projection(reduced_space)
    p = p.copy()
    mutate(p, LAYOUTS[reduced_space], LAYOUTS[src])
    monkeypatch.setitem(reduction._PROJECTIONS, reduced_space, (src, p, p.argmax(axis=1)))
    result, = (r for r in check_poisson_map(points=10) if r.name.endswith(f"->{reduced_space.value}"))
    if poisson:
        assert result.max_residual == 0.0 and result.passed
    else:
        assert result.max_residual >= 1.0 and not result.passed
