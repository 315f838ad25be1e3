import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtop import orbits
from symtop.algebra3 import cross, exp_so3, matmul3, matvec3, max_or_nan
from symtop.checks import random_same_level_pair
from symtop.dynamics import step
from symtop.errors import NotSameLevel, NotTangent, NotUnit, ZeroNu
from symtop.orbits import (
    OrbitLevel,
    SE3Element,
    casimir_fields,
    casimirs,
    coadjoint,
    magnetic_form,
    on_level,
    random_se3,
    same_orbit_witness,
    witness_residual,
    witness_tol,
)
from symtop.phase import LAYOUTS, Se3DualPoint, SpaceId, flatten, random_chart_point, random_rotation, random_unit
from symtop.poisson import bracket, coordinate, fd_gradient, random_polynomial, structure_matrix


def q(nu, pi):
    return Se3DualPoint(nu=np.asarray(nu, float), pi=np.asarray(pi, float))


def test_casimirs_frozen_examples():
    lvl = casimirs(q([0, 0, 1], [0, 0, 3]))
    assert (lvl.c1, lvl.c2) == (1.0, 3.0)
    lvl = casimirs(q([0, 0, 1], [5, 0, 0]))
    assert (lvl.c1, lvl.c2) == (1.0, 0.0)


def test_coadjoint_identity_element():
    point = q([0.3, -0.1, 0.7], [0.2, 0.9, -0.5])
    image = coadjoint(SE3Element(a=np.zeros(3), A=np.eye(3)), point)
    npt.assert_array_equal(image.nu, point.nu)
    npt.assert_array_equal(image.pi, point.pi)


def test_coadjoint_pure_translation():
    a = np.array([0.4, -1.2, 0.3])
    image = coadjoint(SE3Element(a=a, A=np.eye(3)), q([0, 0, 1], [0, 0, 0]))
    npt.assert_array_equal(image.nu, [0, 0, 1])
    npt.assert_array_equal(image.pi, np.cross(a, [0, 0, 1]))


def test_coadjoint_is_group_action():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g1 = SE3Element(a=rng.uniform(-1, 1, 3), A=random_rotation(rng))
        g2 = SE3Element(a=rng.uniform(-1, 1, 3), A=random_rotation(rng))
        point = q(random_unit(rng), rng.uniform(-1, 1, 3))
        lhs = coadjoint(g1, coadjoint(g2, point))
        rhs = coadjoint(SE3Element(a=g1.a + matvec3(g1.A, g2.a), A=matmul3(g1.A, g2.A)), point)
        npt.assert_allclose(lhs.nu, rhs.nu, atol=1e-12)
        npt.assert_allclose(lhs.pi, rhs.pi, atol=1e-12)


def test_casimirs_coadjoint_invariant():
    rng = np.random.default_rng(1)
    for _ in range(200):
        point = q(random_unit(rng) * rng.uniform(0.5, 1.5), rng.uniform(-1, 1, 3))
        g = SE3Element(a=rng.uniform(-1, 1, 3), A=random_rotation(rng))
        before, after = casimirs(point), casimirs(coadjoint(g, point))
        assert abs(after.c1 - before.c1) < 1e-12
        assert abs(after.c2 - before.c2) < 1e-12


def test_casimirs_annihilate_brackets():
    rng = np.random.default_rng(2)
    c1f, c2f = casimir_fields(SpaceId.Se3Dual)
    for k in range(50):
        f = random_polynomial(SpaceId.Se3Dual, rng)
        z = random_chart_point(SpaceId.Se3Dual, k)
        assert abs(bracket(c1f, f, z)) < 1e-12
        assert abs(bracket(c2f, f, z)) < 1e-12


_VEC = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array)


@settings(max_examples=50, deadline=None)
@given(_VEC, _VEC, st.integers(0, 2**32 - 1))
def test_casimirs_annihilate_brackets_at_generated_points(nu, pi, seed):
    c1f, c2f = casimir_fields(SpaceId.Se3Dual)
    f = random_polynomial(SpaceId.Se3Dual, np.random.default_rng(seed))
    z = flatten(Se3DualPoint(nu=nu, pi=pi), SpaceId.Se3Dual)
    # the casimirs suite's tolerance
    assert abs(bracket(c1f, f, z)) <= 1e-12
    assert abs(bracket(c2f, f, z)) <= 1e-12


def test_casimir_field_gradients():
    c1f, c2f = casimir_fields(SpaceId.Reduced)
    for k in range(5):
        z = random_chart_point(SpaceId.Reduced, k)
        for f in (c1f, c2f):
            assert np.abs(f.gradient(z) - fd_gradient(f.value, z)).max() < 1e-6


@pytest.mark.parametrize("space", [SpaceId.Se3Dual, SpaceId.Reduced])
def test_casimir_flow_is_the_identity(space):
    # step hands grad a float list; nu x nu and nu x pi + pi x nu are exactly 0
    z = random_chart_point(space, 4)
    for f in casimir_fields(space):
        assert np.array_equal(step(space, f, z, 0.01, method="rk4"), z), f.name


def test_witness_same_point():
    point = q([0, 0, 1], [0.4, 0.2, 1.5])
    g = same_orbit_witness(point, point)
    assert witness_residual(g, point, point) < 1e-12


def test_witness_rotation_only_frozen():
    q1 = q([0, 0, 1], [0, 0, 2])
    q2 = q([1, 0, 0], [2, 0, 0])
    g = same_orbit_witness(q1, q2)
    npt.assert_allclose(g.a, 0.0, atol=1e-12)
    npt.assert_allclose(g.A @ [0, 0, 1], [1, 0, 0], atol=1e-12)
    assert witness_residual(g, q1, q2) < 1e-12


def test_witness_translation_only_frozen():
    q1 = q([0, 0, 1], [0, 0, 0])
    q2 = q([0, 0, 1], [3, 0, 0])
    g = same_orbit_witness(q1, q2)
    npt.assert_allclose(g.A, np.eye(3), atol=1e-12)
    npt.assert_allclose(g.a, [0, 3, 0], atol=1e-12)
    assert witness_residual(g, q1, q2) < 1e-12


def test_witness_random_pairs_including_degenerate():
    rng = np.random.default_rng(3)
    for k in range(300):
        q1, q2 = random_same_level_pair(
            rng, force_antipodal=(k % 10 == 0), force_aligned=(k % 10 == 5)
        )
        g = same_orbit_witness(q1, q2)
        assert witness_residual(g, q1, q2) < 1e-9
    # nu2 = +-nu1 turned by t: pairs next to the aligned and antipodal ones,
    # with pi = 0, and through the coadjoint action with random pi and a
    turns = (1e-13, 1e-12, 1e-11, 1e-9, 1e-8, 1e-6)
    nu1 = np.array([0.36, 0.48, 0.8])
    for t in turns:
        turned = exp_so3(np.array([0.8, 0.0, -0.36]) * t) @ nu1
        for sign in (1.0, -1.0):
            q1, q2 = q(nu1, [0, 0, 0]), q(sign * turned, [0, 0, 0])
            assert witness_residual(same_orbit_witness(q1, q2), q1, q2) < 1e-9
    for _ in range(5):
        q1 = q(random_unit(rng), rng.uniform(-1, 1, 3))
        axis = np.cross(q1.nu, rng.normal(size=3))
        axis /= np.linalg.norm(axis)
        for t in turns:
            for angle in (t, math.pi - t):
                q2 = coadjoint(SE3Element(a=rng.uniform(-1, 1, 3), A=exp_so3(axis * angle)), q1)
                assert witness_residual(same_orbit_witness(q1, q2), q1, q2) < 1e-9


@pytest.mark.parametrize("nu, pi", [([1, 0, 0], [1e8, 3, 0]), ([1e5, 0, 0], [0, 1, 1]), ([1e100, 0, 0], [0, 0, 1])])
def test_witness_scales_its_tolerance_with_the_point(nu, pi):
    # the Casimirs of a coadjoint image round at the size of the input, so an
    # absolute 1e-9 would call these levels different
    q1 = q(nu, pi)
    scale = max(1.0, math.hypot(*nu), math.hypot(*pi))
    rng = np.random.default_rng(0)
    for _ in range(20):
        q2 = coadjoint(random_se3(rng), q1)
        assert witness_residual(same_orbit_witness(q1, q2), q1, q2) <= 1e-9 * scale
    level = casimirs(q1)
    assert witness_tol(q1, level) == 1e-9 * max(1.0, level.c1, math.hypot(*nu) * math.hypot(*pi))


def test_witness_rejects_different_levels():
    with pytest.raises(NotSameLevel):
        same_orbit_witness(q([0, 0, 1], [0, 0, 1]), q([0, 0, 1], [0, 0, 2]))


def test_witness_rejects_zero_nu():
    with pytest.raises(ZeroNu):
        same_orbit_witness(q([0, 0, 0], [1, 0, 0]), q([0, 0, 0], [0, 1, 0]))


def test_magnetic_form_frozen_example():
    val = magnetic_form(np.array([0, 0, 1.0]), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 1.0)
    assert val == -1.0


def test_magnetic_form_vanishes_on_zero_argument():
    nu = np.array([0, 0, 1.0])
    assert magnetic_form(nu, np.zeros(3), np.array([1.0, 0, 0]), 2.5) == 0.0
    assert magnetic_form(nu, np.array([1.0, 0, 0]), np.zeros(3), 2.5) == 0.0


def test_magnetic_form_zero_level():
    rng = np.random.default_rng(4)
    for _ in range(50):
        nu = random_unit(rng)
        u = np.cross(nu, rng.uniform(-1, 1, 3))
        v = np.cross(nu, rng.uniform(-1, 1, 3))
        assert magnetic_form(nu, u, v, 0.0) == 0.0


def test_magnetic_form_antisymmetric_exactly():
    rng = np.random.default_rng(5)
    for _ in range(100):
        nu = random_unit(rng)
        u = np.cross(nu, rng.uniform(-1, 1, 3))
        v = np.cross(nu, rng.uniform(-1, 1, 3))
        c2 = rng.uniform(-2, 2)
        assert magnetic_form(nu, u, v, c2) == -magnetic_form(nu, v, u, c2)


def test_magnetic_form_representative_independent():
    rng = np.random.default_rng(6)
    for _ in range(100):
        nu = random_unit(rng)
        u = np.cross(nu, rng.uniform(-1, 1, 3))
        v = np.cross(nu, rng.uniform(-1, 1, 3))
        c2 = rng.uniform(-2, 2)
        lam = rng.uniform(-3, 3)
        xi = np.cross(nu, u) + lam * nu
        eta = np.cross(nu, v)
        shifted = -c2 * float(np.cross(xi, eta) @ nu)
        assert abs(shifted - magnetic_form(nu, u, v, c2)) < 1e-12


def test_magnetic_form_linear_in_c2():
    rng = np.random.default_rng(7)
    nu = random_unit(rng)
    u = np.cross(nu, rng.uniform(-1, 1, 3))
    v = np.cross(nu, rng.uniform(-1, 1, 3))
    base = magnetic_form(nu, u, v, 1.0)
    for c2 in (-2.0, 0.5, 3.0):
        assert abs(magnetic_form(nu, u, v, c2) - c2 * base) < 1e-14


def test_magnetic_form_agrees_with_area_identity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        nu = random_unit(rng)
        u = np.cross(nu, rng.uniform(-1, 1, 3))
        v = np.cross(nu, rng.uniform(-1, 1, 3))
        c2 = rng.uniform(-2, 2)
        assert abs(magnetic_form(nu, u, v, c2) + c2 * float(nu @ np.cross(u, v))) < 1e-13


def test_magnetic_form_input_validation():
    with pytest.raises(NotUnit):
        magnetic_form(np.array([0, 0, 2.0]), np.zeros(3), np.zeros(3), 1.0)
    with pytest.raises(NotTangent):
        magnetic_form(np.array([0, 0, 1.0]), np.array([0, 0, 1.0]), np.zeros(3), 1.0)


TANGENT_FRAME = ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])  # nu, u, v


@pytest.mark.parametrize("bad", [np.zeros((3, 1)), np.zeros(2), np.zeros(4)], ids=["column", "short", "long"])
@pytest.mark.parametrize("k, name", enumerate(("nu", "u", "v")), ids=("nu", "u", "v"))
def test_magnetic_form_rejects_an_argument_that_is_not_a_3_vector(k, name, bad):
    # a column gave a TypeError, and a 2- or 4-vector an unpacking error
    args = list(TANGENT_FRAME)
    args[k] = bad
    with pytest.raises(ValueError, match=re.escape(f"{name} must have shape (3,), got {bad.shape}")):
        magnetic_form(*args, 1.0)


@pytest.mark.parametrize("k, error", [(0, NotUnit), (1, NotTangent), (2, NotTangent)], ids=("nu", "u", "v"))
def test_magnetic_form_rejects_a_nan(k, error):
    # NaN > ADMISSION_TOL is False, so the form used to return nan
    args = [list(w) for w in TANGENT_FRAME]
    args[k][k - 1] = math.nan
    with pytest.raises(error):
        magnetic_form(*args, 1.0)


@pytest.mark.parametrize("c2", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_magnetic_form_rejects_a_non_finite_c2(c2):
    # nan gave nan and inf gave -inf
    with pytest.raises(ValueError, match=re.escape(f"c2 = {c2} must be finite")):
        magnetic_form(*TANGENT_FRAME, c2)


def orbit_form_residual(seed: int = 0, points: int = 50) -> float:
    """Worst |{f, g}(z) - (Omega_can(X_f, X_g) - B(nu, dnu_f, dnu_g, C2))| over
    seeded Se3Dual points with |nu| = 1 and linear fields f = a . z, g = b . z.

    X_f = Lambda(z) a is f's Hamiltonian vector field, {f, g}(z) = a . Lambda(z) b,
    dq = dpi x nu + pi x dnu is the variation of q = pi x nu, and
    Omega_can(X, Y) = dnu_X . dq_Y - dnu_Y . dq_X.  B is read as
    orbits.magnetic_form, the name tests/test_mutations.py patches.
    """
    lay = LAYOUTS[SpaceId.Se3Dual]
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(points):
        pt = Se3DualPoint(nu=random_unit(rng), pi=rng.uniform(-1, 1, 3))
        lam = structure_matrix(SpaceId.Se3Dual, flatten(pt, SpaceId.Se3Dual))
        a, b = rng.uniform(-1, 1, (2, lay.dim))
        xf, xg = lam @ a, lam @ b

        def dq(x):
            return cross(x[lay.pi], pt.nu) + cross(pt.pi, x[lay.nu])

        canonical = float(xf[lay.nu] @ dq(xg) - xg[lay.nu] @ dq(xf))
        magnetic = orbits.magnetic_form(pt.nu, xf[lay.nu], xg[lay.nu], casimirs(pt).c2)
        residuals.append(abs(float(a @ lam @ b) - (canonical - magnetic)))
    return max_or_nan(residuals)


def test_orbit_form_is_canonical_minus_magnetic_on_hamiltonian_fields():
    # the magnetic term, sign included, is what the Se3Dual bracket needs on
    # top of the canonical form of T*S^2
    assert orbit_form_residual() <= 1e-14


def test_on_level():
    point = q([0, 0, 1], [0.3, 0.1, 2.0])
    lvl = casimirs(point)
    assert on_level(point, lvl, 1e-9)
    off = q([0, 0, 1], [0.3, 0.1, 2.0 + 1e-3])
    assert not on_level(off, lvl, 1e-6)


def test_orbit_level_rejects_negative_c1():
    with pytest.raises(ValueError):
        OrbitLevel(c1=-0.1, c2=0.0)


def test_hamiltonian_flow_stays_on_level():
    # any Hamiltonian flow on the dual preserves the joint Casimir level
    from symtop.dynamics import simulate

    rng = np.random.default_rng(9)
    for k in range(3):
        h = random_polynomial(SpaceId.Se3Dual, rng, scale=0.4)
        z0 = random_chart_point(SpaceId.Se3Dual, k)
        traj = simulate(h, z0, 1e-3, 1.0, method="rk4", sample_stride=50)
        lvl = OrbitLevel(c1=traj.c1[0], c2=traj.c2[0])
        for i in range(len(traj)):
            pt = q(traj.z[i][0:3], traj.z[i][3:6])
            assert on_level(pt, lvl, 1e-8)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_se3_element_rejects_non_finite_rotation():
    for bad in (np.eye(3) * np.inf, np.full((3, 3), np.nan)):
        with pytest.raises(ValueError, match="rotation defect"):
            SE3Element(a=[0, 0, 0], A=bad)


@pytest.mark.parametrize("a, match", [
    ([1.0, 2.0], "shape"),
    ([0.0, np.nan, 0.0], "non-finite"),
    ([np.inf, 0.0, 0.0], "non-finite"),
])
def test_se3_element_rejects_bad_translation(a, match):
    with pytest.raises(ValueError, match=match):
        SE3Element(a=a, A=np.eye(3))


def test_casimir_field_values_match_casimirs():
    # the same left-to-right sums, so the same bits, on an ndarray or a float list
    for space in (SpaceId.Se3Dual, SpaceId.Reduced):
        c1f, c2f = casimir_fields(space)
        lay = LAYOUTS[space]
        for k in range(20):
            z = random_chart_point(space, k)
            level = casimirs(Se3DualPoint(nu=z[lay.nu], pi=z[lay.pi]))
            for point in (z, z.tolist()):
                assert c1f(point) == level.c1 and c2f(point) == level.c2
