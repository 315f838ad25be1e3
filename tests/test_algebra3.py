import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from symtop.algebra3 import (
    _cross,
    _gram_defect,
    exp_so3,
    hat,
    max_or_nan,
    norm3,
    reorthonormalize,
    require_rotation,
    rotation_defect,
    vee,
)
from symtop.errors import NotAntisymmetric, TooFarFromSO3
from symtop.phase import random_rotation
from symtop.reduction import section


def orthogonality_defect(m):
    """max|M^T M - I| of a 3x3 array, by the repair's Gram kernel."""
    return _gram_defect(*np.ravel(m).tolist())


def expm_series(k, terms=40):
    """Independent matrix-exponential oracle: truncated power series."""
    out = np.eye(3)
    p = np.eye(3)
    for n in range(1, terms + 1):
        p = p @ k / n
        out = out + p
    return out


def test_hat_zero_is_zero_matrix():
    npt.assert_array_equal(hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_e3_cross_e1():
    npt.assert_allclose(hat([0, 0, 1]) @ [1, 0, 0], [0, 1, 0], atol=0)


def test_hat_123_entries():
    m = hat([1.0, 2.0, 3.0])
    assert m[0, 1] == -3.0 and m[0, 2] == 2.0 and m[1, 2] == -1.0
    npt.assert_array_equal(m, -m.T)


def test_hat_is_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v, w = rng.normal(size=3), rng.normal(size=3)
        npt.assert_allclose(hat(v) @ w, np.cross(v, w), atol=1e-15)


def test_vee_inverts_hat():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.normal(size=3)
        npt.assert_array_equal(vee(hat(v)), v)


def test_vee_zero_and_frozen_example():
    npt.assert_array_equal(vee(np.zeros((3, 3))), np.zeros(3))
    m = np.zeros((3, 3))
    m[1, 2] = -5.0
    m[2, 1] = 5.0
    npt.assert_array_equal(vee(m), [5.0, 0.0, 0.0])


def test_vee_rejects_non_antisymmetric():
    with pytest.raises(NotAntisymmetric):
        vee(np.eye(3))
    # a NaN entry too: NaN > ADMISSION_TOL is False
    for entry in ((0, 1), (1, 1)):
        m = np.zeros((3, 3))
        m[entry] = math.nan
        with pytest.raises(NotAntisymmetric):
            vee(m)


@pytest.mark.parametrize("shape", [(4, 4), (2, 2), (3,), (3, 3, 1)], ids=["4x4", "2x2", "vector", "3x3x1"])
def test_vee_rejects_a_matrix_that_is_not_3x3(shape):
    # a 4x4 gave the vee of its top-left block, a 2x2 or a 3-vector an IndexError
    with pytest.raises(ValueError, match=re.escape(f"matrix must be 3x3, got shape {shape}")):
        vee(np.zeros(shape))


def test_hat_inverts_vee_on_antisymmetric():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = hat(rng.normal(size=3))
        npt.assert_array_equal(hat(vee(m)), m)


def test_commutator_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        xi, eta = rng.normal(size=3), rng.normal(size=3)
        lhs = hat(xi) @ hat(eta) - hat(eta) @ hat(xi)
        npt.assert_allclose(lhs, hat(np.cross(xi, eta)), atol=1e-12)


def test_trace_pairing():
    rng = np.random.default_rng(3)
    for _ in range(50):
        xi, eta = rng.normal(size=3), rng.normal(size=3)
        assert abs(xi @ eta + 0.5 * np.trace(hat(xi) @ hat(eta))) < 1e-12


def test_conjugation_intertwines():
    rng = np.random.default_rng(4)
    for k in range(20):
        b = random_rotation(rng)
        xi = rng.normal(size=3)
        npt.assert_allclose(b @ hat(xi) @ b.T, hat(b @ xi), atol=1e-12)


def test_exp_so3_identity_at_zero():
    npt.assert_array_equal(exp_so3(np.zeros(3)), np.eye(3))


def test_exp_so3_quarter_turn():
    npt.assert_allclose(exp_so3([0, 0, np.pi / 2]) @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_exp_so3_matches_series_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.normal(size=3) * rng.uniform(0, np.pi)
        npt.assert_allclose(exp_so3(v), expm_series(hat(v)), atol=1e-13)


def test_exp_so3_small_angle_branch():
    for scale in (1e-9, 1e-12, 1e-15):
        v = np.array([1.0, -2.0, 0.5]) * scale
        npt.assert_allclose(exp_so3(v), expm_series(hat(v)), atol=1e-15)
        assert rotation_defect(exp_so3(v)) < 1e-15


def test_exp_so3_lands_in_rotation_group():
    rng = np.random.default_rng(6)
    for _ in range(50):
        r = exp_so3(rng.normal(size=3) * rng.uniform(0, 4))
        assert rotation_defect(r) < 1e-12


def test_reorthonormalize_fixes_identity():
    npt.assert_array_equal(reorthonormalize(np.eye(3)), np.eye(3))


def test_reorthonormalize_removes_uniform_scale():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = random_rotation(rng)
        npt.assert_allclose(reorthonormalize(r * (1 + 1e-6)), r, atol=1e-9)


def test_reorthonormalize_output_is_rotation():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = random_rotation(rng) + rng.normal(size=(3, 3)) * 1e-3
        assert rotation_defect(reorthonormalize(m)) < 1e-12


def test_reorthonormalize_rejects_garbage():
    with pytest.raises(TooFarFromSO3):
        reorthonormalize(np.eye(3) * 2.0)


def test_reorthonormalize_commutes_with_right_translation():
    # needed so circle-shifted trajectories stay exactly related under repair
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = random_rotation(rng) + rng.normal(size=(3, 3)) * 1e-4
        b = random_rotation(rng)
        npt.assert_allclose(reorthonormalize(m @ b), reorthonormalize(m) @ b, atol=1e-12)


def test_cross_matches_numpy_bytes():
    # np.cross is the reference: the float form does the same IEEE products
    # and differences, so the results agree bit for bit, signed zeros included
    rng = np.random.default_rng(13)
    for _ in range(2000):
        a = rng.normal(size=3) * 10.0 ** rng.uniform(-150, 150, 3)
        b = rng.normal(size=3) * 10.0 ** rng.uniform(-150, 150, 3)
        a[rng.random(3) < 0.2] = 0.0
        b[rng.random(3) < 0.2] = -0.0
        assert np.array(_cross(a.tolist(), b.tolist())).tobytes() == np.cross(a, b).tobytes()
    for a, b in (([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]), ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
                 ([-0.0, 1.0, 0.0], [0.0, -1.0, -0.0]), ([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])):
        assert np.array(_cross(a, b)).tobytes() == np.cross(a, b).tobytes()


def test_orthogonal_unit():
    # the first column of the section's frame, built from the axis least aligned with v
    rng = np.random.default_rng(11)
    for _ in range(30):
        v = rng.normal(size=3)
        u = section(v)[:, 0]
        assert abs(u @ v) < 1e-12 * np.linalg.norm(v)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12


def test_orthogonality_defect_zero_on_rotations():
    rng = np.random.default_rng(12)
    assert orthogonality_defect(random_rotation(rng)) < 1e-15


def non_finite_matrices():
    """NaN and inf entries, one at a time and everywhere."""
    one_nan, one_inf, neg_inf = np.eye(3), np.eye(3), np.eye(3)
    one_nan[0, 0] = np.nan
    one_inf[1, 2] = np.inf
    neg_inf[2, 0] = -np.inf
    return [np.full((3, 3), np.nan), one_nan, one_inf, neg_inf,
            np.where(np.eye(3) == 1.0, np.inf, 0.0), np.full((3, 3), np.inf)]


def test_defects_are_nan_on_non_finite_matrices():
    for m in non_finite_matrices():
        assert math.isnan(rotation_defect(m))
    for m in non_finite_matrices()[:-1]:  # M^T M has a NaN entry (a NaN, or 0 * inf)
        assert math.isnan(orthogonality_defect(m))
    # an all-inf M gives an all-inf M^T M, whose defect is inf, as np.max has it
    assert orthogonality_defect(np.full((3, 3), np.inf)) == math.inf


def test_non_finite_matrices_are_not_rotations():
    for m in non_finite_matrices():
        with pytest.raises(TooFarFromSO3):
            reorthonormalize(m)
        with pytest.raises(ValueError, match="rotation defect"):
            require_rotation(m)


@pytest.mark.parametrize("shape", [(9,), (4, 4), (5, 3), (3, 3, 1), (1, 9)])
def test_matrix_functions_refuse_any_shape_but_3x3(shape):
    for f, name in ((rotation_defect, "rotation"), (require_rotation, "rotation"), (reorthonormalize, "matrix")):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be 3x3, got shape {shape}")):
            f(np.ones(shape))


def test_flat_rotations_are_refused():
    # flat, the identity used to come back as it was, a non-orthogonal
    # matrix as 3x3, and the defect read 0.0
    for m in (np.eye(3).ravel(), 1.01 * np.eye(3).ravel()):
        with pytest.raises(ValueError, match=re.escape("matrix must be 3x3, got shape (9,)")):
            reorthonormalize(m)
        with pytest.raises(ValueError, match=re.escape("rotation must be 3x3, got shape (9,)")):
            rotation_defect(m)


def test_norm3_matches_fixed_order_reference():
    # The squares are summed left to right on floats, whatever order or
    # fused multiply-adds a BLAS dot product would use.
    rng = np.random.default_rng(14)
    for _ in range(2000):
        v = rng.normal(size=3) * 10.0 ** rng.uniform(-150, 150)
        v0, v1, v2 = v.tolist()
        assert norm3(v) == math.sqrt((v0 * v0 + v1 * v1) + v2 * v2)
    assert norm3(np.array([0.0, -1e200, 0.0])) == math.inf  # overflows without a warning


def test_exp_so3_non_finite_angle_gives_nan():
    # |v| overflows to inf for finite v, as well as for inf or NaN entries
    for v in ([1e200, 0.0, 0.0], [np.inf, 0.0, 1.0], [0.0, np.nan, 0.0]):
        assert np.isnan(exp_so3(v)).all()


def newton_polar_reference(m):
    """reorthonormalize's iteration with the inverse taken by np.linalg.inv,
    the form the cofactor inverse replaced; kept here as the reference."""
    d = orthogonality_defect(m)
    r = m
    for _ in range(30):
        if d <= 1e-15:
            break
        r = 0.5 * (r + np.linalg.inv(r).T)
        d = orthogonality_defect(r)
    return r


def perturbed_matrices(rng, count, flip=False):
    """Rotations (reflections with flip) plus noise, with orthogonality
    defects spread log-uniformly from about 1e-16 to 5e-2."""
    out = []
    while len(out) < count:
        m = random_rotation(rng)
        if flip:
            m = m @ np.diag([1.0, 1.0, -1.0])
        m = m + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-16.5, -1.5)
        if orthogonality_defect(m) <= 5e-2:
            out.append(m)
    return out


def test_reorthonormalize_matches_inverse_newton_reference():
    rng = np.random.default_rng(15)
    ms = perturbed_matrices(rng, 4000)
    defects = [orthogonality_defect(m) for m in ms]
    assert min(defects) < 1e-15 and max(defects) > 1e-2
    refs = [newton_polar_reference(m) for m in ms]
    outs = [reorthonormalize(m) for m in ms]
    assert max(np.abs(o - r).max() for o, r in zip(outs, refs)) <= 1e-15
    # Each side against one fixed bound, about 13 units of roundoff at 1: the
    # largest defects are 1.55e-15 here and 1.33e-15 for the reference.
    assert max(map(rotation_defect, outs)) <= 3e-15
    assert max(map(rotation_defect, refs)) <= 3e-15


def test_reorthonormalize_keeps_reflections():
    rng = np.random.default_rng(16)
    for m in perturbed_matrices(rng, 200, flip=True):
        r = reorthonormalize(m)
        assert abs(np.linalg.det(r) + 1.0) < 1e-14
        assert orthogonality_defect(r) < 1e-14
        assert np.abs(r - newton_polar_reference(m)).max() <= 1e-15


def test_max_or_nan_keeps_a_nan_anywhere():
    assert max_or_nan((0.0, 3.0, 1.0)) == 3.0
    assert max_or_nan([2.0]) == 2.0
    assert max_or_nan((0.0, math.inf)) == math.inf
    for k in range(3):  # Python's max drops a NaN in any place but the first
        values = [1.0, 2.0, 0.5]
        values[k] = math.nan
        assert math.isnan(max_or_nan(values))
        assert math.isnan(max_or_nan(tuple(values)))
