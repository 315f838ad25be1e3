import numpy as np
import numpy.testing as npt
import pytest

from symtop.algebra3 import (
    cross,
    exp_so3,
    hat,
    orthogonality_defect,
    orthogonal_unit,
    reorthonormalize,
    rotation_aligning,
    rotation_defect,
    vee,
)
from symtop.errors import NotAntisymmetric, TooFarFromSO3
from symtop.phase import random_rotation


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


def test_rotation_aligning_generic_and_degenerate():
    rng = np.random.default_rng(10)
    for _ in range(30):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        r = rotation_aligning(a, b)
        npt.assert_allclose(r @ (a / np.linalg.norm(a)), b / np.linalg.norm(b), atol=1e-12)
    v = np.array([0.3, -0.4, 0.5])
    npt.assert_array_equal(rotation_aligning(v, 2.0 * v), np.eye(3))
    r = rotation_aligning(v, -v)
    npt.assert_allclose(r @ v / np.linalg.norm(v), -v / np.linalg.norm(v), atol=1e-12)
    assert rotation_defect(r) < 1e-12


def test_cross_matches_numpy_bytes():
    # np.cross is the reference: the float form does the same IEEE products
    # and differences, so the results agree bit for bit, signed zeros included
    rng = np.random.default_rng(13)
    for _ in range(2000):
        a = rng.normal(size=3) * 10.0 ** rng.uniform(-150, 150, 3)
        b = rng.normal(size=3) * 10.0 ** rng.uniform(-150, 150, 3)
        a[rng.random(3) < 0.2] = 0.0
        b[rng.random(3) < 0.2] = -0.0
        assert cross(a, b).tobytes() == np.cross(a, b).tobytes()
    for a, b in (([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]), ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
                 ([-0.0, 1.0, 0.0], [0.0, -1.0, -0.0]), ([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])):
        a, b = np.array(a), np.array(b)
        assert cross(a, b).tobytes() == np.cross(a, b).tobytes()


def test_orthogonal_unit():
    rng = np.random.default_rng(11)
    for _ in range(30):
        v = rng.normal(size=3)
        u = orthogonal_unit(v)
        assert abs(u @ v) < 1e-12 * np.linalg.norm(v)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12


def test_orthogonality_defect_zero_on_rotations():
    rng = np.random.default_rng(12)
    assert orthogonality_defect(random_rotation(rng)) < 1e-15
