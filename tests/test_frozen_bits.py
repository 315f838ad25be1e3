"""Bit-exact regression of the float-native 3-vector / 3x3 kernel.

The random points of the certificates, the Rodrigues exponential, the
rotation defects and the certificate composites (the coadjoint action, the
orbit witness and the same-level and SE(3) samplers) run on Python floats
(see the algebra3 docstring): every dot product and matrix entry is summed
left to right, with no BLAS call.
So the sha256 literals hold on any OpenBLAS kernel (SkylakeX, Haswell,
Nehalem, Prescott, ...) and any BLAS build.  They still depend on numpy's
random generator and on the x86-64 double arithmetic that IEEE 754 fixes
(CI installs numpy==2.4.*); only EXP_SO3 also depends on libm's math.sin
and math.cos, since random rotations are drawn as quaternions.  The reference
tests at the end compare against the array expressions with each product
spelled as an explicit left-to-right float sum here.
"""

import hashlib
import math

import numpy as np
import pytest

from symtop.algebra3 import exp_so3, hat, orthogonality_defect, rotation_defect
from symtop.checks import random_same_level_pair
from symtop.orbits import casimirs, coadjoint, random_se3, same_orbit_witness
from symtop.phase import Se3DualPoint, SpaceId, random_chart_point, random_rotation
from symtop.reduction import z_rotation

CHART_POINTS_SHA256 = "41f9e375db4f5aebc03322818989e6cf86487c6d5b2ff9827d4d4355094d33a5"
EXP_SO3_SHA256 = "51bc7b1674b615be0cda479c175c179e438792f8d62abcc75d3f84e666cf037f"
ORTHOGONALITY_DEFECT_SHA256 = "3d4b2722fc0baf2d6bea85d5623b29dec8b93ceabf643dc7380bf89e555b9ad2"
ROTATION_DEFECT_SHA256 = "7e5839dbad9dc5689f9de0ef4035f669619d541aee2728e384ff10e84bb837ee"
COADJOINT_SHA256 = "9e19cf53158158331ef1527814bbdd44618b46444002cbaa3604a722bf4d0be8"
WITNESS_SHA256 = "83249fd68787603c1b2324e4943874164ad962457923066f54883620f4f6e261"
SAME_LEVEL_PAIRS_SHA256 = "225c483229683026742a8164af994ab10dee73cf162ba1337121ed94393e14dd"
RANDOM_SE3_SHA256 = "2a00796c25842137d81c3d25bcfde99f602bbe08e95b4175365148b1aa243f91"


def exp_inputs():
    """Generic, small-angle, axis-aligned and zero-component axis-angles."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        yield rng.normal(size=3) * rng.uniform(0.0, 4.0)
    for scale in (1e-9, 1e-12, 1e-15):
        yield np.array([1.0, -2.0, 0.5]) * scale
    for _ in range(20):
        yield rng.normal(size=3) * 1e-9
    for axis in np.eye(3):
        for theta in np.linspace(-7.0, 7.0, 29):
            yield axis * theta
    for _ in range(100):
        v = rng.normal(size=3)
        v[rng.integers(3)] = rng.choice([0.0, -0.0])
        yield v
    # just above the small-angle switch cos t rounds to 1, so b = 0 and b
    # times a negative hat(v)^2 entry is -0.0 where hat(v) has a zero
    for i in range(3):
        for zero in (0.0, -0.0):
            yield np.insert([7e-9, -7.5e-9], i, zero)
    yield np.zeros(3)
    yield np.array([-0.0, -0.0, -0.0])


def perturbed_rotations(smallest: float):
    """Random rotations plus noise of size 10**U(smallest, -1)."""
    rng = np.random.default_rng(77)
    for _ in range(300):
        yield random_rotation(rng) + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(smallest, -1.0)


def dual_points():
    """Random points (nu, pi), with |nu| in [0.5, 1.5] and pi in [-1, 1]^3."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        nu = rng.normal(size=3)
        yield Se3DualPoint(nu=nu / norm_left_to_right(nu) * rng.uniform(0.5, 1.5), pi=rng.uniform(-1, 1, 3))


def same_level_pairs():
    """random_same_level_pair in its three modes: antipodal axes on every
    tenth pair from k = 3, equal axes on every tenth from k = 7."""
    rng = np.random.default_rng(5)
    for k in range(300):
        yield random_same_level_pair(rng, force_antipodal=(k % 10 == 3), force_aligned=(k % 10 == 7))


def sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def test_random_chart_point_bits():
    digest = sha256(random_chart_point(space, seed).tobytes() for space in SpaceId for seed in range(200))
    assert digest == CHART_POINTS_SHA256


def test_exp_so3_bits():
    # z_rotation of an axis-aligned angle has exact zeros, signed as the
    # array expression signed them
    mats = [exp_so3(v) for v in exp_inputs()]
    mats += [z_rotation(theta) for theta in np.linspace(-10.0, 10.0, 41)]
    assert sha256(m.tobytes() for m in mats) == EXP_SO3_SHA256


def test_orthogonality_defect_bits():
    digest = sha256(repr(orthogonality_defect(m)).encode() for m in perturbed_rotations(-16.0))
    assert digest == ORTHOGONALITY_DEFECT_SHA256


def test_rotation_defect_at_message_precision():
    # The determinant now comes from cofactors rather than LU, which moves
    # the last bits of |det - 1|; its readers are a tolerance test and a
    # .3e message, which agree from defects of 1e-9 up.
    digest = sha256(f"{rotation_defect(m):.3e}".encode() for m in perturbed_rotations(-9.0))
    assert digest == ROTATION_DEFECT_SHA256


def test_coadjoint_bits():
    rng = np.random.default_rng(8)
    images = [coadjoint(random_se3(rng), q) for q in dual_points()]
    assert sha256(b.tobytes() for im in images for b in (im.nu, im.pi)) == COADJOINT_SHA256


def test_same_orbit_witness_bits():
    witnesses = [same_orbit_witness(q1, q2) for q1, q2 in same_level_pairs()]
    assert sha256(b.tobytes() for g in witnesses for b in (g.a, g.A)) == WITNESS_SHA256


def test_random_same_level_pair_bits():
    digest = sha256(b.tobytes() for pair in same_level_pairs() for q in pair for b in (q.nu, q.pi))
    assert digest == SAME_LEVEL_PAIRS_SHA256


def test_random_se3_bits():
    rng = np.random.default_rng(13)
    elements = [random_se3(rng) for _ in range(300)]
    assert sha256(b.tobytes() for g in elements for b in (g.a, g.A)) == RANDOM_SE3_SHA256


def matmul_left_to_right(a, b):
    """a @ b with each entry summed over the inner index in order."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    out = np.empty((len(a), len(b[0])))
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            s = row[0] * b[0][j]
            for k in range(1, len(b)):
                s += row[k] * b[k][j]
            out[i, j] = s
    return out


def norm_left_to_right(v):
    v0, v1, v2 = np.asarray(v).tolist()
    return math.sqrt((v0 * v0 + v1 * v1) + v2 * v2)


def exp_so3_reference(v):
    """The Rodrigues array expression, products summed left to right."""
    t = norm_left_to_right(v)
    k = hat(v)
    if t < 1e-8:
        a, b = 1.0 - t * t / 6.0, 0.5 - t * t / 24.0
    else:
        a, b = np.sin(t) / t, (1.0 - np.cos(t)) / (t * t)
    return np.eye(3) + a * k + b * matmul_left_to_right(k, k)


def random_rotation_reference(rng):
    """Shoemake's matrix of Marsaglia's unit quaternion q = (w, x, y, z):
    2 v v^T + hat(2 w v) off the diagonal, 1 - 2(|v|^2 - v_i^2) on it, v = (x, y, z)."""
    while True:
        q = rng.uniform(-1.0, 1.0, 4)
        s1, s2 = q[0] * q[0] + q[1] * q[1], q[2] * q[2] + q[3] * q[3]
        if s1 < 1.0 and 0.0 < s2 < 1.0:
            break
    q[2:] *= np.sqrt((1.0 - s1) / s2)
    p = 2.0 * np.outer(q, q)
    rot = p[1:, 1:] + hat(p[0, 1:])
    d = np.diag(p[1:, 1:])
    np.fill_diagonal(rot, 1.0 - (np.roll(d, -1) + np.roll(d, -2)))
    return rot


def test_exp_so3_matches_array_expression():
    for v in exp_inputs():
        assert exp_so3(v).tobytes() == exp_so3_reference(v).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_random_rotation_matches_array_expression(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        assert random_rotation(rng).tobytes() == random_rotation_reference(ref).tobytes()


def test_orthogonality_defect_matches_array_expression():
    for m in perturbed_rotations(-16.0):
        gram = matmul_left_to_right(m.T, m)
        assert orthogonality_defect(m) == float(np.abs(gram - np.eye(3)).max())


def dot_left_to_right(a, b):
    a0, a1, a2 = np.asarray(a).tolist()
    b0, b1, b2 = np.asarray(b).tolist()
    return (a0 * b0 + a1 * b1) + a2 * b2


def matvec_left_to_right(m, v):
    return matmul_left_to_right(m, np.asarray(v)[:, None])[:, 0]


def coadjoint_reference(g, q):
    """(A nu, a x A nu + A pi); numpy's cross is the same six products and
    three differences as algebra3.cross."""
    anu = matvec_left_to_right(g.A, q.nu)
    return anu, np.cross(g.a, anu) + matvec_left_to_right(g.A, q.pi)


def orthogonal_unit_reference(v):
    axis = np.zeros(3)
    k = int(np.argmin(np.abs(v)))
    axis[k] = 1.0
    u = axis - v[k] / dot_left_to_right(v, v) * v
    return u / norm_left_to_right(u)


def frame_reference(v):
    """reduction.section: columns u, n x u and n, with n = v/|v|."""
    n = v / norm_left_to_right(v)
    u = orthogonal_unit_reference(n)
    return np.column_stack([u, np.cross(n, u), n])


def witness_reference(q1, q2):
    rot = matmul_left_to_right(frame_reference(q2.nu), frame_reference(q1.nu).T)
    d = q2.pi - matvec_left_to_right(rot, q1.pi)
    return np.cross(q2.nu, d) / dot_left_to_right(q1.nu, q1.nu), rot


def same_level_pair_reference(rng, force_antipodal, force_aligned):
    nu1 = rng.normal(size=3)
    nu1 = nu1 / norm_left_to_right(nu1)
    pi1 = rng.uniform(-1, 1, 3)
    c2 = dot_left_to_right(nu1, pi1)
    if force_antipodal:
        nu2 = -nu1
    elif force_aligned:
        nu2 = nu1.copy()
    else:
        nu2 = rng.normal(size=3)
        nu2 = nu2 / norm_left_to_right(nu2)
    w = rng.uniform(-1, 1, 3)
    pi2 = c2 * nu2 + (w - dot_left_to_right(w, nu2) * nu2)
    return nu1, pi1, nu2, pi2


def test_coadjoint_matches_array_expression():
    rng = np.random.default_rng(8)
    for q in dual_points():
        g = random_se3(rng)
        image = coadjoint(g, q)
        nu, pi = coadjoint_reference(g, q)
        assert image.nu.tobytes() == nu.tobytes() and image.pi.tobytes() == pi.tobytes()


def test_same_orbit_witness_matches_array_expression():
    for q1, q2 in same_level_pairs():
        g = same_orbit_witness(q1, q2)
        a, rot = witness_reference(q1, q2)
        assert g.a.tobytes() == a.tobytes() and g.A.tobytes() == rot.tobytes()
        assert casimirs(q1).c1 == dot_left_to_right(q1.nu, q1.nu)


@pytest.mark.parametrize("seed", range(3))
def test_random_same_level_pair_matches_array_expression(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(300):
        mode = {"force_antipodal": k % 10 == 3, "force_aligned": k % 10 == 7}
        q1, q2 = random_same_level_pair(rng, **mode)
        got = b"".join(v.tobytes() for v in (q1.nu, q1.pi, q2.nu, q2.pi))
        assert got == b"".join(v.tobytes() for v in same_level_pair_reference(ref, **mode))


@pytest.mark.parametrize("seed", range(3))
def test_random_se3_matches_array_expression(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        g = random_se3(rng)
        a = ref.uniform(-1, 1, 3)
        assert g.a.tobytes() == a.tobytes() and g.A.tobytes() == random_rotation_reference(ref).tobytes()
