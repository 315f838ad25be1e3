"""Bit-exact regression of the float-native 3-vector / 3x3 kernel.

The random points of the certificates, the Rodrigues exponential and the
rotation defects run on Python floats (see the algebra3 docstring): every
dot product and matrix entry is summed left to right, with no BLAS call.
So the sha256 literals hold on any OpenBLAS kernel (SkylakeX, Haswell,
Nehalem, Prescott, ...) and any BLAS build.  They still depend on numpy's
random generator, on math.sin and math.cos, and on the x86-64 double
arithmetic that IEEE 754 fixes; CI installs numpy==2.4.*.  The reference
tests at the end compare against the array expressions with each product
spelled as an explicit left-to-right float sum here.
"""

import hashlib
import math

import numpy as np
import pytest

from symtop.algebra3 import exp_so3, hat, orthogonality_defect, rotation_defect
from symtop.phase import SpaceId, random_chart_point, random_rotation
from symtop.reduction import z_rotation

CHART_POINTS_SHA256 = "bbf86a31716761c88e7e4aae3cdd0b043a66ac822f98fe06b47c9b9edde3cb3f"
EXP_SO3_SHA256 = "51bc7b1674b615be0cda479c175c179e438792f8d62abcc75d3f84e666cf037f"
ORTHOGONALITY_DEFECT_SHA256 = "3da227ab731a795e7d87bb5ef23452a4c59521d8b7540315c8eddb278be03c64"
ROTATION_DEFECT_SHA256 = "937216b1210687aa4a072034a03858f8c76512470974d2f3fa66ef77c47fee8c"


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
    turns = []
    for _ in range(3):
        axis = rng.normal(size=3)
        axis /= norm_left_to_right(axis)
        turns.append(exp_so3_reference(axis * rng.uniform(0.0, np.pi)))
    return matmul_left_to_right(matmul_left_to_right(turns[0], turns[1]), turns[2])


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
