"""Exact 3-vector / 3x3-matrix algebra and rotation-group utilities.

The hat map identifies R^3 with antisymmetric 3x3 matrices so that
hat(xi) @ eta = xi x eta.  Componentwise, hat(xi)[k,l] = -eps[i,k,l] xi[i]
and its inverse is xi[i] = -0.5 * eps[i,k,l] hat(xi)[k,l], where eps is the
Levi-Civita symbol.  Under this identification the matrix commutator goes to
the cross product, the trace pairing <xi,eta> = -tr(hat(xi) hat(eta))/2 to
the dot product, and conjugation by a rotation B to the linear action of B:

    [hat(xi), hat(eta)] = hat(xi x eta)
    B hat(xi) B^-1      = hat(B xi)

Everything here is pure and allocation-light; all other modules build on it.

Float-native kernel.  The random points the certificates draw pass through
this module thousands of times per suite, so hat, exp_so3 and the defects
read their input with one tolist(), do their scalar arithmetic on Python
floats and build their result array once, returning the same bits as the
numpy expressions they replaced.  Three kinds of numpy call stay, because a
float rewrite changes the output bits (counts on standard-normal inputs):

    dot products and 3x3 products  OpenBLAS rounds with fused multiply-adds:
                                   a plain float 3x3 product differed from @
                                   in 19,467 of 20,000 cases and a float sum
                                   of squares from np.linalg.norm in 2,205 of
                                   20,000, while norm3 = sqrt(v.dot(v)) is
                                   what np.linalg.norm computes
    np.arctan2                     math.atan2 differed in 7,322 of 100,000
    np.linalg.inv                  in reorthonormalize's Newton iteration

The products are spelled ndarray.dot: it makes the same BLAS call as @
(no difference in 40,000 random cases, signed zeros included) without the
ufunc dispatch, at about a third of the cost for 3x3 operands.  math.sin and
math.cos agree with np.sin and np.cos bit for bit (100,000 angles in
[0, 4]), so the Rodrigues coefficients use them.  rotation_defect takes its
determinant from cofactors, not LU: only a tolerance decision and a .3e
message read it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotAntisymmetric, TooFarFromSO3

Vec3 = np.ndarray
Mat3 = np.ndarray

# Levi-Civita symbol eps[i,j,k]
EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _k] = 1.0
    EPS[_i, _k, _j] = -1.0

IDENTITY = np.eye(3)

# Angle below which Rodrigues coefficients switch to their 2nd-order Taylor
# expansions; avoids 0/0 with no precision loss at double precision.
_SMALL_ANGLE = 1e-8

# Antisymmetry tolerance for vee(), matching the rotation admission tolerance.
VEE_TOL = 1e-9

# Orthogonality defect beyond which reorthonormalize() refuses to repair.
REPAIR_LIMIT = 0.1


def hat(v: Vec3) -> Mat3:
    """Antisymmetric matrix of the cross product: hat(v) @ w == v x w."""
    v0, v1, v2 = np.asarray(v, dtype=float).tolist()
    return np.array([0.0, -v2, v1, v2, 0.0, -v0, -v1, v0, 0.0]).reshape(3, 3)


def cross(a: Vec3, b: Vec3) -> Vec3:
    """a x b of two float 3-vectors.

    The same IEEE products and differences as numpy's cross, on Python
    floats: numpy's cross spends far longer on axis handling than on the
    six products.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def vee(m: Mat3, tol: float = VEE_TOL) -> Vec3:
    """Inverse of hat: extract v from an antisymmetric matrix.

    Raises NotAntisymmetric if max|M + M^T| exceeds tol.  The returned
    vector is the average of the two off-diagonal copies, so vee(hat(v))
    reproduces v exactly.
    """
    m = np.asarray(m, dtype=float)
    defect = np.abs(m + m.T).max()
    if defect > tol:
        raise NotAntisymmetric(f"antisymmetry defect {defect:.3e} exceeds {tol:.1e}")
    return np.array([
        0.5 * (m[2, 1] - m[1, 2]),
        0.5 * (m[0, 2] - m[2, 0]),
        0.5 * (m[1, 0] - m[0, 1]),
    ])


def norm3(v: Vec3) -> float:
    """Euclidean length sqrt(v . v) of a float vector.

    np.linalg.norm computes exactly this for a float vector, so the two agree
    bit for bit; the dot product stays in BLAS (see the module docstring).
    """
    return math.sqrt(v.dot(v))


def orthogonality_defect(m: Mat3) -> float:
    """max|M^T M - I|, zero exactly on orthogonal matrices; NaN if any entry
    of M^T M is NaN."""
    m = np.asarray(m, dtype=float)
    g00, g01, g02, g10, g11, g12, g20, g21, g22 = m.T.dot(m).ravel().tolist()
    d = (abs(g00 - 1.0), abs(g01), abs(g02), abs(g10), abs(g11 - 1.0),
         abs(g12), abs(g20), abs(g21), abs(g22 - 1.0))
    # Python's max skips a NaN that is not its first argument; the sum of
    # nonnegative terms is NaN exactly when one of them is.
    return math.nan if math.isnan(sum(d)) else max(d)


def rotation_defect(m: Mat3) -> float:
    """Combined admission defect: max of orthogonality defect and |det - 1|;
    NaN if either is NaN."""
    m = np.asarray(m, dtype=float)
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    det_defect = abs(det - 1.0)
    if math.isnan(det_defect):
        return math.nan
    return max(orthogonality_defect(m), det_defect)


def require_rotation(m: Mat3, tol: float = 1e-9) -> Mat3:
    """Validate rotation invariants (orthogonal, det +1) and return the
    matrix; a non-finite matrix is rejected too."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {m.shape}")
    d = rotation_defect(m)
    if not d <= tol:
        raise ValueError(f"rotation defect {d:.3e} exceeds admission tolerance {tol:.1e}")
    return m


def exp_so3(v: Vec3) -> Mat3:
    """Rotation about axis v/|v| by angle |v| (Rodrigues formula).

    R = I + (sin t / t) hat(v) + ((1 - cos t)/t^2) hat(v)^2, t = |v|,
    summed entry by entry in the order of the array expression
    (I + a hat(v)) + b hat(v)^2; the 0.0 + term turns a -0.0 off-diagonal
    product into +0.0 as that sum does.  hat(v)^2 stays a BLAS product (see
    the module docstring).  A non-finite |v| gives NaN in every entry.
    """
    v = np.asarray(v, dtype=float)
    t = norm3(v)
    if t < _SMALL_ANGLE:
        a = 1.0 - t * t / 6.0
        b = 0.5 - t * t / 24.0
    elif t < math.inf:
        a = math.sin(t) / t
        b = (1.0 - math.cos(t)) / (t * t)
    else:
        return np.full((3, 3), math.nan)
    k = hat(v)
    s00, s01, s02, s10, s11, s12, s20, s21, s22 = k.dot(k).ravel().tolist()
    v0, v1, v2 = v.tolist()
    return np.array([
        1.0 + b * s00, (0.0 + a * -v2) + b * s01, (0.0 + a * v1) + b * s02,
        (0.0 + a * v2) + b * s10, 1.0 + b * s11, (0.0 + a * -v0) + b * s12,
        (0.0 + a * -v1) + b * s20, (0.0 + a * v0) + b * s21, 1.0 + b * s22,
    ]).reshape(3, 3)


def reorthonormalize(m: Mat3, max_defect: float = REPAIR_LIMIT) -> Mat3:
    """Nearest rotation to m in the polar-decomposition sense.

    Newton iteration M <- (M + M^-T)/2 converges quadratically to the
    orthogonal polar factor for matrices near SO(3); it is a fixed point on
    exact rotations and commutes with right multiplication by a rotation.
    Raises TooFarFromSO3 when the input defect exceeds max_defect.
    """
    m = np.asarray(m, dtype=float)
    d = orthogonality_defect(m)
    if not d <= max_defect:  # also a NaN or infinite defect
        raise TooFarFromSO3(f"orthogonality defect {d:.3e} exceeds repair limit {max_defect}")
    r = m
    for _ in range(30):
        if d <= 1e-15:
            break
        r = 0.5 * (r + np.linalg.inv(r).T)
        d = orthogonality_defect(r)
    return r


def rotation_aligning(a: Vec3, b: Vec3) -> Mat3:
    """Rotation R with R (a/|a|) = b/|b|.

    Rotates about a x b; falls back to the identity for aligned inputs and
    to a half-turn about any axis orthogonal to a for antipodal inputs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = norm3(a), norm3(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cannot align a zero vector")
    ah, bh = a / na, b / nb
    axis = cross(ah, bh)
    s = norm3(axis)
    c = ah.dot(bh)
    if s < 1e-12:
        if c > 0.0:
            return IDENTITY.copy()
        return exp_so3(math.pi * orthogonal_unit(ah))
    angle = float(np.arctan2(s, c))
    return exp_so3(angle * axis / s)


def orthogonal_unit(v: Vec3) -> Vec3:
    """A unit vector orthogonal to v, built from the axis least aligned with v."""
    v = np.asarray(v, dtype=float)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(v)))] = 1.0
    u = axis - (axis @ v) / (v @ v) * v
    return u / norm3(u)
