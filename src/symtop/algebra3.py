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
"""

from __future__ import annotations

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
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


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


def orthogonality_defect(m: Mat3) -> float:
    """max|M^T M - I|, zero exactly on orthogonal matrices."""
    m = np.asarray(m, dtype=float)
    return float(np.abs(m.T @ m - IDENTITY).max())


def rotation_defect(m: Mat3) -> float:
    """Combined admission defect: max of orthogonality defect and |det - 1|."""
    m = np.asarray(m, dtype=float)
    return max(orthogonality_defect(m), abs(float(np.linalg.det(m)) - 1.0))


def require_rotation(m: Mat3, tol: float = 1e-9) -> Mat3:
    """Validate rotation invariants (orthogonal, det +1) and return the matrix."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {m.shape}")
    d = rotation_defect(m)
    if d > tol:
        raise ValueError(f"rotation defect {d:.3e} exceeds admission tolerance {tol:.1e}")
    return m


def exp_so3(v: Vec3) -> Mat3:
    """Rotation about axis v/|v| by angle |v| (Rodrigues formula).

    R = I + (sin t / t) hat(v) + ((1 - cos t)/t^2) hat(v)^2, t = |v|.
    """
    v = np.asarray(v, dtype=float)
    t = float(np.linalg.norm(v))
    k = hat(v)
    if t < _SMALL_ANGLE:
        a = 1.0 - t * t / 6.0
        b = 0.5 - t * t / 24.0
    else:
        a = np.sin(t) / t
        b = (1.0 - np.cos(t)) / (t * t)
    return IDENTITY + a * k + b * (k @ k)


def reorthonormalize(m: Mat3, max_defect: float = REPAIR_LIMIT) -> Mat3:
    """Nearest rotation to m in the polar-decomposition sense.

    Newton iteration M <- (M + M^-T)/2 converges quadratically to the
    orthogonal polar factor for matrices near SO(3); it is a fixed point on
    exact rotations and commutes with right multiplication by a rotation.
    Raises TooFarFromSO3 when the input defect exceeds max_defect.
    """
    m = np.asarray(m, dtype=float)
    d = orthogonality_defect(m)
    if not np.isfinite(d) or d > max_defect:
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
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cannot align a zero vector")
    ah, bh = a / na, b / nb
    axis = cross(ah, bh)
    s = float(np.linalg.norm(axis))
    c = float(ah @ bh)
    if s < 1e-12:
        if c > 0.0:
            return IDENTITY.copy()
        return exp_so3(np.pi * orthogonal_unit(ah))
    angle = float(np.arctan2(s, c))
    return exp_so3(angle * axis / s)


def orthogonal_unit(v: Vec3) -> Vec3:
    """A unit vector orthogonal to v, built from the axis least aligned with v."""
    v = np.asarray(v, dtype=float)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(v)))] = 1.0
    u = axis - (axis @ v) / (v @ v) * v
    return u / np.linalg.norm(u)
