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

Float-native kernel.  Every 3-vector and 3x3 product here is a fixed-order
expression on Python floats: each dot product and each matrix entry is summed
left to right, one IEEE rounding per operation.  So no bit depends on the
BLAS build or on the kernel OpenBLAS picks for the CPU, which rounds with or
without fused multiply-adds and sums in its own order; and at this size
numpy's per-call overhead would cost more than the arithmetic.  Each formula
has one home, a private kernel on floats (_cross, _matvec, _matmul, _frame,
_polar, ...); a public function wraps it with one tolist() in and one array
out, and the composites elsewhere (the section, coadjoint action, orbit
witness, RK4 repair) call the kernels, so they too convert once in and once
out.  Only numpy calls that are exact in any order stay: the +-1 structure
tensors (poisson) and the selection matrix P (reduction), and elementwise
arithmetic.

No numpy function whose result follows its SIMD dispatch is called.  The
only transcendental functions are libm's sin and cos in exp_so3, bit for bit
np.sin and np.cos on 100,000 angles in [0, 4]; only an angle input reaches
them.  The random rotations (quaternions, in phase), the frames of the
section and the orbit witness need none.
rotation_defect takes its determinant from cofactors, not LU: only a
tolerance decision and a .3e message read it.  reorthonormalize's Newton
update takes M^-T from cofactors too, where np.linalg.inv would cost more than
the arithmetic; it agrees with the np.linalg.inv iteration to within 1e-15
(tests/test_algebra3.py).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NotAntisymmetric, TooFarFromSO3

Vec3 = np.ndarray
Mat3 = np.ndarray

# Angle below which Rodrigues coefficients switch to their 2nd-order Taylor
# expansions; avoids 0/0 with no precision loss at double precision.
_SMALL_ANGLE = 1e-8

# Admission tolerance of every invariant: rotation defect, antisymmetry (vee),
# |nu|^2 - 1 (ReducedState, orbits.magnetic_form) and tangency to the sphere.
ADMISSION_TOL = 1e-9

# Orthogonality defect beyond which reorthonormalize() refuses to repair.
REPAIR_LIMIT = 0.1


def hat(v: Vec3) -> Mat3:
    """Antisymmetric matrix of the cross product: hat(v) @ w == v x w."""
    v0, v1, v2 = np.asarray(v, dtype=float).tolist()
    return np.array([0.0, -v2, v1, v2, 0.0, -v0, -v1, v0, 0.0]).reshape(3, 3)


def cross(a: Vec3, b: Vec3) -> Vec3:
    """a x b of two float 3-vectors."""
    return np.array(_cross(a.tolist(), b.tolist()))


def _cross(a, b) -> list[float]:
    """a x b of float triples: numpy's cross's products and differences."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def vee(m: Mat3) -> Vec3:
    """Inverse of hat: extract v from an antisymmetric matrix.

    Raises ValueError unless M is 3x3, then NotAntisymmetric unless
    max|M + M^T| is within ADMISSION_TOL, so also for a NaN entry.  The
    returned vector is the average of the two off-diagonal copies, so
    vee(hat(v)) reproduces v exactly.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"matrix must be 3x3, got shape {m.shape}")
    defect = np.abs(m + m.T).max()
    if not defect <= ADMISSION_TOL:
        raise NotAntisymmetric(f"antisymmetry defect {defect:.3e} exceeds {ADMISSION_TOL:.1e}")
    return np.array([
        0.5 * (m[2, 1] - m[1, 2]),
        0.5 * (m[0, 2] - m[2, 0]),
        0.5 * (m[1, 0] - m[0, 1]),
    ])


def norm3(v: Vec3) -> float:
    """Euclidean length sqrt(v . v) of a float 3-vector; an overflowing
    square gives inf, as a float product does."""
    return _norm(*v.tolist())


def _norm(v0: float, v1: float, v2: float) -> float:
    return math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)


def _dot(a, b) -> float:
    """a . b of two float triples, summed left to right."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a0 * b0 + a1 * b1 + a2 * b2


def matvec3(m: Mat3, v: Vec3) -> Vec3:
    """m @ v of a 3x3 matrix and a 3-vector, each entry summed left to right."""
    return np.array(_matvec(m.ravel().tolist(), v.tolist()))


def _matvec(m, v) -> list[float]:
    """matvec3 of the nine row-major entries of m and a float triple."""
    a, b, c, d, e, f, g, h, i = m
    v0, v1, v2 = v
    return [a * v0 + b * v1 + c * v2, d * v0 + e * v1 + f * v2, g * v0 + h * v1 + i * v2]


def matmul3(m: Mat3, n: Mat3) -> Mat3:
    """m @ n of two 3x3 matrices, each entry summed left to right."""
    return np.array(_matmul(m.ravel().tolist(), n.ravel().tolist())).reshape(3, 3)


def _matmul(m, n) -> list[float]:
    """matmul3 of two matrices given by their nine row-major entries."""
    a, b, c, d, e, f, g, h, i = m
    p, q, r, s, t, u, v, w, x = n
    return [
        a * p + b * s + c * v, a * q + b * t + c * w, a * r + b * u + c * x,
        d * p + e * s + f * v, d * q + e * t + f * w, d * r + e * u + f * x,
        g * p + h * s + i * v, g * q + h * t + i * w, g * r + h * u + i * x,
    ]


def max_or_nan(values) -> float:
    """Largest of a non-empty sequence of nonnegative floats; NaN if any is.
    Python's max drops a NaN that is not its first argument; the sum of
    nonnegative terms is NaN exactly when one of them is."""
    return math.nan if math.isnan(sum(values)) else max(values)


def orthogonality_defect(m: Mat3) -> float:
    """max|M^T M - I|, zero exactly on orthogonal matrices; NaN if any entry
    of M^T M is NaN."""
    return _gram_defect(*np.asarray(m, dtype=float).ravel().tolist())


def _gram_defect(a, b, c, d, e, f, g, h, i) -> float:
    """orthogonality_defect of the row-major entries of M.  Each Gram entry
    is a column dot product summed top to bottom, so M^T M is exactly
    symmetric and its upper triangle holds every distinct entry."""
    return max_or_nan((
        abs(a * a + d * d + g * g - 1.0), abs(a * b + d * e + g * h), abs(a * c + d * f + g * i),
        abs(b * b + e * e + h * h - 1.0), abs(b * c + e * f + h * i), abs(c * c + f * f + i * i - 1.0),
    ))


def rotation_defect(m: Mat3) -> float:
    """Combined admission defect: max of orthogonality defect and |det - 1|;
    NaN if either is NaN."""
    entries = np.asarray(m, dtype=float).ravel().tolist()
    a, b, c, d, e, f, g, h, i = entries
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    det_defect = abs(det - 1.0)
    if math.isnan(det_defect):
        return math.nan
    return max(_gram_defect(*entries), det_defect)


def require_rotation(m: Mat3) -> Mat3:
    """Validate rotation invariants (orthogonal, det +1, within ADMISSION_TOL)
    and return the matrix; a non-finite matrix is rejected too."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {m.shape}")
    d = rotation_defect(m)
    if not d <= ADMISSION_TOL:
        raise ValueError(f"rotation defect {d:.3e} exceeds admission tolerance {ADMISSION_TOL:.1e}")
    return m


def exp_so3(v: Vec3) -> Mat3:
    """Rotation about axis v/|v| by angle |v| (Rodrigues formula).

    R = I + (sin t / t) hat(v) + ((1 - cos t)/t^2) hat(v)^2, t = |v|,
    summed entry by entry in the order of the array expression
    (I + a hat(v)) + b hat(v)^2; the 0.0 + term turns a -0.0 off-diagonal
    product into +0.0 as that sum does.  hat(v)^2 = v v^T - |v|^2 I is
    written out entry by entry; each entry has the value of the left-to-right
    float sum in hat(v) @ hat(v), whose other terms are exact zeros.  A
    non-finite |v| gives NaN in every entry.
    """
    v0, v1, v2 = np.asarray(v, dtype=float).tolist()
    t = _norm(v0, v1, v2)
    if t < _SMALL_ANGLE:
        a, b = 1.0 - t * t / 6.0, 0.5 - t * t / 24.0
    elif t < math.inf:
        a, b = math.sin(t) / t, (1.0 - math.cos(t)) / (t * t)
    else:
        return np.full((3, 3), math.nan)
    s01, s02, s12 = v0 * v1, v0 * v2, v1 * v2
    return np.array([
        1.0 - b * (v2 * v2 + v1 * v1), (0.0 + a * -v2) + b * s01, (0.0 + a * v1) + b * s02,
        (0.0 + a * v2) + b * s01, 1.0 - b * (v2 * v2 + v0 * v0), (0.0 + a * -v0) + b * s12,
        (0.0 + a * -v1) + b * s02, (0.0 + a * v0) + b * s12, 1.0 - b * (v1 * v1 + v0 * v0),
    ]).reshape(3, 3)


def reorthonormalize(m: Mat3) -> Mat3:
    """Nearest rotation to m in the polar-decomposition sense.

    Newton iteration M <- (M + M^-T)/2 (Higham 1986) converges quadratically
    to the orthogonal polar factor for matrices near SO(3); it is a fixed
    point on exact rotations and commutes with right multiplication by a
    rotation.  A reflection converges to the nearest reflection.  Raises
    TooFarFromSO3 when the input defect exceeds REPAIR_LIMIT = 0.1.  Within
    it M^T M has diagonal entries >= 0.9 and off-diagonal row sums <= 0.2, so
    by Gershgorin its eigenvalues are >= 0.7 and |det M| >= 0.7^1.5 > 0; each
    Newton step maps a singular value s to (s + 1/s)/2 >= 1, so the cofactor
    inverse never divides by zero.  The stop test and the limit read
    orthogonality_defect; the iteration runs on the nine entries as floats.
    A matrix already within 1e-15 of orthogonal is returned as it is.
    """
    m = np.asarray(m, dtype=float)
    entries = m.ravel().tolist()
    r = _polar(entries)
    return m if r is entries else np.array(r).reshape(3, 3)


def _polar(r: list[float]) -> list[float]:
    """reorthonormalize of the nine row-major entries r, or r itself."""
    d = _gram_defect(*r)
    if not d <= REPAIR_LIMIT:  # also a NaN or infinite defect
        raise TooFarFromSO3(f"orthogonality defect {d:.3e} exceeds repair limit {REPAIR_LIMIT}")
    for _ in range(30):
        if d <= 1e-15:
            break
        r = _polar_newton_step(*r)
        d = _gram_defect(*r)
    return r


def _polar_newton_step(a, b, c, d, e, f, g, h, i) -> list[float]:
    """(M + M^-T)/2 of the row-major entries of M, with M^-T = cofactor(M) / det M.

    det M is the first-row cofactor expansion; it cannot vanish on the
    matrices reorthonormalize admits (see the Gershgorin bound there).
    """
    c00, c01, c02 = e * i - f * h, f * g - d * i, d * h - e * g
    c10, c11, c12 = c * h - b * i, a * i - c * g, b * g - a * h
    c20, c21, c22 = b * f - c * e, c * d - a * f, a * e - b * d
    det = a * c00 + b * c01 + c * c02
    return [
        0.5 * (a + c00 / det), 0.5 * (b + c01 / det), 0.5 * (c + c02 / det),
        0.5 * (d + c10 / det), 0.5 * (e + c11 / det), 0.5 * (f + c12 / det),
        0.5 * (g + c20 / det), 0.5 * (h + c21 / det), 0.5 * (i + c22 / det),
    ]


def _frame(v) -> list[float]:
    """The frame of reduction.section over the float triple v, as nine
    row-major entries: columns u, n x u and n, with n = v/|v|.  If |v|^2
    is not a finite normal float, v is first divided by max|v_i|, which
    must be finite and nonzero (else ValueError)."""
    v0, v1, v2 = v
    ss = v0 * v0 + v1 * v1 + v2 * v2
    if not sys.float_info.min <= ss < math.inf:
        m = max_or_nan((abs(v0), abs(v1), abs(v2)))
        if not 0.0 < m < math.inf:
            raise ValueError(f"cannot build a frame over nu = {[v0, v1, v2]}")
        v0, v1, v2 = v0 / m, v1 / m, v2 / m
        ss = v0 * v0 + v1 * v1 + v2 * v2
    t = math.sqrt(ss)
    n = [v0 / t, v1 / t, v2 / t]
    u = _orthogonal_unit(*n)
    w = _cross(n, u)
    return [u[0], w[0], n[0], u[1], w[1], n[1], u[2], w[2], n[2]]


def _orthogonal_unit(v0: float, v1: float, v2: float) -> list[float]:
    """A unit vector orthogonal to (v0, v1, v2): the coordinate axis least
    aligned with it, the first of equals as np.argmin, minus its projection."""
    a0, a1, a2 = abs(v0), abs(v1), abs(v2)
    k = 0 if a0 <= a1 and a0 <= a2 else 1 if a1 <= a2 else 2
    f = (v0, v1, v2)[k] / (v0 * v0 + v1 * v1 + v2 * v2)
    u0, u1, u2 = float(k == 0) - f * v0, float(k == 1) - f * v1, float(k == 2) - f * v2
    n = _norm(u0, u1, u2)
    return [u0 / n, u1 / n, u2 / n]
