"""Casimir invariants, the Euclidean-group coadjoint action, and orbit geometry.

On the dual of the Euclidean algebra the two Casimirs

    C1(nu, pi) = |nu|^2,     C2(nu, pi) = <nu, pi>

are invariant under the coadjoint action of a group element (a, A),

    (nu, pi)  ->  (A nu, a x A nu + A pi),

and their joint level sets with nu != 0 are exactly the coadjoint orbits:
same_orbit_witness constructs, for any two points on a common level, a group
element mapping one to the other, which is the constructive content of
transitivity.

Each orbit over the unit sphere carries the Kirillov-Kostant-Souriau
symplectic structure; relative to the canonical cotangent structure of the
sphere it differs by a magnetic area term proportional to C2.  Tangent
vectors u at nu are parameterized as u = xi x nu, and

    B_nu(xi x nu, eta x nu) = -C2 <xi x eta, nu>,

with the representative fixed as xi = nu x u (the unique choice orthogonal
to nu; independence from that choice is certified separately).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra3 import (
    ADMISSION_TOL,
    Mat3,
    Vec3,
    _cross,
    _dot,
    _frame,
    _matmul,
    _matvec,
    cross,
    max_or_nan,
    require_rotation,
)
from .errors import NotSameLevel, NotTangent, NotUnit, ZeroNu
from .phase import LAYOUTS, Se3DualPoint, SpaceId, _Frozen, _shape3, _vec3, random_rotation
from .poisson import ScalarField


# Level-match tolerance of same_orbit_witness at unit scale; see witness_tol.
WITNESS_TOL = 1e-9


class SE3Element(_Frozen):
    """Euclidean motion (a, A): rotation A followed by translation a."""

    _fields = ("a", "A")

    def __init__(self, a: Vec3, A: Mat3):
        object.__setattr__(self, "a", _vec3(a, "a"))
        object.__setattr__(self, "A", require_rotation(A))


def random_se3(rng: np.random.Generator) -> SE3Element:
    """Random group element: a uniform in [-1, 1]^3, then A = random_rotation."""
    return SE3Element(a=rng.uniform(-1, 1, 3), A=random_rotation(rng))


def random_tangent(rng: np.random.Generator, nu: Vec3) -> Vec3:
    """nu x w for w uniform in [-1, 1]^3: a random vector orthogonal to nu."""
    return cross(nu, rng.uniform(-1, 1, 3))


class OrbitLevel(_Frozen):
    """Joint Casimir level (c1, c2); c1 >= 0 and not NaN, and c1 > 0 on the
    orbits used here."""

    _fields = ("c1", "c2")

    def __init__(self, c1: float, c2: float):
        if not c1 >= 0.0:
            raise ValueError(f"c1 = {c1} must be nonnegative")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)


def casimirs(q: Se3DualPoint) -> OrbitLevel:
    """(|nu|^2, <nu, pi>)."""
    nu = q.nu.tolist()
    return OrbitLevel(c1=_dot(nu, nu), c2=_dot(nu, q.pi.tolist()))


def coadjoint(g: SE3Element, q: Se3DualPoint) -> Se3DualPoint:
    """(nu, pi) -> (A nu, a x A nu + A pi)."""
    rot = g.A.ravel().tolist()
    anu = _matvec(rot, q.nu.tolist())
    pi = [x + y for x, y in zip(_cross(g.a.tolist(), anu), _matvec(rot, q.pi.tolist()))]
    return Se3DualPoint(nu=np.array(anu), pi=np.array(pi))


def on_level(q: Se3DualPoint, level: OrbitLevel, tol: float) -> bool:
    """True iff both Casimirs of q match the level within tol."""
    c = casimirs(q)
    return abs(c.c1 - level.c1) <= tol and abs(c.c2 - level.c2) <= tol


def witness_tol(q: Se3DualPoint, level: OrbitLevel) -> float:
    """Level-match tolerance of same_orbit_witness at q, whose Casimirs are
    level: WITNESS_TOL * s with s = max(1, C1, |nu||pi|).

    The Casimirs' rounding grows with |nu|^2 and |nu||pi|, so the tolerance
    scales with s; for |nu|, |pi| <= 1 it is WITNESS_TOL.  C1 at or below it
    counts as nu = 0.
    """
    return WITNESS_TOL * max(1.0, level.c1, math.hypot(*q.nu.tolist()) * math.hypot(*q.pi.tolist()))


def same_orbit_witness(q1: Se3DualPoint, q2: Se3DualPoint) -> SE3Element:
    """Group element (a, A) with coadjoint((a, A), q1) = q2.

    Requires the two points to share a Casimir level with c1 > 0, both within
    witness_tol at q1.  A = F(nu2) F(nu1)^T, with F the frame of
    reduction.section, takes nu1 to nu2 with no branch on the angle between
    them; the translation is then forced:
    a = nu2 x (pi2 - A pi1) / c1, which solves a x nu2 = pi2 - A pi1 because
    the right side is orthogonal to nu2 on a common level.
    """
    l1 = casimirs(q1)
    tol = witness_tol(q1, l1)
    if not on_level(q2, l1, tol):
        l2 = casimirs(q2)
        raise NotSameLevel(
            f"levels ({l1.c1:.6g}, {l1.c2:.6g}) and ({l2.c1:.6g}, {l2.c2:.6g}) differ beyond {tol:.1e}"
        )
    if l1.c1 <= tol:
        raise ZeroNu(f"c1 = {l1.c1:.3e} too small for an orbit witness")
    nu2 = q2.nu.tolist()
    f1 = _frame(q1.nu.tolist())
    rot = _matmul(_frame(nu2), f1[0::3] + f1[1::3] + f1[2::3])  # F(nu2) F(nu1)^T
    d = [x - y for x, y in zip(q2.pi.tolist(), _matvec(rot, q1.pi.tolist()))]
    c1 = l1.c1
    return SE3Element(a=np.array([x / c1 for x in _cross(nu2, d)]), A=np.array(rot).reshape(3, 3))


def witness_residual(g: SE3Element, q1: Se3DualPoint, q2: Se3DualPoint) -> float:
    """max-norm error of coadjoint(g, q1) against q2."""
    image = coadjoint(g, q1)
    got = image.nu.tolist() + image.pi.tolist()
    want = q2.nu.tolist() + q2.pi.tolist()
    return max_or_nan([abs(x - y) for x, y in zip(got, want)])


def magnetic_form(nu: Vec3, u: Vec3, v: Vec3, c2: float) -> float:
    """Magnetic area term B of the orbit symplectic form at nu on tangents u, v.

    With representatives xi = nu x u, eta = nu x v (so that xi x nu = u and
    eta x nu = v), returns -c2 <xi x eta, nu>; by a vector identity this
    equals -c2 <nu, u x v>.  Each of nu, u, v must have shape (3,) and c2
    must be finite (ValueError); nu must be a unit vector (NotUnit) and u, v
    tangent to the sphere at nu (NotTangent), both within ADMISSION_TOL,
    which a NaN fails.
    Sign: the orbit's form is Omega_can - B, with
    Omega_can(X, Y) = dnu_X . dq_Y - dnu_Y . dq_X the canonical form of
    T*S^2 in q = pi x nu; on X_f = Lambda(z) grad f,
    {f, g}(z) = Omega_can(X_f, X_g) - B(nu, dnu_f, dnu_g, C2).
    """
    nu, u, v = (_shape3(w, name).tolist() for w, name in ((nu, "nu"), (u, "u"), (v, "v")))
    c2 = float(c2)
    if not math.isfinite(c2):
        raise ValueError(f"c2 = {c2} must be finite")
    unit_defect = abs(_dot(nu, nu) - 1.0)
    if not unit_defect <= ADMISSION_TOL:
        raise NotUnit(f"|nu|^2 - 1 = {unit_defect:.3e} exceeds {ADMISSION_TOL:.1e}")
    for w, label in ((u, "u"), (v, "v")):
        t = abs(_dot(w, nu))
        if not t <= ADMISSION_TOL:
            raise NotTangent(f"<{label}, nu> = {t:.3e} exceeds {ADMISSION_TOL:.1e}")
    return -c2 * _dot(_cross(_cross(nu, u), _cross(nu, v)), nu)


def casimir_fields(space: SpaceId) -> tuple[ScalarField, ScalarField]:
    """C1 and C2 as chart fields with exact gradients (Se3Dual or Reduced), on
    float lists; the values are the left-to-right sums of casimirs."""
    lay = LAYOUTS[space]
    if lay.nu is None:
        raise ValueError(f"{space.value} has no nu block; Casimirs live downstairs")
    s_nu, s_pi, n = lay.nu, lay.pi, lay.dim

    def c1_value(z):
        nu = z[s_nu]
        return _dot(nu, nu)

    def c2_value(z):
        return _dot(z[s_nu], z[s_pi])

    def c1_grad(z):
        g = [0.0] * n
        g[s_nu] = [2.0 * v for v in z[s_nu]]
        return g

    def c2_grad(z):
        g = [0.0] * n
        g[s_nu] = z[s_pi]
        g[s_pi] = z[s_nu]
        return g

    return (ScalarField(space, c1_value, c1_grad, name="C1"),
            ScalarField(space, c2_value, c2_grad, name="C2"))
