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

from dataclasses import dataclass

import numpy as np

from .algebra3 import ADMISSION_TOL, Mat3, Vec3, cross, max_or_nan, require_rotation, rotation_aligning
from .errors import NotSameLevel, NotTangent, NotUnit, ZeroNu
from .phase import LAYOUTS, Se3DualPoint, SpaceId, _vec3
from .poisson import ScalarField


# Default level-match tolerance of same_orbit_witness; c1 at or below it
# counts as nu = 0.
WITNESS_TOL = 1e-9


@dataclass(frozen=True)
class SE3Element:
    """Euclidean motion (a, A): rotation A followed by translation a."""

    a: Vec3
    A: Mat3

    def __post_init__(self):
        object.__setattr__(self, "a", _vec3(self.a, "a"))
        object.__setattr__(self, "A", require_rotation(self.A))

    def compose(self, other: "SE3Element") -> "SE3Element":
        """Group product (a1, A1)(a2, A2) = (a1 + A1 a2, A1 A2)."""
        return SE3Element(a=self.a + self.A @ other.a, A=self.A @ other.A)


@dataclass(frozen=True)
class OrbitLevel:
    """Joint Casimir level (c1, c2); c1 > 0 on the orbits used here."""

    c1: float
    c2: float

    def __post_init__(self):
        if self.c1 < 0.0:
            raise ValueError(f"c1 = {self.c1} must be nonnegative")


def casimirs(q: Se3DualPoint) -> OrbitLevel:
    """(|nu|^2, <nu, pi>)."""
    return OrbitLevel(c1=float(q.nu.dot(q.nu)), c2=float(q.nu.dot(q.pi)))


def coadjoint(g: SE3Element, q: Se3DualPoint) -> Se3DualPoint:
    """(nu, pi) -> (A nu, a x A nu + A pi)."""
    anu = g.A.dot(q.nu)
    return Se3DualPoint(nu=anu, pi=cross(g.a, anu) + g.A.dot(q.pi))


def on_level(q: Se3DualPoint, level: OrbitLevel, tol: float) -> bool:
    """True iff both Casimirs of q match the level within tol."""
    c = casimirs(q)
    return abs(c.c1 - level.c1) <= tol and abs(c.c2 - level.c2) <= tol


def same_orbit_witness(
    q1: Se3DualPoint, q2: Se3DualPoint, tol: float = WITNESS_TOL
) -> SE3Element:
    """Group element (a, A) with coadjoint((a, A), q1) = q2.

    Requires the two points to share a Casimir level with c1 > 0.  A is any
    rotation taking nu1 to nu2 (half-turn fallback for antipodal axes); the
    translation is then forced:  a = nu2 x (pi2 - A pi1) / c1, which solves
    a x nu2 = pi2 - A pi1 because the right side is orthogonal to nu2 on a
    common level.
    """
    l1 = casimirs(q1)
    if not on_level(q2, l1, tol):
        l2 = casimirs(q2)
        raise NotSameLevel(
            f"levels ({l1.c1:.6g}, {l1.c2:.6g}) and ({l2.c1:.6g}, {l2.c2:.6g}) differ beyond {tol:.1e}"
        )
    if l1.c1 <= tol:
        raise ZeroNu(f"c1 = {l1.c1:.3e} too small for an orbit witness")
    rot = rotation_aligning(q1.nu, q2.nu)
    d = q2.pi - rot.dot(q1.pi)
    a = cross(q2.nu, d) / l1.c1
    return SE3Element(a=a, A=rot)


def witness_residual(g: SE3Element, q1: Se3DualPoint, q2: Se3DualPoint) -> float:
    """max-norm error of coadjoint(g, q1) against q2."""
    image = coadjoint(g, q1)
    got = image.nu.tolist() + image.pi.tolist()
    want = q2.nu.tolist() + q2.pi.tolist()
    return max_or_nan([abs(x - y) for x, y in zip(got, want)])


def magnetic_form(nu: Vec3, u: Vec3, v: Vec3, c2: float) -> float:
    """Magnetic area term of the orbit symplectic form at nu on tangents u, v.

    With representatives xi = nu x u, eta = nu x v (so that xi x nu = u and
    eta x nu = v), returns -c2 <xi x eta, nu>; by a vector identity this
    equals -c2 <nu, u x v>.  nu must be a unit vector and u, v tangent to
    the sphere at nu, both within ADMISSION_TOL.
    """
    nu = np.asarray(nu, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    unit_defect = abs(float(nu @ nu) - 1.0)
    if unit_defect > ADMISSION_TOL:
        raise NotUnit(f"|nu|^2 - 1 = {unit_defect:.3e} exceeds {ADMISSION_TOL:.1e}")
    for w, label in ((u, "u"), (v, "v")):
        t = abs(float(w @ nu))
        if t > ADMISSION_TOL:
            raise NotTangent(f"<{label}, nu> = {t:.3e} exceeds {ADMISSION_TOL:.1e}")
    xi = cross(nu, u)
    eta = cross(nu, v)
    return -float(c2) * float(cross(xi, eta) @ nu)


def casimir_fields(space: SpaceId) -> tuple[ScalarField, ScalarField]:
    """C1 and C2 as chart fields with exact gradients (Se3Dual or Reduced)."""
    lay = LAYOUTS[space]
    if lay.nu is None:
        raise ValueError(f"{space.value} has no nu block; Casimirs live downstairs")
    s_nu, s_pi, n = lay.nu, lay.pi, lay.dim

    # z may be an ndarray or a float list, as ScalarField allows.
    def c1_grad(z, s_nu=s_nu, n=n):
        g = np.zeros(n)
        g[s_nu] = z[s_nu]
        return 2.0 * g

    def c2_grad(z, s_nu=s_nu, s_pi=s_pi, n=n):
        g = np.zeros(n)
        g[s_nu] = z[s_pi]
        g[s_pi] = z[s_nu]
        return g

    c1 = ScalarField(space, lambda z: float(z[s_nu].dot(z[s_nu])), c1_grad, name="C1")
    c2 = ScalarField(space, lambda z: float(z[s_nu].dot(z[s_pi])), c2_grad, name="C2")
    return c1, c2
