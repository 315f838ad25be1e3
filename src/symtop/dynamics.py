"""Symmetric-top Hamiltonians, potentials, and structure-monitoring integration.

Body parameters are a mass M and two inertia moments: I1 for the pair of
equal transverse axes (the symmetry that makes the circle reduction valid)
and I3 for the body axis.  In the inertial frame the full Hamiltonian reads

    H = |p|^2/(2M) + |pi|^2/(2 I1) + (1/(2 I3) - 1/(2 I1)) <nu, pi>^2 + V(x, nu)

with nu the third attitude column, while the reduced Hamiltonian drops the
<nu, pi>^2 term (it is a function of the Casimir C2 and generates no motion
on the quotient):

    h = |p|^2/(2M) + |pi|^2/(2 I1) + V(x, nu).

The chart decides which: hamiltonian_field(space, bp, potential) gives H on
CotSE3 and h on Reduced, and simulate(h, z0, ...) runs on h.space.
commutation_residual integrates both and compares the projected full
trajectory with the reduced one, which checks precisely that the dropped
term only spins the body about its own axis.

Integration is classical RK4 on the flat chart of zdot = Lambda(z) grad H(z);
the "rk4_repair" variant renormalizes nu (reduced charts) or reorthonormalizes
R (attitude charts) after each step, keeping trajectories on the constraint
manifold without a full Lie-group integrator.  Plain "rk4" is kept so the
constraint drift itself can be measured.

A step runs on Python floats: the Hamiltonian gradient, the vector field
(poisson.vector_field_floats), the stage sums and the repair work on floats,
because at chart dimension 18 or less numpy's per-call overhead costs more
than the arithmetic.  Fields and potentials take Python floats only (see
poisson.ScalarField and Potential), so no layer below step converts.
<nu, pi> in the spin term and |nu| in the repair are plain float sums; R is
repaired by algebra3's polar kernel, whose Newton update and stop test also
run on floats.  simulate carries the state from step to step as a float
list, reads the monitors off it, and builds arrays only from the samples it
keeps.  The Hamiltonian value and the monitors are fixed-order float sums
too, so no output of a run depends on the BLAS build or kernel.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence

import numpy as np

from .algebra3 import Vec3, _dot, _gram_defect, _norm, _polar, exp_so3, matvec3, norm3
from .errors import DimensionMismatch, NonFinite, TooFarFromSO3
from .phase import (
    LAYOUTS,
    FullState,
    ReducedState,
    SpaceId,
    _Frozen,
    _Record,
    _vec3,
    chart_vector,
    flatten,
)
from .poisson import ScalarField, vector_field_floats
from .poisson import ham_vector_field  # noqa: F401  (bench/tracing.py wraps both names; bench/tests checks)

Float3 = tuple[float, float, float]


class BodyParams(_Frozen):
    """Mass and inertia moments, each positive and finite; the two transverse
    moments are equal by construction, so only I1 is stored."""

    _fields = ("M", "I1", "I3")

    def __init__(self, M: float, I1: float, I3: float):
        for name, v in zip(self._fields, (M, I1, I3)):
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} = {v} must be positive and finite")
            object.__setattr__(self, name, v)


class Potential:
    """Interface for V(x, nu) with analytic gradients.

    Implementations supply value, grad_x and grad_nu, each gradient defined
    in the class's own body, because bench/tracing.py patches vars(cls).
    The gradients are the production path; finite differences only verify
    them.  All three take x and nu as float triples, tuples or lists of three
    Python floats, as the Hamiltonian passes them.  value returns a float;
    grad_x and grad_nu return a tuple of three Python floats, not an
    ndarray: wrap it in np.array before arithmetic.

    The four potentials below are also frozen value types (phase._Frozen):
    each __init__ validates its parameters and stores them once, with the
    float caches the gradients read; repr, == and hash see the parameters only.
    """

    def value(self, x: Sequence[float], nu: Sequence[float], bp: BodyParams) -> float:
        raise NotImplementedError

    def grad_x(self, x: Sequence[float], nu: Sequence[float], bp: BodyParams) -> Float3:
        raise NotImplementedError

    def grad_nu(self, x: Sequence[float], nu: Sequence[float], bp: BodyParams) -> Float3:
        raise NotImplementedError


class ZeroPotential(Potential, _Frozen):
    """V = 0: the free top."""

    def value(self, x, nu, bp):
        return 0.0

    def grad_x(self, x, nu, bp):
        return 0.0, 0.0, 0.0

    def grad_nu(self, x, nu, bp):
        return 0.0, 0.0, 0.0


class LinearGravity(Potential, _Frozen):
    """Uniform gravity on the center of mass plus an axis-alignment torque:
    V = M <g, x> + chi <nu, g/|g|>, with g nonzero of finite length and chi finite."""

    _fields = ("g", "chi")

    def __init__(self, g: Vec3, chi: float):
        g = _vec3(g, "gravity vector")
        norm = norm3(g)
        if norm == 0.0:
            raise ValueError("gravity vector must be nonzero")
        if norm == math.inf:
            raise ValueError("gravity vector length overflows to inf")
        if not math.isfinite(chi):
            raise ValueError(f"chi = {chi} must be finite")
        ghat = g / norm
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "_g", tuple(g.tolist()))
        object.__setattr__(self, "_ghat", tuple(ghat.tolist()))
        object.__setattr__(self, "_grad_nu", tuple((chi * ghat).tolist()))

    def value(self, x, nu, bp):
        x0, x1, x2 = x
        n0, n1, n2 = nu
        g0, g1, g2 = self._g
        h0, h1, h2 = self._ghat
        return bp.M * (g0 * x0 + g1 * x1 + g2 * x2) + self.chi * (h0 * n0 + h1 * n1 + h2 * n2)

    def grad_x(self, x, nu, bp):
        m = bp.M
        g0, g1, g2 = self._g
        return m * g0, m * g1, m * g2

    def grad_nu(self, x, nu, bp):
        return self._grad_nu


# |x| below which the dipole field counts as singular.  Far above the point
# where 1/|x|^7 underflows, so no division below can be by zero.
DIPOLE_MIN_RADIUS = 1e-8
_DIPOLE_MIN_R2 = DIPOLE_MIN_RADIUS**2


def _dipole_r2(x0: float, x1: float, x2: float) -> float:
    """|x|^2, or NonFinite at the singularity, for a non-finite x, or on overflow."""
    r2 = x0 * x0 + x1 * x1 + x2 * x2
    if not _DIPOLE_MIN_R2 <= r2 < math.inf:
        if r2 == math.inf and math.isfinite(x0) and math.isfinite(x1) and math.isfinite(x2):
            raise NonFinite(f"dipole potential: |x|^2 overflows to inf at x = {[x0, x1, x2]}")
        raise NonFinite(f"dipole potential singular at x = {[x0, x1, x2]} (|x|^2 = {r2:.3e})")
    return r2


class DipolePotential(Potential, _Frozen):
    """Point-dipole interaction V = -m <nu, b(x)> with the standard field
    b(x) = (3 xhat <mu, xhat> - mu) / |x|^3 of a source moment mu at the origin.

    Singular at x = 0: below DIPOLE_MIN_RADIUS, or for a non-finite x, every
    method raises NonFinite.  m and mu must be finite.  The gradients work on
    Python floats, which neither warn nor allocate per operation.
    """

    _fields = ("m", "mu")

    def __init__(self, m: float, mu: Vec3):
        if not math.isfinite(m):
            raise ValueError(f"dipole m = {m} must be finite")
        mu = _vec3(mu, "dipole mu")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "_mu", tuple(mu.tolist()))

    def _field(self, x) -> Float3:
        x0, x1, x2 = x
        u0, u1, u2 = self._mu
        r2 = _dipole_r2(x0, x1, x2)
        r3 = r2 * math.sqrt(r2)
        a = 3.0 * (u0 * x0 + u1 * x1 + u2 * x2) / r2
        return (a * x0 - u0) / r3, (a * x1 - u1) / r3, (a * x2 - u2) / r3

    def value(self, x, nu, bp):
        b0, b1, b2 = self._field(x)
        n0, n1, n2 = nu
        return -self.m * (n0 * b0 + n1 * b1 + n2 * b2)

    def grad_nu(self, x, nu, bp):
        m = self.m
        b0, b1, b2 = self._field(x)
        return -m * b0, -m * b1, -m * b2

    def grad_x(self, x, nu, bp):
        # J_b nu with the (symmetric) dipole-field Jacobian contracted analytically:
        # J_b nu = 3 (nu <mu,x> + x <mu,nu> + mu <x,nu>) / r^5 - 15 <mu,x> <x,nu> x / r^7.
        x0, x1, x2 = x
        n0, n1, n2 = nu
        u0, u1, u2 = self._mu
        r2 = _dipole_r2(x0, x1, x2)
        r5 = r2 * r2 * math.sqrt(r2)
        mx = u0 * x0 + u1 * x1 + u2 * x2
        mn = u0 * n0 + u1 * n1 + u2 * n2
        xn = x0 * n0 + x1 * n1 + x2 * n2
        a = -3.0 * self.m / r5
        c = 15.0 * self.m * mx * xn / (r5 * r2)
        return (
            a * (n0 * mx + x0 * mn + u0 * xn) + c * x0,
            a * (n1 * mx + x1 * mn + u1 * xn) + c * x1,
            a * (n2 * mx + x2 * mn + u2 * xn) + c * x2,
        )


class SumPotential(Potential, _Frozen):
    """V = the sum of the terms' values, added in order; at least one term."""

    _fields = ("terms",)

    def __init__(self, terms: tuple[Potential, ...]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("SumPotential needs at least one term")
        object.__setattr__(self, "terms", terms)

    def value(self, x, nu, bp):
        v = 0.0  # a loop, not sum(): Python 3.12's sum of floats compensates
        for t in self.terms:
            v += t.value(x, nu, bp)
        return v

    def grad_x(self, x, nu, bp):
        return _sum3(t.grad_x(x, nu, bp) for t in self.terms)

    def grad_nu(self, x, nu, bp):
        return _sum3(t.grad_nu(x, nu, bp) for t in self.terms)


def _sum3(triples: Iterable[Float3]) -> Float3:
    """Componentwise sum of float triples, added in order into three floats.

    The sum starts from the first triple, not from 0.0, which would turn a
    -0.0 into 0.0; a generator argument builds no list per call."""
    it = iter(triples)
    s0, s1, s2 = next(it)
    for a0, a1, a2 in it:
        s0 += a0
        s1 += a1
        s2 += a2
    return s0, s1, s2


def spin_coefficient(bp: BodyParams) -> float:
    """Coefficient of <nu, pi>^2 in the full Hamiltonian: 1/(2 I3) - 1/(2 I1)."""
    return 0.5 / bp.I3 - 0.5 / bp.I1


def hamiltonian_field(space: SpaceId, bp: BodyParams, potential: Potential) -> ScalarField:
    """The chart's Hamiltonian |p|^2/(2M) + |pi|^2/(2 I1) + kappa <nu, pi>^2 + V(x, nu)
    as a field with analytic gradient, nu read through Layout.axis.

    The chart decides kappa and the name: H with kappa = spin_coefficient(bp)
    on CotSE3, the chart with R (which enters only through its third column),
    and h with kappa = 0 on Reduced.  CotSO3 and Se3Dual have no x or p block
    (DimensionMismatch).  The spin term is evaluated only for nonzero kappa.

    The value and the gradient take z as a float list and read x, p, nu, pi
    as twelve floats with one itemgetter over Layout.reduced;
    the value sums each square and <nu, pi> left to right.  The gradient
    returns a float tuple placed by a second itemgetter, the first's inverse.
    Entries outside those blocks (the first two columns of R) are 0.0.
    """
    lay = LAYOUTS[space]
    if lay.x is None:
        raise DimensionMismatch(f"{space.value} chart has no x or p block; a Hamiltonian lives on CotSE3 or Reduced")
    kappa, name = (spin_coefficient(bp), "H") if lay.r is not None else (0.0, "h")
    take = operator.itemgetter(*lay.reduced)
    slot = [len(lay.reduced)] * lay.dim  # the trailing 0.0 of the values below
    for k, a in enumerate(lay.reduced):
        slot[a] = k
    place = operator.itemgetter(*slot)
    m, i1 = bp.M, bp.I1

    def value(z):
        x0, x1, x2, p0, p1, p2, n0, n1, n2, q0, q1, q2 = take(z)
        v = (p0 * p0 + p1 * p1 + p2 * p2) / (2.0 * m) + (q0 * q0 + q1 * q1 + q2 * q2) / (2.0 * i1)
        if kappa:
            c = n0 * q0 + n1 * q1 + n2 * q2
            v += kappa * (c * c)  # float ** raises on overflow; * gives inf
        return v + potential.value((x0, x1, x2), (n0, n1, n2), bp)

    def grad(z):
        x0, x1, x2, p0, p1, p2, n0, n1, n2, q0, q1, q2 = take(z)
        x, nu = (x0, x1, x2), (n0, n1, n2)
        gx0, gx1, gx2 = potential.grad_x(x, nu, bp)
        gn0, gn1, gn2 = potential.grad_nu(x, nu, bp)
        gq0, gq1, gq2 = q0 / i1, q1 / i1, q2 / i1
        if kappa:
            spin = 2.0 * kappa * (n0 * q0 + n1 * q1 + n2 * q2)
            gn0, gn1, gn2 = gn0 + spin * q0, gn1 + spin * q1, gn2 + spin * q2
            gq0, gq1, gq2 = gq0 + spin * n0, gq1 + spin * n1, gq2 + spin * n2
        return place((gx0, gx1, gx2, p0 / m, p1 / m, p2 / m, gn0, gn1, gn2, gq0, gq1, gq2, 0.0))

    return ScalarField(space, value, grad, name=name)


METHODS = ("rk4", "rk4_repair")

# Relative tolerance within which a horizon T must be a whole number of steps dt.
HORIZON_TOL = 1e-9


def step_count(T: float, dt: float) -> int:
    """Number of steps dt that make up the horizon T.

    Raises ValueError unless T and dt are positive and T is a whole number
    of steps within HORIZON_TOL * T, so a run ends exactly at T.
    """
    if not T > 0.0:
        raise ValueError(f"T = {T!r} must be positive")
    if not dt > 0.0:
        raise ValueError(f"dt = {dt!r} must be positive")
    steps = T / dt
    if not math.isfinite(steps) or abs(round(steps) * dt - T) > HORIZON_TOL * T:
        raise ValueError(f"T = {T!r} is not a whole number of steps dt = {dt!r}")
    return round(steps)


def _repair(space: SpaceId, z: list[float]) -> list[float]:
    """Put a step's result back on the constraint set, in place: nu scaled to
    unit length, R replaced by its nearest rotation."""
    lay = LAYOUTS[space]
    if lay.nu is not None:
        n0, n1, n2 = z[lay.nu]
        norm = _norm(n0, n1, n2)
        if norm == 0.0:
            raise NonFinite("nu has zero length; it cannot be renormalized")
        z[lay.nu] = n0 / norm, n1 / norm, n2 / norm
    if lay.r is not None:
        z[lay.r] = _polar(z[lay.r])
    return z


def step(
    space: SpaceId,
    h: ScalarField,
    z: np.ndarray | list[float],
    dt: float,
    method: str = "rk4_repair",
) -> np.ndarray | list[float]:
    """One RK4 step of zdot = Lambda(z) grad h(z), optionally constraint-repaired.

    z is a float list of the chart's length, which gives a float list back,
    or an array, which is read with one tolist() and gives an array back.
    The stage sums keep the order of z + (dt/6) (((k1 + 2 k2) + 2 k3) + k4).
    h must live on space (DimensionMismatch).
    """
    if h.space is not space:
        raise DimensionMismatch(f"Hamiltonian lives on {h.space.value}, not {space.value}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not dt > 0.0:
        raise ValueError(f"dt = {dt} must be positive")
    as_list = isinstance(z, list)
    if as_list and len(z) != LAYOUTS[space].dim:
        raise DimensionMismatch(f"{space.value} chart has dim {LAYOUTS[space].dim}, got {len(z)} floats")
    z = z if as_list else chart_vector(space, z).tolist()
    half = 0.5 * dt
    k1 = vector_field_floats(space, z, h.grad(z))
    z2 = [a + half * b for a, b in zip(z, k1)]
    k2 = vector_field_floats(space, z2, h.grad(z2))
    z3 = [a + half * b for a, b in zip(z, k2)]
    k3 = vector_field_floats(space, z3, h.grad(z3))
    z4 = [a + dt * b for a, b in zip(z, k3)]
    k4 = vector_field_floats(space, z4, h.grad(z4))
    sixth = dt / 6.0
    z1 = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4) for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]
    if method == "rk4_repair":
        z1 = _repair(space, z1)
    if not all(map(math.isfinite, z1)):
        raise NonFinite("integration step produced a non-finite state")
    return z1 if as_list else np.array(z1)


class Trajectory(_Record):
    """Sampled trajectory with per-sample invariant monitors; z has shape
    (n_samples, chart dim)."""

    _fields = ("space", "t", "z", "energy", "c1", "c2", "ortho_defect")

    def __init__(self, space: SpaceId, t: np.ndarray, z: np.ndarray, energy: np.ndarray,
                 c1: np.ndarray, c2: np.ndarray, ortho_defect: np.ndarray):
        self.space = space
        self.t = t
        self.z = z
        self.energy = energy
        self.c1 = c1
        self.c2 = c2
        self.ortho_defect = ortho_defect

    def __len__(self) -> int:
        return self.t.size


def _monitors(space: SpaceId, h: ScalarField, z: list[float]) -> tuple[float, float, float, float]:
    """Energy, C1 = |nu|^2, C2 = <nu, pi> and the orthogonality defect of the float
    list z, the Casimirs summed left to right; NonFinite unless all are finite."""
    lay = LAYOUTS[space]
    nu = z[lay.axis]
    defect = _gram_defect(*z[lay.r]) if lay.r is not None else 0.0
    mons = h.value(z), _dot(nu, nu), _dot(nu, z[lay.pi]), defect
    if not all(map(math.isfinite, mons)):
        raise NonFinite(f"non-finite monitor (energy, C1, C2, ortho defect) = {mons}")
    return mons


def simulate(
    h: ScalarField,
    z0: np.ndarray,
    dt: float,
    T: float,
    method: str = "rk4_repair",
    sample_stride: int = 1,
) -> Trajectory:
    """Integrate on h.space from t = 0 to T, recording every sample_stride-th
    step (plus the endpoint) with energy/Casimir/orthogonality monitors.

    T must be a whole number of steps dt (see step_count), sample_stride an
    integer of at least 1 (ValueError) and z0 of the chart's shape
    (DimensionMismatch).  A NonFinite failure (a non-finite state or monitor,
    or a singular potential), or a TooFarFromSO3 from a step too large for
    the repair, is re-raised naming the step that failed and the time it was
    to reach (step 0: the initial state's monitors).
    """
    n_steps = step_count(T, dt)
    try:
        stride = operator.index(sample_stride)
    except TypeError:
        stride = 0
    if stride < 1:
        raise ValueError(f"sample_stride = {sample_stride!r} must be an integer >= 1")
    space = h.space
    z = chart_vector(space, z0).tolist()
    ts, zs, mons = [0.0], [z], []
    k = 0
    try:
        mons.append(_monitors(space, h, z))
        for k in range(1, n_steps + 1):
            # step by module name, space and method positional: bench/tracing.py names spans from them
            z = step(space, h, z, dt, method)
            if k % stride == 0 or k == n_steps:
                ts.append(k * dt)
                zs.append(z)
                mons.append(_monitors(space, h, z))
    except (NonFinite, TooFarFromSO3) as e:
        raise type(e)(f"step {k} of {n_steps} (t = {k * dt:.6g}): {e}") from e
    m = np.array(mons)
    return Trajectory(
        space=space,
        t=np.array(ts),
        z=np.array(zs),
        energy=m[:, 0],
        c1=m[:, 1],
        c2=m[:, 2],
        ortho_defect=m[:, 3],
    )


def free_top_analytic(s0: ReducedState, t: float, bp: BodyParams) -> ReducedState:
    """Closed-form free motion (V = 0): straight-line translation, constant pi,
    and nu precessing about pi at angular rate |pi| / I1.

    The rotation direction follows from the reduced bracket table:
    nudot = (pi / I1) x nu, so nu(t) = exp_so3(t pi0 / I1) nu0.
    """
    return ReducedState(
        x=s0.x + t * s0.p / bp.M,
        p=s0.p,
        nu=matvec3(exp_so3((t / bp.I1) * s0.pi), s0.nu),
        pi=s0.pi,
    )


def commutation_residual(
    z0: FullState,
    bp: BodyParams,
    potential: Potential,
    dt: float,
    T: float,
    method: str = "rk4_repair",
    sample_stride: int = 1,
) -> float:
    """Max over samples of |project(full trajectory) - reduced trajectory|_inf.

    Both sides integrate with identical dt and method; the full side carries
    the <nu, pi>^2 spin term, the reduced side does not, so a small residual
    certifies that dynamics commutes with projection and that the dropped
    term generates no reduced motion.  The start and every sample are
    projected by the same selection, the CotSE3 chart's Layout.reduced.
    """
    sel = list(LAYOUTS[SpaceId.CotSE3].reduced)
    z = flatten(z0, SpaceId.CotSE3)
    run = (dt, T, method, sample_stride)
    full = simulate(hamiltonian_field(SpaceId.CotSE3, bp, potential), z, *run)
    red = simulate(hamiltonian_field(SpaceId.Reduced, bp, potential), z[sel], *run)
    with np.errstate(over="ignore"):
        return float(np.abs(full.z[:, sel] - red.z).max())
