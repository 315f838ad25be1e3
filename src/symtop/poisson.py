"""Poisson brackets as point-dependent antisymmetric structure matrices.

Each of the four charts carries a bracket table in which every coordinate
bracket {z_a, z_b} is an affine function of the chart vector z.  The whole
structure is therefore encoded once per space as a constant part and a
linear part,

    Lambda(z)[a, b] = LAM0[a, b] + LIN[a, b, c] z[c],

with LIN[a, b, :] the exact gradient of the (a, b) entry.  That encoding
drives bracket evaluation and the Jacobi residual with no symbolic algebra
and no finite differencing, and it is the certificate the Hamiltonian
vector field is checked against.

structure_matrix forms LIN z as one matrix-vector product over the (n*n, n)
view of LIN.  Each entry is affine in at most one coordinate, with a +-1
coefficient, so every sum is one exact product plus exact zeros and the
result does not depend on the order BLAS sums in.

Bracket families (all unlisted brackets vanish):

    {x_i, p_j}  = delta_ij       translational block (CotSE3, Reduced)
    {pi_i, v_j} = eps_ijl v_l    v = pi (all spaces), nu (Se3Dual, Reduced)
                                 or each column of R (CotSO3, CotSE3)
    {nu_i, nu_j} = 0, {R_ij, R_kl} = 0

One eps rule covers pi, nu and the columns of R: _build_tensors writes it once
over pi and the (start, stride) blocks of Layout.vectors.  Each R column is
coupled separately, so a third-column entry brackets with third-column entries
only; nu = tau(R) is that column, which is why the projection is Poisson.  The
tensors and the other per-chart tables below are built at import.

Sign convention: trajectories follow zdot_a = Lambda_ab dH/dz_b, so the
translational block yields the standard xdot = dH/dp, pdot = -dH/dx.

Because the table is this sparse, vector_field_floats evaluates Lambda(z) grad H
in closed form rather than by forming Lambda(z).  With v standing for nu or
for each column of R,

    xdot = dH/dp,   pdot = -dH/dx,   vdot = dH/dpi x v,
    pidot = dH/dpi x pi + sum_v dH/dv x v.

The integrator calls it on Python floats at every RK4 stage, and
ham_vector_field is its ndarray form; the tensors stay the independent
reference both are tested against.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .phase import LAYOUTS, SpaceId, _Record, chart_vector, dim


def _build_tensors(space: SpaceId) -> tuple[np.ndarray, np.ndarray]:
    lay = LAYOUTS[space]
    n = lay.dim
    lam0 = np.zeros((n, n))
    lin = np.zeros((n, n, n))

    if lay.x is not None:
        for i in range(3):
            lam0[lay.x.start + i, lay.p.start + i] = 1.0
            lam0[lay.p.start + i, lay.x.start + i] = -1.0

    # {pi_i, v_j} = eps_ijl v_l for v = pi and for each block of lay.vectors,
    # v_j at chart entry a + d*j.  For cyclic (i, j, l), {pi_i, v_j} = v_l and
    # {pi_i, v_l} = -v_j; each entry is written in both orders.
    s = lay.pi.start
    for a, d in ((s, 1), *lay.vectors):
        for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            for b, c, e in ((a + d * j, a + d * l, 1.0), (a + d * l, a + d * j, -1.0)):
                lin[s + i, b, c] = e
                lin[b, s + i, c] = -e

    lam0.flags.writeable = lin.flags.writeable = False
    return lam0, lin


_TENSORS = {space: _build_tensors(space) for space in SpaceId}


def structure_tensors(space: SpaceId) -> tuple[np.ndarray, np.ndarray]:
    """Constant and linear parts of Lambda, built at import as read-only arrays."""
    return _TENSORS[space]


def structure_matrix(space: SpaceId, z: np.ndarray) -> np.ndarray:
    """Antisymmetric matrix of coordinate brackets Lambda(z)[a,b] = {z_a, z_b}(z)."""
    z = chart_vector(space, z)
    lam0, lin = structure_tensors(space)
    n = z.shape[0]
    return lam0 + (lin.reshape(n * n, n) @ z).reshape(n, n)


# Step of fd_gradient's central differences.
FD_STEP = 1e-6


def fd_gradient(f: Callable[[list[float]], float], z: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient with step FD_STEP; verification
    oracle only.  f is called on a list of Python floats, the form every
    ScalarField.value and Potential.value accepts."""
    w = np.asarray(z, dtype=float).tolist()  # each entry is perturbed, then restored
    g = []
    for a in range(len(w)):
        za = w[a]
        w[a] = za + FD_STEP
        fp = f(w)
        w[a] = za - FD_STEP
        fm = f(w)
        w[a] = za
        g.append((fp - fm) / (2.0 * FD_STEP))
    return np.array(g, dtype=float)


class ScalarField(_Record):
    """Function on a chart together with its closed-form gradient.

    Every field supplies its own gradient; fd_gradient only checks them.
    value and grad take the chart point as a list of Python floats: value
    returns a float, grad a list or tuple of floats of the chart's length.
    The RK4 step, simulate's monitors and bracket call them so.  f(z) and
    f.gradient(z) are the only array entry: they raise DimensionMismatch
    unless z has the chart's shape, and return a float and an ndarray.
    """

    _fields = ("space", "value", "grad", "name")

    def __init__(self, space: SpaceId, value: Callable[[list[float]], float],
                 grad: Callable[[list[float]], Sequence[float]], name: str = ""):
        self.space = space
        self.value = value
        self.grad = grad
        self.name = name

    def __call__(self, z: np.ndarray) -> float:
        return float(self.value(chart_vector(self.space, z).tolist()))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return np.array(self.grad(chart_vector(self.space, z).tolist()), dtype=float)


def _same_space(f: ScalarField, g: ScalarField) -> None:
    if f.space is not g.space:
        raise DimensionMismatch(f"fields live on {f.space.value} and {g.space.value}")


def coordinate(space: SpaceId, a: int) -> ScalarField:
    """The a-th chart coordinate as a ScalarField (exact unit gradient)."""
    n = dim(space)
    if not 0 <= a < n:
        raise DimensionMismatch(f"coordinate index {a} out of range for dim {n}")
    e = [0.0] * n
    e[a] = 1.0
    return ScalarField(space, lambda z, a=a: z[a], lambda z, e=e: list(e),
                       name=LAYOUTS[space].names[a])


def dot_floats(a: Sequence[float], b: Sequence[float]) -> float:
    """a . b of two float sequences of one length, summed left to right."""
    if len(a) != len(b):  # not zip(strict=True): its keyword costs about 0.2 us a call
        raise ValueError(f"dot product of {len(a)} and {len(b)} entries")
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def random_polynomial(space: SpaceId, rng: np.random.Generator, scale: float = 0.5) -> ScalarField:
    """Random quadratic c + a . z + z . Q z / 2 with exact gradient a + Q z,
    for property tests; every dot product is a left-to-right float sum."""
    n = dim(space)
    c = rng.uniform(-scale, scale)
    a = rng.uniform(-scale, scale, n)
    q = rng.uniform(-scale, scale, (n, n))
    a, q = a.tolist(), (0.5 * (q + q.T)).tolist()

    def qz(z):
        return [dot_floats(row, z) for row in q]

    def value(z):
        return c + dot_floats(a, z) + 0.5 * dot_floats(z, qz(z))

    return ScalarField(space, value, lambda z: [x + y for x, y in zip(a, qz(z))], name="poly")


def bracket(f: ScalarField, g: ScalarField, z: np.ndarray) -> float:
    """{F, G}(z) = grad F . (Lambda(z) grad G), each dot product a
    left-to-right float sum; both gradients are taken on one float list of z."""
    _same_space(f, g)
    z = chart_vector(f.space, z)
    w = z.tolist()
    lam = structure_matrix(f.space, z).tolist()
    dg = g.grad(w)
    return dot_floats(f.grad(w), [dot_floats(row, dg) for row in lam])


# Per chart: (dim, x start, p start, pi start, Layout.vectors).
_FIELD_TABLES = {
    space: (lay.dim, lay.x and lay.x.start, lay.p and lay.p.start, lay.pi.start, lay.vectors)
    for space, lay in LAYOUTS.items()
}


def vector_field_floats(space: SpaceId, z: list[float], g: Sequence[float]) -> list[float]:
    """Chart tangent vector zdot_a = Lambda(z)_ab g_b in closed form, with z and
    the gradient g = dH/dz at z given as sequences of Python floats.
    DimensionMismatch unless g has the chart's length.

    At chart dimension 18 or less, per-call numpy overhead would cost more
    than the arithmetic, so the RK4 step stays on floats and calls this
    directly; ham_vector_field is its ndarray form.
    """
    n, x0, p0, s, vectors = _FIELD_TABLES[space]
    if len(g) != n:
        raise DimensionMismatch(f"gradient has {len(g)} entries, {space.value} chart {n}")
    out = [0.0] * n
    w0, w1, w2 = g[s], g[s + 1], g[s + 2]
    q0, q1, q2 = z[s], z[s + 1], z[s + 2]
    # pidot = w x pi + sum over vector blocks v of dH/dv x v, with w = dH/dpi
    t0 = w1 * q2 - w2 * q1
    t1 = w2 * q0 - w0 * q2
    t2 = w0 * q1 - w1 * q0
    for a, d in vectors:
        b, c = a + d, a + 2 * d
        v0, v1, v2 = z[a], z[b], z[c]
        u0, u1, u2 = g[a], g[b], g[c]
        out[a] = w1 * v2 - w2 * v1
        out[b] = w2 * v0 - w0 * v2
        out[c] = w0 * v1 - w1 * v0
        t0 += u1 * v2 - u2 * v1
        t1 += u2 * v0 - u0 * v2
        t2 += u0 * v1 - u1 * v0
    out[s], out[s + 1], out[s + 2] = t0, t1, t2
    if x0 is not None:
        out[x0:x0 + 3] = g[p0:p0 + 3]
        out[p0], out[p0 + 1], out[p0 + 2] = -g[x0], -g[x0 + 1], -g[x0 + 2]
    return out


def ham_vector_field(h: ScalarField, z: np.ndarray) -> np.ndarray:
    """Chart tangent vector zdot_a = Lambda(z)_ab dH/dz_b, in closed form
    (vector_field_floats on ndarrays)."""
    z = chart_vector(h.space, z).tolist()
    return np.array(vector_field_floats(h.space, z, h.grad(z)))


def jacobi_residual_all(space: SpaceId, z: np.ndarray) -> np.ndarray:
    """Cyclic sum {z_a,{z_b,z_c}} + {z_b,{z_c,z_a}} + {z_c,{z_a,z_b}} over
    every index triple at once.

    Coordinate brackets are affine in z, so the gradient of {z_b, z_c} is the
    exact row LIN[b, c] and T[a, b, c] = {z_a, {z_b, z_c}} = sum_d Lambda[a, d]
    LIN[b, c, d]; no differencing enters.  T is one matrix product with the
    (n*n, n) view of LIN.  Each LIN[b, c, :] has at most one nonzero entry,
    +-1, so every sum is one exact product plus exact zeros and the result
    does not depend on the order BLAS sums in.
    """
    lam = structure_matrix(space, z)
    _, lin = structure_tensors(space)
    n = lam.shape[0]
    t = (lam @ lin.reshape(n * n, n).T).reshape(n, n, n)
    return t + np.transpose(t, (1, 2, 0)) + np.transpose(t, (2, 0, 1))
