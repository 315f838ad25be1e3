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
tensors are built at import.

Sign convention: trajectories follow zdot_a = Lambda_ab dH/dz_b, so the
translational block yields the standard xdot = dH/dp, pdot = -dH/dx.

Because the table is this sparse, vector_field_floats evaluates Lambda(z) grad H
in closed form rather than by forming Lambda(z).  With v standing for nu or
for each column of R,

    xdot = dH/dp,   pdot = -dH/dx,   vdot = dH/dpi x v,
    pidot = dH/dpi x pi + sum_v dH/dv x v.

The two written-out kernels, those of CotSE3 and Reduced, work by hand on
Python floats, and the integrator calls them at every RK4 stage;
ham_vector_field is their ndarray form.  T*SE(3) is T*R^3 x T*SO(3) and the
reduced space T*R^3 x se(3)*, so the CotSO3 and Se3Dual fields are the
rotational rows of those two kernels at x = p = 0: each is called with six
leading zeros, which its rotational rows never read.  The tensors do not
read the kernels, so they certify them exactly: the field is affine in z
and linear in g, and the tests compare every chart's field with
structure_matrix(space, z) @ g at z = 0 and each unit z, for each unit g,
with ==.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .phase import LAYOUTS, SpaceId, _Record, _uniform, chart_vector, dim


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
    c = _uniform(rng, -scale, scale)
    a = _uniform(rng, -scale, scale, n)
    q = rng.uniform(-scale, scale, (n, n))  # n * n draws: cheaper symmetrized as one array
    q = (0.5 * (q + q.T)).tolist()

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


# The two kernels with an x and p block: zdot = Lambda(z) g written out, z and g
# each unpacked in one statement (q = pi, v = nu, rjk = R_jk; w, u, ajk, gx, gp
# the entries of g at pi, nu, R_jk, x, p).  Every sum keeps the order of the
# rule above: pidot starts from w x pi and adds dH/dv x v for nu, or for R's
# columns 0, 1, 2.
def _cotse3(z, g):
    _, _, _, _, _, _, r00, r01, r02, r10, r11, r12, r20, r21, r22, q0, q1, q2 = z
    gx0, gx1, gx2, gp0, gp1, gp2, a00, a01, a02, a10, a11, a12, a20, a21, a22, w0, w1, w2 = g
    return [
        gp0, gp1, gp2, -gx0, -gx1, -gx2,
        w1 * r20 - w2 * r10, w1 * r21 - w2 * r11, w1 * r22 - w2 * r12,
        w2 * r00 - w0 * r20, w2 * r01 - w0 * r21, w2 * r02 - w0 * r22,
        w0 * r10 - w1 * r00, w0 * r11 - w1 * r01, w0 * r12 - w1 * r02,
        w1 * q2 - w2 * q1 + (a10 * r20 - a20 * r10) + (a11 * r21 - a21 * r11) + (a12 * r22 - a22 * r12),
        w2 * q0 - w0 * q2 + (a20 * r00 - a00 * r20) + (a21 * r01 - a01 * r21) + (a22 * r02 - a02 * r22),
        w0 * q1 - w1 * q0 + (a00 * r10 - a10 * r00) + (a01 * r11 - a11 * r01) + (a02 * r12 - a12 * r02),
    ]


def _reduced(z, g):
    _, _, _, _, _, _, v0, v1, v2, q0, q1, q2 = z
    gx0, gx1, gx2, gp0, gp1, gp2, u0, u1, u2, w0, w1, w2 = g
    return [
        gp0, gp1, gp2, -gx0, -gx1, -gx2,
        w1 * v2 - w2 * v1, w2 * v0 - w0 * v2, w0 * v1 - w1 * v0,
        w1 * q2 - w2 * q1 + (u1 * v2 - u2 * v1),
        w2 * q0 - w0 * q2 + (u2 * v0 - u0 * v2),
        w0 * q1 - w1 * q0 + (u0 * v1 - u1 * v0),
    ]


def _rotational(kernel):
    """The kernel of CotSO3 or Se3Dual from that of CotSE3 or Reduced: their
    rotational rows at x = p = 0, which read no x, p, gx or gp entry, so every
    bit is the one a written-out kernel would give."""
    return lambda z, g: kernel((0.0,) * 6 + tuple(z), (0.0,) * 6 + tuple(g))[6:]


_KERNELS = {SpaceId.CotSO3: _rotational(_cotse3), SpaceId.Se3Dual: _rotational(_reduced),
            SpaceId.CotSE3: _cotse3, SpaceId.Reduced: _reduced}


def vector_field_floats(space: SpaceId, z: Sequence[float], g: Sequence[float]) -> list[float]:
    """Chart tangent vector zdot_a = Lambda(z)_ab g_b in closed form, with z and
    the gradient g = dH/dz at z given as sequences of Python floats.
    DimensionMismatch unless z and g both have the chart's length.

    At chart dimension 18 or less, per-call numpy overhead would cost more
    than the arithmetic, so the RK4 step stays on floats and calls this
    directly; ham_vector_field is its ndarray form.
    """
    try:
        return _KERNELS[space](z, g)
    except ValueError:  # a kernel's unpack of z or g, the only ValueError it raises
        n = LAYOUTS[space].dim
        raise DimensionMismatch(f"{space.value} chart has dim {n}; z has {len(z)} entries, "
                                f"the gradient {len(g)}") from None


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
