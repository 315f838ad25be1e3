"""Exact proofs of the affine bracket identities.

Every coordinate bracket is affine in z with integer coefficients,
Lambda(z) = LAM0 + LIN z, each entry 0 or ±1.  Antisymmetry, the Jacobi
identity, the Poisson-map property of both projections and the Casimirs'
annihilation are then polynomial identities with integer coefficients, and
int64 contractions of the tensors prove them for every z in R^n, where the
check suites sample them at 100-250 points (Marsden & Ratiu, Introduction to
Mechanics and Symmetry, ch. 10; Weinstein 1983).

The tensors and projections are read at call time through
poisson.structure_tensors and reduction.chart_projection, so a defect that
tests/test_mutations.py plants there reaches these proofs.
"""

import numpy as np
import pytest

from symtop import poisson, reduction
from symtop.phase import LAYOUTS, SpaceId

CHARTS = list(SpaceId)
PROJECTIONS = [SpaceId.Reduced, SpaceId.Se3Dual]  # the reduced side of each
CASIMIR_CHARTS = [SpaceId.Se3Dual, SpaceId.Reduced]


def _integer(a: np.ndarray) -> np.ndarray:
    """a as int64; every entry must be an integer already."""
    b = np.asarray(a).astype(np.int64)
    assert np.array_equal(b, a), "a bracket coefficient is not an integer"
    return b


def tensors(space):
    lam0, lin = poisson.structure_tensors(space)
    return _integer(lam0), _integer(lin)


def _cyclic(t: np.ndarray) -> np.ndarray:
    """t[a,b,c,...] + t[b,c,a,...] + t[c,a,b,...] over the first three axes."""
    rest = tuple(range(3, t.ndim))
    return t + t.transpose(1, 2, 0, *rest) + t.transpose(2, 0, 1, *rest)


def antisymmetry_defect(space) -> int:
    """max |LAM0 + LAM0^T| and |LIN[a,b,e] + LIN[b,a,e]|."""
    lam0, lin = tensors(space)
    return int(max(np.abs(lam0 + lam0.T).max(), np.abs(lin + lin.transpose(1, 0, 2)).max()))


def jacobi_defects(space) -> tuple[int, int]:
    """The constant and the linear part of the cyclic sum of {z_a, {z_b, z_c}}.

    {z_a, Lambda_bc} = sum_d Lambda_ad LIN[b,c,d]: its constant part is
    sum_d LAM0[a,d] LIN[b,c,d] (the 2-cocycle condition on LAM0), and the
    coefficient of z_e is sum_d LIN[a,d,e] LIN[b,c,d] (the Lie algebra's
    Jacobi identity).
    """
    lam0, lin = tensors(space)
    const = _cyclic(np.einsum("ad,bcd->abc", lam0, lin))
    linear = _cyclic(np.einsum("ade,bcd->abce", lin, lin))
    return int(np.abs(const).max()), int(np.abs(linear).max())


def poisson_map_defects(reduced_space) -> tuple[int, int]:
    """The constant and the linear part of P Lambda_src(z) P^T - Lambda_dst(P z)."""
    src, p = reduction.chart_projection(reduced_space)
    p = _integer(p)
    lam0_s, lin_s = tensors(src)
    lam0_d, lin_d = tensors(reduced_space)
    const = p @ lam0_s @ p.T - lam0_d
    linear = np.einsum("ia,jb,abe->ije", p, p, lin_s) - np.einsum("ijf,fe->ije", lin_d, p)
    return int(np.abs(const).max()), int(np.abs(linear).max())


def casimir_gram(space, which: str) -> np.ndarray:
    """G with grad C = G z: C1 = |nu|^2 or C2 = <nu, pi>, read off the chart's axis."""
    lay = LAYOUTS[space]
    idx = np.arange(lay.dim)
    nu, pi = idx[lay.axis], idx[lay.pi]
    g = np.zeros((lay.dim, lay.dim), dtype=np.int64)
    if which == "C1":
        g[nu, nu] = 2
    else:
        g[nu, pi] = g[pi, nu] = 1
    return g


def casimir_defects(space, which: str) -> tuple[int, int]:
    """{C, z_a} = sum_b (G z)_b Lambda_ba: the linear part sum_b G[b,e] LAM0[b,a]
    must vanish, and the quadratic part Q[a,e,f] = sum_b G[b,e] LIN[b,a,f] must
    be antisymmetric in (e, f).  Returns the largest entry of the linear part
    and of Q + Q^T in (e, f)."""
    lam0, lin = tensors(space)
    g = casimir_gram(space, which)
    linear = np.einsum("be,ba->ae", g, lam0)
    quad = np.einsum("be,baf->aef", g, lin)
    return int(np.abs(linear).max()), int(np.abs(quad + quad.transpose(0, 2, 1)).max())


def affine_identity_defects() -> dict[str, int]:
    """Every defect above by name; each is 0 exactly when its identity holds.
    tests/test_mutations.py reads it as one target."""
    out = {}
    for space in CHARTS:
        out[f"antisymmetry/{space.value}"] = antisymmetry_defect(space)
        out[f"jacobi-constant/{space.value}"], out[f"jacobi-linear/{space.value}"] = jacobi_defects(space)
    for space in PROJECTIONS:
        out[f"poisson-map-constant/{space.value}"], out[f"poisson-map-linear/{space.value}"] = (
            poisson_map_defects(space))
    for space in CASIMIR_CHARTS:
        for which in ("C1", "C2"):
            out[f"{which}-linear/{space.value}"], out[f"{which}-quadratic/{space.value}"] = (
                casimir_defects(space, which))
    return out


@pytest.mark.parametrize("space", CHARTS, ids=lambda s: s.value)
def test_structure_tensors_are_antisymmetric(space):
    assert antisymmetry_defect(space) == 0


@pytest.mark.parametrize("space", CHARTS, ids=lambda s: s.value)
def test_jacobi_identity_holds_exactly(space):
    assert jacobi_defects(space) == (0, 0)


@pytest.mark.parametrize("reduced_space", PROJECTIONS, ids=lambda s: s.value)
def test_projection_is_a_poisson_map_exactly(reduced_space):
    assert poisson_map_defects(reduced_space) == (0, 0)


@pytest.mark.parametrize("which", ["C1", "C2"])
@pytest.mark.parametrize("space", CASIMIR_CHARTS, ids=lambda s: s.value)
def test_casimirs_annihilate_every_coordinate_exactly(space, which):
    assert casimir_defects(space, which) == (0, 0)


@pytest.mark.parametrize("space", [SpaceId.CotSO3, SpaceId.CotSE3], ids=lambda s: s.value)
def test_c2_is_no_casimir_on_the_full_charts(space):
    # <nu, pi> is the circle action's momentum there; the proof must see it
    assert casimir_defects(space, "C2") != (0, 0)
