"""Numerical certification suites behind `symtop check` and the acceptance tests.

Each suite exercises one structural claim (bracket tables, Jacobi identity,
Poisson-map property of the projections, Casimir invariance, orbit
transitivity, magnetic-form identities, gradient correctness) over seeded
random samples and reports the worst residual against a fixed tolerance.

Each suite seeds one generator per call and draws every sample from it.
brackets, jacobi and poisson-map seed theirs with [seed, salt], a salt of
their own, so that no two suites draw the same chart points for one seed;
the other suites seed theirs with seed.

The bracket-table oracle below is intentionally written as literal
entry-by-entry assignments, independent of the affine-tensor encoding used
by the production structure matrices; the two paths must agree exactly.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics, orbits, poisson, reduction
from .algebra3 import _cross, _dot, _norm, max_or_nan
from .phase import LAYOUTS, Se3DualPoint, SpaceId, _Frozen, random_chart_point, random_unit

ALL_SPACES = (SpaceId.CotSO3, SpaceId.Se3Dual, SpaceId.CotSE3, SpaceId.Reduced)


class CheckResult(_Frozen):
    """Worst residual of one suite over its samples, against its tolerance."""

    _fields = ("name", "max_residual", "tolerance", "samples")

    def __init__(self, name: str, max_residual: float, tolerance: float, samples: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "max_residual", max_residual)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "samples", samples)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:<34} max residual {self.max_residual:9.3e}"
            f"  tol {self.tolerance:7.1e}  samples {self.samples:>5}  {status}"
        )


def oracle_structure_matrix(space: SpaceId, z: np.ndarray) -> np.ndarray:
    """Bracket table written out literally, one family at a time.

    {x_i, p_j} = delta_ij
    {pi_1, pi_2} = pi_3,  {pi_2, pi_3} = pi_1,  {pi_3, pi_1} = pi_2
    {pi_1, v_2} = v_3,    {pi_1, v_3} = -v_2,   (v = nu, or each R column)
    {pi_2, v_3} = v_1,    {pi_2, v_1} = -v_3,
    {pi_3, v_1} = v_2,    {pi_3, v_2} = -v_1
    """
    lay = LAYOUTS[space]
    lam = np.zeros((lay.dim, lay.dim))

    def put(a, b, val):
        lam[a, b] = val
        lam[b, a] = -val

    if lay.x is not None:
        for i in range(3):
            put(lay.x.start + i, lay.p.start + i, 1.0)

    pi = [lay.pi_entry(i) for i in range(3)]
    pv = z[lay.pi]
    put(pi[0], pi[1], pv[2])
    put(pi[1], pi[2], pv[0])
    put(pi[2], pi[0], pv[1])

    # cyclic pattern shared by nu and every attitude column
    def vector_rule(idx):
        # idx[i] = chart index of component i of the coupled vector
        v = z[[idx[0], idx[1], idx[2]]]
        put(pi[0], idx[1], v[2])
        put(pi[0], idx[2], -v[1])
        put(pi[1], idx[2], v[0])
        put(pi[1], idx[0], -v[2])
        put(pi[2], idx[0], v[1])
        put(pi[2], idx[1], -v[0])

    if lay.nu is not None:
        vector_rule([lay.nu_entry(i) for i in range(3)])
    if lay.r is not None:
        for k in range(3):
            vector_rule([lay.r_entry(j, k) for j in range(3)])
    return lam


def _worst(residuals) -> float:
    """A suite's worst residual: the largest of residuals, NaN if any is NaN,
    0.0 when there are none."""
    return max_or_nan([0.0, *residuals])


def _chart_points(space: SpaceId, rng: np.random.Generator, count: int):
    """count chart points of space, drawn one after another from rng."""
    return (random_chart_point(space, rng) for _ in range(count))


def check_brackets(seed: int = 0, points_per_space: int = 250) -> list[CheckResult]:
    """Production structure matrices vs the literal oracle; exact equality."""
    rng = np.random.default_rng([seed, 7919])
    return [
        CheckResult(f"brackets/{space.value}", _worst(
            float(np.abs(poisson.structure_matrix(space, z) - oracle_structure_matrix(space, z)).max())
            for z in _chart_points(space, rng, points_per_space)
        ), 0.0, points_per_space)
        for space in ALL_SPACES
    ]


def check_jacobi(seed: int = 0, points: int = 100) -> list[CheckResult]:
    """Cyclic Jacobi residual over every coordinate triple, all four charts."""
    rng = np.random.default_rng([seed, 104729])
    return [
        CheckResult(f"jacobi/{space.value}", _worst(
            float(np.abs(poisson.jacobi_residual_all(space, z)).max())
            for z in _chart_points(space, rng, points)
        ), 1e-10, points)
        for space in ALL_SPACES
    ]


def check_poisson_map(seed: int = 0, points: int = 100) -> list[CheckResult]:
    """Projection defect P Lambda_src P^T - Lambda_dst o P over every pair of
    reduced coordinates, both projections."""
    rng = np.random.default_rng([seed, 15485863])
    out = []
    for reduced_space in (SpaceId.Reduced, SpaceId.Se3Dual):
        src, _ = reduction.chart_projection(reduced_space)
        worst = _worst(
            float(np.abs(reduction.poisson_map_residual_all(reduced_space, z)).max())
            for z in _chart_points(src, rng, points)
        )
        out.append(
            CheckResult(f"poisson-map/{src.value}->{reduced_space.value}", worst, 1e-10, points)
        )
    return out


def _random_dual_point(rng: np.random.Generator) -> Se3DualPoint:
    return Se3DualPoint(
        nu=random_unit(rng) * rng.uniform(0.5, 1.5), pi=rng.uniform(-1, 1, 3)
    )


def _coadjoint_drift(rng: np.random.Generator) -> tuple[float, float]:
    """|change of C1| and |change of C2| under a random group element at a random point."""
    q = _random_dual_point(rng)
    g = orbits.random_se3(rng)
    before = orbits.casimirs(q)
    after = orbits.casimirs(orbits.coadjoint(g, q))
    return abs(after.c1 - before.c1), abs(after.c2 - before.c2)


def check_casimirs(seed: int = 0, pairs: int = 1000, fields: int = 100) -> list[CheckResult]:
    """Coadjoint invariance of both Casimirs, and vanishing brackets with
    random polynomial fields."""
    rng = np.random.default_rng(seed)
    worst = _worst(d for _ in range(pairs) for d in _coadjoint_drift(rng))
    res = [CheckResult("casimirs/coadjoint-invariance", worst, 1e-12, pairs)]

    c1f, c2f = orbits.casimir_fields(SpaceId.Se3Dual)
    polys = [poisson.random_polynomial(SpaceId.Se3Dual, rng) for _ in range(fields)]
    worst = _worst(
        abs(poisson.bracket(c, f, z))
        for f, z in zip(polys, _chart_points(SpaceId.Se3Dual, rng, fields))
        for c in (c1f, c2f)
    )
    res.append(CheckResult("casimirs/bracket-annihilation", worst, 1e-12, fields))
    return res


def random_same_level_pair(
    rng: np.random.Generator, force_antipodal: bool = False, force_aligned: bool = False
) -> tuple[Se3DualPoint, Se3DualPoint]:
    """Two random points sharing a Casimir level with c1 = 1."""
    nu1 = random_unit(rng)
    pi1 = rng.uniform(-1, 1, 3)
    n1 = nu1.tolist()
    c2 = _dot(n1, pi1.tolist())
    if force_antipodal:
        n2 = [-x for x in n1]
    elif force_aligned:
        n2 = n1
    else:
        n2 = random_unit(rng).tolist()
    w = rng.uniform(-1, 1, 3).tolist()
    wn = _dot(w, n2)
    pi2 = [c2 * x + (y - wn * x) for x, y in zip(n2, w)]
    return Se3DualPoint(nu=nu1, pi=pi1), Se3DualPoint(nu=np.array(n2), pi=np.array(pi2))


def check_orbits(seed: int = 0, pairs: int = 1000) -> list[CheckResult]:
    """Constructive transitivity on joint levels, and magnetic-form identities."""
    rng = np.random.default_rng(seed)
    worst = _worst(_pair_residual(rng, k) for k in range(pairs))
    res = [CheckResult("orbits/witness-transitivity", worst, 1e-9, pairs)]

    anti, rep, zero = zip(*(_magnetic_residuals(rng) for _ in range(200)))
    res.append(CheckResult("orbits/magnetic-antisymmetry", _worst(anti), 0.0, 200))
    res.append(CheckResult("orbits/magnetic-representative", _worst(rep), 1e-12, 200))
    res.append(CheckResult("orbits/magnetic-zero-level", _worst(zero), 0.0, 200))
    return res


def _pair_residual(rng: np.random.Generator, k: int) -> float:
    """Witness residual of the k-th same-level pair: every tenth pair from
    k = 3 has antipodal axes, and every tenth from k = 7 equal axes."""
    q1, q2 = random_same_level_pair(rng, force_antipodal=(k % 10 == 3), force_aligned=(k % 10 == 7))
    return orbits.witness_residual(orbits.same_orbit_witness(q1, q2), q1, q2)


def _magnetic_residuals(rng: np.random.Generator) -> tuple[float, float, float]:
    """Antisymmetry, representative-shift and zero-level residuals of the
    magnetic form at one random (nu, u, v, c2)."""
    nu = random_unit(rng)
    u = orbits.random_tangent(rng, nu)
    v = orbits.random_tangent(rng, nu)
    c2 = rng.uniform(-2, 2)
    m = orbits.magnetic_form(nu, u, v, c2)
    anti = abs(m + orbits.magnetic_form(nu, v, u, c2))
    # shift the representative xi by a multiple of nu and re-evaluate directly
    lam = rng.uniform(-2, 2)
    n = nu.tolist()
    xi = [x + lam * y for x, y in zip(_cross(n, u.tolist()), n)]
    shifted = -c2 * _dot(_cross(xi, _cross(n, v.tolist())), n)
    return anti, abs(shifted - m), abs(orbits.magnetic_form(nu, u, v, 0.0))


PRESET_POTENTIALS: dict[str, dynamics.Potential] = {
    "zero": dynamics.ZeroPotential(),
    "gravity": dynamics.LinearGravity(g=np.array([0.0, 0.0, -1.0]), chi=0.3),
    "dipole": dynamics.DipolePotential(m=0.05, mu=np.array([0.0, 0.0, 1.0])),
}
PRESET_POTENTIALS["gravity+dipole"] = dynamics.SumPotential(
    terms=(PRESET_POTENTIALS["gravity"], PRESET_POTENTIALS["dipole"])
)

PRESET_BODY = dynamics.BodyParams(M=1.0, I1=1.0, I3=0.5)


def check_gradients(seed: int = 0, points: int = 100) -> list[CheckResult]:
    """Analytic gradients of every potential preset and both Hamiltonian
    fields against central finite differences (relative to gradient scale)."""
    rng = np.random.default_rng(seed)
    bp = PRESET_BODY
    out = []
    for name, pot in PRESET_POTENTIALS.items():
        worst = _worst(d for _ in range(points) for d in _potential_gradient_errors(rng, pot))
        out.append(CheckResult(f"gradients/potential-{name}", worst, 1e-5, points))

    for label, fld, space in (
        ("reduced-hamiltonian", dynamics.reduced_hamiltonian_field(bp, PRESET_POTENTIALS["gravity"]), SpaceId.Reduced),
        ("full-hamiltonian", dynamics.full_hamiltonian_field(bp, PRESET_POTENTIALS["gravity"]), SpaceId.CotSE3),
    ):
        worst = _worst(_field_gradient_error(fld, z) for z in _chart_points(space, rng, points))
        out.append(CheckResult(f"gradients/{label}", worst, 1e-5, points))
    return out


def _potential_gradient_errors(rng: np.random.Generator, pot: dynamics.Potential) -> tuple[float, float]:
    """Largest finite-difference error of grad_x and of grad_nu at a random
    (x, nu), each relative to max(|grad_x|, |grad_nu|, 1).  x and nu are
    drawn as float lists once, so each difference converts nothing."""
    bp = PRESET_BODY
    x = (random_unit(rng) * rng.uniform(0.8, 2.0)).tolist()
    nu = random_unit(rng).tolist()
    gx = pot.grad_x(x, nu, bp)
    gn = pot.grad_nu(x, nu, bp)
    fx = poisson.fd_gradient(lambda xx: pot.value(xx, nu, bp), x)
    fn = poisson.fd_gradient(lambda nn: pot.value(x, nn, bp), nu)
    scale = max(_norm(*gx), _norm(*gn), 1.0)
    return float(np.abs(gx - fx).max() / scale), float(np.abs(gn - fn).max() / scale)


def _field_gradient_error(fld: poisson.ScalarField, z: np.ndarray) -> float:
    """Largest finite-difference error of a field's gradient at z, relative to max(|gradient|, 1)."""
    g = fld.gradient(z)
    f = poisson.fd_gradient(fld.value, z)
    gl = g.tolist()
    scale = max(math.sqrt(poisson.dot_floats(gl, gl)), 1.0)
    return float(np.abs(g - f).max() / scale)


SUITES = {
    "brackets": check_brackets,
    "jacobi": check_jacobi,
    "poisson-map": check_poisson_map,
    "casimirs": check_casimirs,
    "orbits": check_orbits,
    "gradients": check_gradients,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or every suite for name == "all"."""
    if name == "all":
        results = []
        for fn in SUITES.values():
            results.extend(fn(seed=seed))
        return results
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed=seed)
