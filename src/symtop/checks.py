"""Numerical certification suites behind `symtop check` and the acceptance tests.

Each suite exercises one structural claim (bracket tables, Jacobi identity,
Poisson-map property of the projections, Casimir invariance, orbit
transitivity, magnetic-form identities, gradient correctness) over seeded
random samples and reports the worst residual against a fixed tolerance.

The bracket-table oracle below is intentionally written as literal
entry-by-entry assignments, independent of the affine-tensor encoding used
by the production structure matrices; the two paths must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, orbits, poisson, reduction
from .algebra3 import cross, norm3
from .phase import (
    LAYOUTS,
    Se3DualPoint,
    SpaceId,
    random_chart_point,
    random_rotation,
    random_unit,
)

ALL_SPACES = (SpaceId.CotSO3, SpaceId.Se3Dual, SpaceId.CotSE3, SpaceId.Reduced)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    samples: int

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


def check_brackets(seed: int = 0, points_per_space: int = 250) -> list[CheckResult]:
    """Production structure matrices vs the literal oracle; exact equality."""
    out = []
    for space in ALL_SPACES:
        worst = 0.0
        for k in range(points_per_space):
            z = random_chart_point(space, seed + 7919 * k)
            diff = np.abs(
                poisson.structure_matrix(space, z) - oracle_structure_matrix(space, z)
            ).max()
            worst = max(worst, float(diff))
        out.append(CheckResult(f"brackets/{space.value}", worst, 0.0, points_per_space))
    return out


def check_jacobi(seed: int = 0, points: int = 100) -> list[CheckResult]:
    """Cyclic Jacobi residual over every coordinate triple, all four charts."""
    out = []
    for space in ALL_SPACES:
        worst = 0.0
        for k in range(points):
            z = random_chart_point(space, seed + 104729 * k)
            worst = max(worst, float(np.abs(poisson.jacobi_residual_all(space, z)).max()))
        out.append(CheckResult(f"jacobi/{space.value}", worst, 1e-10, points))
    return out


def check_poisson_map(seed: int = 0, points: int = 100) -> list[CheckResult]:
    """Projection defect P Lambda_src P^T - Lambda_dst o P over every pair of
    reduced coordinates, both projections."""
    out = []
    for reduced_space in (SpaceId.Reduced, SpaceId.Se3Dual):
        src, _ = reduction.chart_projection(reduced_space)
        worst = 0.0
        for k in range(points):
            z = random_chart_point(src, seed + 15485863 * k)
            worst = max(worst, float(np.abs(reduction.poisson_map_residual_all(reduced_space, z)).max()))
        out.append(
            CheckResult(f"poisson-map/{src.value}->{reduced_space.value}", worst, 1e-10, points)
        )
    return out


def _random_se3(rng: np.random.Generator) -> orbits.SE3Element:
    return orbits.SE3Element(a=rng.uniform(-1, 1, 3), A=random_rotation(rng))


def _random_dual_point(rng: np.random.Generator) -> Se3DualPoint:
    return Se3DualPoint(
        nu=random_unit(rng) * rng.uniform(0.5, 1.5), pi=rng.uniform(-1, 1, 3)
    )


def check_casimirs(seed: int = 0, pairs: int = 1000, fields: int = 100) -> list[CheckResult]:
    """Coadjoint invariance of both Casimirs, and vanishing brackets with
    random polynomial fields."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        q = _random_dual_point(rng)
        g = _random_se3(rng)
        before = orbits.casimirs(q)
        after = orbits.casimirs(orbits.coadjoint(g, q))
        worst = max(worst, abs(after.c1 - before.c1), abs(after.c2 - before.c2))
    res = [CheckResult("casimirs/coadjoint-invariance", worst, 1e-12, pairs)]

    c1f, c2f = orbits.casimir_fields(SpaceId.Se3Dual)
    worst = 0.0
    for k in range(fields):
        f = poisson.random_polynomial(SpaceId.Se3Dual, rng)
        z = random_chart_point(SpaceId.Se3Dual, seed + 2027 * k)
        worst = max(worst, abs(poisson.bracket(c1f, f, z)), abs(poisson.bracket(c2f, f, z)))
    res.append(CheckResult("casimirs/bracket-annihilation", worst, 1e-12, fields))
    return res


def random_same_level_pair(
    rng: np.random.Generator, force_antipodal: bool = False, force_aligned: bool = False
) -> tuple[Se3DualPoint, Se3DualPoint]:
    """Two random points sharing a Casimir level with c1 = 1."""
    nu1 = random_unit(rng)
    pi1 = rng.uniform(-1, 1, 3)
    c2 = float(nu1 @ pi1)
    if force_antipodal:
        nu2 = -nu1
    elif force_aligned:
        nu2 = nu1.copy()
    else:
        nu2 = random_unit(rng)
    w = rng.uniform(-1, 1, 3)
    pi2 = c2 * nu2 + (w - float(w @ nu2) * nu2)
    return Se3DualPoint(nu=nu1, pi=pi1), Se3DualPoint(nu=nu2, pi=pi2)


def check_orbits(seed: int = 0, pairs: int = 1000) -> list[CheckResult]:
    """Constructive transitivity on joint levels, and magnetic-form identities."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(pairs):
        q1, q2 = random_same_level_pair(
            rng, force_antipodal=(k % 10 == 3), force_aligned=(k % 10 == 7)
        )
        g = orbits.same_orbit_witness(q1, q2)
        worst = max(worst, orbits.witness_residual(g, q1, q2))
    res = [CheckResult("orbits/witness-transitivity", worst, 1e-9, pairs)]

    worst_anti, worst_rep, worst_zero = 0.0, 0.0, 0.0
    for _ in range(200):
        nu = random_unit(rng)
        u = cross(nu, rng.uniform(-1, 1, 3))
        v = cross(nu, rng.uniform(-1, 1, 3))
        c2 = rng.uniform(-2, 2)
        m = orbits.magnetic_form(nu, u, v, c2)
        worst_anti = max(worst_anti, abs(m + orbits.magnetic_form(nu, v, u, c2)))
        # shift the representative xi by a multiple of nu and re-evaluate directly
        lam = rng.uniform(-2, 2)
        xi = cross(nu, u) + lam * nu
        eta = cross(nu, v)
        shifted = -c2 * float(cross(xi, eta) @ nu)
        worst_rep = max(worst_rep, abs(shifted - m))
        worst_zero = max(worst_zero, abs(orbits.magnetic_form(nu, u, v, 0.0)))
    res.append(CheckResult("orbits/magnetic-antisymmetry", worst_anti, 0.0, 200))
    res.append(CheckResult("orbits/magnetic-representative", worst_rep, 1e-12, 200))
    res.append(CheckResult("orbits/magnetic-zero-level", worst_zero, 0.0, 200))
    return res


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
        worst = 0.0
        for _ in range(points):
            x = random_unit(rng) * rng.uniform(0.8, 2.0)
            nu = random_unit(rng)
            gx = np.array(pot.grad_x(x, nu, bp))
            gn = np.array(pot.grad_nu(x, nu, bp))
            fx = poisson.fd_gradient(lambda xx: pot.value(xx, nu, bp), x)
            fn = poisson.fd_gradient(lambda nn: pot.value(x, nn, bp), nu)
            scale = max(norm3(gx), norm3(gn), 1.0)
            worst = max(
                worst,
                float(np.abs(gx - fx).max() / scale),
                float(np.abs(gn - fn).max() / scale),
            )
        out.append(CheckResult(f"gradients/potential-{name}", worst, 1e-5, points))

    for label, fld, space in (
        ("reduced-hamiltonian", dynamics.reduced_hamiltonian_field(bp, PRESET_POTENTIALS["gravity"]), SpaceId.Reduced),
        ("full-hamiltonian", dynamics.full_hamiltonian_field(bp, PRESET_POTENTIALS["gravity"]), SpaceId.CotSE3),
    ):
        worst = 0.0
        for k in range(points):
            z = random_chart_point(space, seed + 31 * k)
            g = fld.gradient(z)
            f = poisson.fd_gradient(fld.value, z)
            scale = max(norm3(g), 1.0)
            worst = max(worst, float(np.abs(g - f).max() / scale))
        out.append(CheckResult(f"gradients/{label}", worst, 1e-5, points))
    return out


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
