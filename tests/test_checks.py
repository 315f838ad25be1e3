"""How the certificate suites draw their samples.

Each suite seeds one generator per call and draws all of its chart points
from it; brackets, jacobi and poisson-map salt the seed each with a constant
of their own, and casimirs and gradients draw their chart points from the
generator that also draws their other samples.
"""

import itertools

import numpy as np
import pytest

from symtop import checks
from symtop.phase import random_chart_point

# Sizes small enough for a quick call of each suite.
SMALL = {
    "brackets": {"points_per_space": 5},
    "jacobi": {"points": 5},
    "poisson-map": {"points": 5},
    "casimirs": {"pairs": 20, "fields": 5},
    "orbits": {"pairs": 20},
    "gradients": {"points": 5},
}
CHART_POINT_SUITES = ("brackets", "jacobi", "poisson-map", "casimirs", "gradients")


# Over checks.SUITES, so a suite without small sizes fails (KeyError).
@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_a_suite_repeats_its_results_for_one_seed(suite):
    for seed in (0, 3):
        first = checks.SUITES[suite](seed=seed, **SMALL[suite])
        assert first and checks.SUITES[suite](seed=seed, **SMALL[suite]) == first


def _drawn_points(monkeypatch, suite: str, seed: int) -> list[bytes]:
    """The bytes of every chart point one small call of suite draws."""
    drawn = []

    def recording(space, rng):
        z = random_chart_point(space, rng)
        drawn.append(z.tobytes())
        return z

    monkeypatch.setattr(checks, "random_chart_point", recording)
    checks.SUITES[suite](seed=seed, **SMALL[suite])
    return drawn


def test_no_two_suites_or_seeds_draw_the_same_chart_point(monkeypatch):
    drawn = {(suite, seed): _drawn_points(monkeypatch, suite, seed)
             for suite in CHART_POINT_SUITES for seed in (0, 1)}
    # with a generator seeded per point, seed + stride * k, brackets, jacobi
    # and poisson-map all drew their first point from default_rng(seed)
    for a, b in itertools.combinations(drawn, 2):
        assert not set(drawn[a]) & set(drawn[b]), (a, b)


def test_suites_draw_from_one_generator_per_call(monkeypatch):
    # one SeedSequence per suite call, however many points it draws
    seeds = []
    real = np.random.default_rng

    def counting(seed=None):
        if not isinstance(seed, np.random.Generator):
            seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    for suite in CHART_POINT_SUITES:
        seeds.clear()
        checks.SUITES[suite](seed=4, **SMALL[suite])
        assert len(seeds) == 1, (suite, seeds)


# The size arguments of each suite.
SIZE_ARGS = [(suite, arg) for suite, sizes in SMALL.items() for arg in sizes]


@pytest.mark.parametrize("suite, arg", SIZE_ARGS)
@pytest.mark.parametrize("bad", [-1, -5, 2.0, 2.5, "3", None])
def test_a_suite_rejects_a_size_that_is_not_a_nonnegative_integer(suite, arg, bad):
    with pytest.raises(ValueError, match=f"^{arg} = {bad!r} must be an integer >= 0$"):
        checks.SUITES[suite](seed=0, **{**SMALL[suite], arg: bad})


@pytest.mark.parametrize("suite, arg", SIZE_ARGS)
def test_a_suite_of_size_zero_passes(suite, arg):
    results = checks.SUITES[suite](seed=0, **{**SMALL[suite], arg: 0})
    assert results and all(r.passed for r in results)
    assert any(r.samples == 0 for r in results)


def test_same_level_pair_rejects_both_forced_axes():
    with pytest.raises(ValueError, match="force_antipodal and force_aligned exclude each other"):
        checks.random_same_level_pair(np.random.default_rng(0), force_antipodal=True, force_aligned=True)
