"""Planted defects: each certificate must fail when the claim it checks breaks.

Every case replaces one function by monkeypatch with a wrapper and runs each
of its targets at a small size.  With the defect planted every target must
FAIL.  With the benign control, the same wrapper handing the original's result
through, every target must PASS.  Each target must call the wrapper in both
runs, so a FAIL comes from the defect and not from a patch that the target
never reads.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from symtop import checks, dynamics, orbits, poisson
from symtop.algebra3 import matvec3
from symtop.cli import main
from symtop.dynamics import BodyParams, DipolePotential, ZeroPotential
from symtop.phase import LAYOUTS, Se3DualPoint, SpaceId, flatten
from test_acceptance import BP, reduced_start
from test_affine_identities import affine_identity_defects
from test_orbits import orbit_form_residual
from test_symmetry_bits import CASES as SYMMETRY_CASES
from test_symmetry_bits import turned_runs_agree

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _flip_one_eps(tensors, space):
    """The structure tensors with {pi_1, v_2} = v_3 turned into -v_3, in both
    orders, for the first vector block v of the chart."""
    lam0, lin = tensors
    lin = lin.copy()
    s = LAYOUTS[space].pi.start
    a, d = LAYOUTS[space].vectors[0]
    lin[s, a + d, a + 2 * d] *= -1.0
    lin[a + d, s, a + 2 * d] *= -1.0
    return lam0, lin


def _rotation_only(g, q):
    """The coadjoint action without its a x A nu term."""
    return Se3DualPoint(nu=matvec3(g.A, q.nu), pi=matvec3(g.A, q.pi))


def _unrotated_translation(g, q):
    """The coadjoint action with a x nu where a x A nu belongs."""
    return Se3DualPoint(nu=matvec3(g.A, q.nu), pi=np.cross(g.a, q.nu) + matvec3(g.A, q.pi))


def _without_vector_torque(space, z, g):
    """The vector field with the sum over v of dH/dv x v dropped from pidot:
    the gradient's vector-block entries read as zero there, and only there."""
    g = list(g)
    for a, d in LAYOUTS[space].vectors:
        g[a] = g[a + d] = g[a + 2 * d] = 0.0
    return g


def _one_axis_sign_error(space, zdot):
    """The field with the e1 entry of the first vector block's rate negated:
    one component of w x v, for the first column of R or for nu."""
    a, _ = LAYOUTS[space].vectors[0]
    zdot = list(zdot)
    zdot[a] = -zdot[a]
    return zdot


def _symmetry_pin(space, method, side):
    return lambda tmp: turned_runs_agree(space, method, side, presets=("gravity",), states=1, steps=20)


def _passes(suite, **sizes):
    return all(r.passed for r in suite(seed=0, **sizes))


def _compare_free_top(tmp_path):
    cfg = json.loads((_CONFIGS / "free_top_full.json").read_text())
    cfg.update(dt=0.01, T=0.2, sample_stride=5)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main(["compare", "--config", str(path)]) == 0


def _free_top_oracle():
    # criterion 7's comparison with the closed form, at T = 1 and dt = 1e-2
    s0 = reduced_start()
    h = dynamics.hamiltonian_field(SpaceId.Reduced, BP, ZeroPotential())
    traj = dynamics.simulate(h, flatten(s0, SpaceId.Reduced), 1e-2, 1.0, sample_stride=10)
    worst = max(
        float(np.abs(z - flatten(dynamics.free_top_analytic(s0, t, BP), SpaceId.Reduced)).max())
        for t, z in zip(traj.t, traj.z)
    )
    return worst <= 1e-7


# id: (owner, name, defect, *targets).  defect(original) is the planted
# function; each target(tmp_path) runs a certificate and says whether it passed.
CASES = {
    "jacobi-one-eps-sign": (
        poisson, "structure_tensors",
        lambda f: lambda space: _flip_one_eps(f(space), space),
        lambda tmp: _passes(checks.check_jacobi, points=2),
        lambda tmp: not any(affine_identity_defects().values()),
    ),
    # A rotation alone keeps both Casimirs, so the casimirs suite cannot see
    # this one; the witness residual reads the action and must.
    "coadjoint-drops-translation": (
        orbits, "coadjoint", lambda f: _rotation_only,
        lambda tmp: _passes(checks.check_orbits, pairs=10),
    ),
    "coadjoint-unrotated-translation": (
        orbits, "coadjoint", lambda f: _unrotated_translation,
        lambda tmp: _passes(checks.check_casimirs, pairs=10, fields=2),
    ),
    "witness-identity": (
        orbits, "same_orbit_witness",
        lambda f: lambda q1, q2: orbits.SE3Element(a=np.zeros(3), A=np.eye(3)),
        lambda tmp: _passes(checks.check_orbits, pairs=10),
    ),
    "magnetic-form-sign": (
        orbits, "magnetic_form", lambda f: lambda *a: -f(*a),
        lambda tmp: _passes(checks.check_orbits, pairs=2),
        lambda tmp: orbit_form_residual(points=5) <= 1e-14,
    ),
    "dipole-gradient-sign": (
        DipolePotential, "grad", lambda f: lambda *a: tuple(-g for g in f(*a)[:3]) + f(*a)[3:],
        lambda tmp: _passes(checks.check_gradients, points=3),
    ),
    "vector-field-drops-torque": (
        dynamics, "vector_field_floats",
        lambda f: lambda space, z, g: f(space, z, _without_vector_torque(space, z, g)),
        _compare_free_top,
    ),
    # The torque-free field above is still equivariant; a sign error on one
    # axis is not, under the quarter turn on either side.
    "vector-field-one-axis-sign": (
        dynamics, "vector_field_floats",
        lambda f: lambda space, z, g: _one_axis_sign_error(space, f(space, z, g)),
        *(_symmetry_pin(*case) for case in SYMMETRY_CASES),
    ),
    "free-top-precession-rate": (
        dynamics, "free_top_analytic",
        lambda f: lambda s0, t, bp: f(s0, t, BodyParams(M=bp.M, I1=bp.I1 * (1.0 + 1e-4), I3=bp.I3)),
        lambda tmp: _free_top_oracle(),
    ),
}


@pytest.mark.parametrize("planted", [True, False], ids=["defect", "control"])
@pytest.mark.parametrize("case", list(CASES))
def test_certificate_sees_a_planted_defect(monkeypatch, tmp_path, case, planted):
    owner, name, defect, *targets = CASES[case]
    original = getattr(owner, name)
    replacement = defect(original) if planted else original
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        return replacement(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    for target in targets:
        calls.clear()
        assert target(tmp_path) is not planted
        assert calls
