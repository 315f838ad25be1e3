"""Behaviour of the value types: construction, admission messages, repr,
equality, hashing and immutability.

The frozen types are the four states, Layout, SE3Element, OrbitLevel,
BodyParams, the four potentials and CheckResult; Trajectory and ScalarField
are mutable.  Every repr string below is spelled out in full, so a change of
field order, of a default or of what the repr shows fails here.
"""

import math

import numpy as np
import pytest

from symtop.checks import CheckResult
from symtop.dynamics import (
    BodyParams,
    DipolePotential,
    LinearGravity,
    SumPotential,
    Trajectory,
    ZeroPotential,
)
from symtop.orbits import OrbitLevel, SE3Element
from symtop.phase import LAYOUTS, CotSO3State, FullState, Layout, ReducedState, Se3DualPoint, SpaceId
from symtop.poisson import ScalarField

NAN = math.nan
E3 = np.eye(3)
EYE_REPR = "array([[1., 0., 0.],\n       [0., 1., 0.],\n       [0., 0., 1.]])"
BAD_R = "rotation defect 7.000e+00 exceeds admission tolerance 1.0e-09"
TRAJECTORY_ARGS = (SpaceId.Se3Dual, np.array([0.0, 0.5]), np.arange(12.0).reshape(2, 6),
                   np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.zeros(2))

# (class, field values in order, exact repr)
CASES = [
    (Layout, (6, None, None, None, slice(0, 3), slice(3, 6)),
     "Layout(dim=6, x=None, p=None, r=None, nu=slice(0, 3, None), pi=slice(3, 6, None))"),
    (CotSO3State, (E3, [0, 0, 1]), f"CotSO3State(R={EYE_REPR}, pi=array([0., 0., 1.]))"),
    (Se3DualPoint, ([0, 0, 1], [1, 2, 3]), "Se3DualPoint(nu=array([0., 0., 1.]), pi=array([1., 2., 3.]))"),
    (FullState, ([1, 2, 3], E3, [0, 0, 0], [0, 0, 1]),
     f"FullState(x=array([1., 2., 3.]), R={EYE_REPR}, p=array([0., 0., 0.]), pi=array([0., 0., 1.]))"),
    (ReducedState, ([1, 2, 3], [0, 0, 0], [0, 0, 1], [0.5, 0, 0]),
     "ReducedState(x=array([1., 2., 3.]), p=array([0., 0., 0.]), nu=array([0., 0., 1.]), "
     "pi=array([0.5, 0. , 0. ]))"),
    (SE3Element, ([1, 2, 3], E3), f"SE3Element(a=array([1., 2., 3.]), A={EYE_REPR})"),
    (OrbitLevel, (1.0, 0.25), "OrbitLevel(c1=1.0, c2=0.25)"),
    (BodyParams, (1.0, 1.0, 0.5), "BodyParams(M=1.0, I1=1.0, I3=0.5)"),
    (ZeroPotential, (), "ZeroPotential()"),
    (LinearGravity, ([0, 0, -1], 0.3), "LinearGravity(g=array([ 0.,  0., -1.]), chi=0.3)"),
    (DipolePotential, (2.0, [0, 0, 1]), "DipolePotential(m=2.0, mu=array([0., 0., 1.]))"),
    (SumPotential, ([ZeroPotential(), ZeroPotential()],), "SumPotential(terms=(ZeroPotential(), ZeroPotential()))"),
    (CheckResult, ("brackets", 0.0, 1e-12, 5),
     "CheckResult(name='brackets', max_residual=0.0, tolerance=1e-12, samples=5)"),
    (Trajectory, TRAJECTORY_ARGS,
     "Trajectory(space=<SpaceId.Se3Dual: 'Se3Dual'>, t=array([0. , 0.5]), "
     "z=array([[ 0.,  1.,  2.,  3.,  4.,  5.],\n       [ 6.,  7.,  8.,  9., 10., 11.]]), "
     "energy=array([1., 2.]), c1=array([1., 2.]), c2=array([1., 2.]), ortho_defect=array([0., 0.]))"),
    (ScalarField, (SpaceId.Reduced, len, abs, "f"),
     "ScalarField(space=<SpaceId.Reduced: 'Reduced'>, value=<built-in function len>, "
     "grad=<built-in function abs>, name='f')"),
]
FIELDS = {
    Layout: ("dim", "x", "p", "r", "nu", "pi"),
    CotSO3State: ("R", "pi"),
    Se3DualPoint: ("nu", "pi"),
    FullState: ("x", "R", "p", "pi"),
    ReducedState: ("x", "p", "nu", "pi"),
    SE3Element: ("a", "A"),
    OrbitLevel: ("c1", "c2"),
    BodyParams: ("M", "I1", "I3"),
    ZeroPotential: (),
    LinearGravity: ("g", "chi"),
    DipolePotential: ("m", "mu"),
    SumPotential: ("terms",),
    CheckResult: ("name", "max_residual", "tolerance", "samples"),
    Trajectory: ("space", "t", "z", "energy", "c1", "c2", "ortho_defect"),
    ScalarField: ("space", "value", "grad", "name"),
}
MUTABLE = (Trajectory, ScalarField)
FROZEN = [c for c, _, _ in CASES if c not in MUTABLE]
IDS = [c.__name__ for c, _, _ in CASES]


def test_cases_cover_every_value_type():
    assert [c for c, _, _ in CASES] == list(FIELDS)
    assert len(FROZEN) == 13


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_construction_by_keyword_and_by_position(cls, args, text):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(FIELDS[cls], args)))
    assert repr(by_position) == repr(by_keyword) == text


def test_defaults():
    assert repr(Layout(dim=6)) == "Layout(dim=6, x=None, p=None, r=None, nu=None, pi=None)"
    f = ScalarField(space=SpaceId.Se3Dual, value=len, grad=abs)
    assert f.name == ""
    assert ScalarField(SpaceId.Se3Dual, len, abs).name == ""


def test_repr_leaves_out_private_caches():
    lay = LAYOUTS[SpaceId.CotSE3]
    assert lay.axis == slice(8, 15, 3) and lay.reduced and lay.vectors and lay.names  # not fields
    assert repr(lay) == ("Layout(dim=18, x=slice(0, 3, None), p=slice(3, 6, None), "
                         "r=slice(6, 15, None), nu=None, pi=slice(15, 18, None))")
    g = LinearGravity(g=[0, 0, -2], chi=0.3)
    assert g._ghat == (0.0, 0.0, -1.0)
    assert repr(g) == "LinearGravity(g=array([ 0.,  0., -2.]), chi=0.3)"
    assert repr(DipolePotential(m=1.0, mu=[0, 1, 0])) == "DipolePotential(m=1.0, mu=array([0., 1., 0.]))"


# (class, keyword arguments with more than one invalid field, message)
INVALID = [
    (CotSO3State, dict(R=2 * E3, pi=[NAN, 0, 0]), BAD_R),
    (CotSO3State, dict(R=E3, pi=[NAN, 0, 0]), "pi has non-finite components"),
    (Se3DualPoint, dict(nu=[0, 0], pi=[NAN, 0, 0]), "nu must have shape (3,), got (2,)"),
    (Se3DualPoint, dict(nu=[0, 0, 1], pi=[NAN, 0, 0]), "pi has non-finite components"),
    (FullState, dict(x=[NAN, 0, 0], R=2 * E3, p=[0, 0], pi=[0, 0, 0]), "x has non-finite components"),
    (FullState, dict(x=[0, 0, 0], R=2 * E3, p=[0, 0], pi=[0, 0, 0]), BAD_R),
    (ReducedState, dict(x=[0, 0, 0], p=[0, 0, 0], nu=[0, 0, 2], pi=[NAN, 0, 0]), "pi has non-finite components"),
    (ReducedState, dict(x=[0, 0, 0], p=[0, 0, 0], nu=[0, 0, 2], pi=[0, 0, 0]),
     "|nu|^2 - 1 = 3.000e+00 exceeds 1.0e-09"),
    (SE3Element, dict(a=[NAN, 0, 0], A=2 * E3), "a has non-finite components"),
    (SE3Element, dict(a=[0, 0, 0], A=2 * E3), BAD_R),
    (OrbitLevel, dict(c1=-1.0, c2=NAN), "c1 = -1.0 must be nonnegative"),
    (BodyParams, dict(M=0.0, I1=-1.0, I3=0.5), "M = 0.0 must be positive and finite"),
    (BodyParams, dict(M=1.0, I1=NAN, I3=0.5), "I1 = nan must be positive and finite"),
    (BodyParams, dict(M=1.0, I1=1.0, I3=math.inf), "I3 = inf must be positive and finite"),
    (LinearGravity, dict(g=[0, 0, 0], chi=NAN), "gravity vector must be nonzero"),
    (LinearGravity, dict(g=[0, 0, -1e160], chi=NAN), "gravity vector length overflows to inf"),
    (LinearGravity, dict(g=[0, 0, NAN], chi=0.3), "gravity vector has non-finite components"),
    (LinearGravity, dict(g=[0, 0, -1], chi=NAN), "chi = nan must be finite"),
    (DipolePotential, dict(m=NAN, mu=[NAN, 0, 0]), "dipole m = nan must be finite"),
    (DipolePotential, dict(m=1.0, mu=[NAN, 0, 0]), "dipole mu has non-finite components"),
    (SumPotential, dict(terms=[]), "SumPotential needs at least one term"),
]


@pytest.mark.parametrize("cls, kwargs, message", INVALID, ids=[c.__name__ for c, _, _ in INVALID])
def test_first_invalid_field_names_the_error(cls, kwargs, message):
    with pytest.raises(ValueError) as info:
        cls(**kwargs)
    assert str(info.value) == message


def test_orbit_level_rejects_nan_c1():
    with pytest.raises(ValueError, match="c1 = nan must be nonnegative"):
        OrbitLevel(c1=NAN, c2=0.0)
    assert OrbitLevel(c1=0.0, c2=NAN).c1 == 0.0


@pytest.mark.parametrize("cls, args, text", [c for c in CASES if c[0] not in MUTABLE],
                         ids=[c.__name__ for c in FROZEN])
def test_frozen_types_refuse_assignment_and_deletion(cls, args, text):
    obj = cls(*args)
    for name in (*FIELDS[cls], "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 1.0)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert repr(obj) == text


def test_mutable_types_accept_assignment():
    traj = Trajectory(*TRAJECTORY_ARGS)
    traj.t = np.zeros(3)
    assert len(traj) == 3
    f = ScalarField(SpaceId.Reduced, len, abs)
    f.name = "g"
    assert f.name == "g"


@pytest.mark.parametrize("a, same, other", [
    (BodyParams(1.0, 1.0, 0.5), BodyParams(M=1, I1=1, I3=0.5), BodyParams(1.0, 1.0, 0.25)),
    (OrbitLevel(1.0, 0.25), OrbitLevel(c1=1, c2=0.25), OrbitLevel(1.0, -0.25)),
    (CheckResult("a", 0.0, 1e-12, 5), CheckResult("a", 0.0, 1e-12, 5), CheckResult("a", 0.0, 1e-12, 6)),
    (LAYOUTS[SpaceId.Reduced], Layout(12, slice(0, 3), slice(3, 6), None, slice(6, 9), slice(9, 12)),
     LAYOUTS[SpaceId.CotSO3]),
    (ZeroPotential(), ZeroPotential(), SumPotential([ZeroPotential()])),
    (SumPotential([ZeroPotential()]), SumPotential((ZeroPotential(),)), SumPotential([ZeroPotential()] * 2)),
], ids=["BodyParams", "OrbitLevel", "CheckResult", "Layout", "ZeroPotential", "SumPotential"])
def test_equality_and_hash_follow_the_field_tuple(a, same, other):
    values = tuple(getattr(a, n) for n in FIELDS[type(a)])
    assert a == same and not a != same
    assert a != other and not a == other
    assert a.__eq__(values) is NotImplemented and a != values
    if type(a) is Layout:
        # A Layout's field tuple holds slices, which hash only from Python
        # 3.12 on; Layout is unhashable on every interpreter.
        for x in (a, same):
            with pytest.raises(TypeError, match="unhashable type: 'Layout'"):
                hash(x)
    else:
        assert hash(a) == hash(same) == hash(values)


def test_array_fields_make_equality_raise_and_hash_fail():
    q = Se3DualPoint(nu=[0, 0, 1], pi=[1, 2, 3])
    assert q == q  # the same arrays: tuple comparison takes identity first
    with pytest.raises(ValueError, match="truth value of an array"):
        q == Se3DualPoint(nu=[0, 0, 1], pi=[1, 2, 3])
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(q)
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(LinearGravity(g=[0, 0, -1], chi=0.3))
    assert (q == FullState([0, 0, 0], E3, [0, 0, 0], [0, 0, 0])) is False


@pytest.mark.parametrize("obj", [Trajectory(*TRAJECTORY_ARGS), ScalarField(SpaceId.Reduced, len, abs)],
                         ids=["Trajectory", "ScalarField"])
def test_mutable_types_are_unhashable(obj):
    with pytest.raises(TypeError, match=f"unhashable type: '{type(obj).__name__}'"):
        hash(obj)
