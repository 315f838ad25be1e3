import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtop.algebra3 import exp_so3, rotation_defect
from symtop.dynamics import BodyParams, ZeroPotential, hamiltonian_field, step
from symtop.errors import DimensionMismatch
from symtop.phase import (
    LAYOUTS,
    CotSO3State,
    FullState,
    Layout,
    ReducedState,
    Se3DualPoint,
    SpaceId,
    chart_vector,
    dim,
    flatten,
    random_chart_point,
    random_rotation,
    random_state,
    unflatten,
)
from symtop.poisson import structure_matrix
from symtop.reduction import poisson_map_residual_all

ALL = list(SpaceId)


def test_chart_dimensions():
    assert [dim(s) for s in ALL] == [12, 6, 18, 12]


def test_cotso3_layout_frozen():
    s = CotSO3State(R=np.eye(3), pi=np.array([0.0, 0.0, 1.0]))
    npt.assert_array_equal(
        flatten(s, SpaceId.CotSO3), [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1]
    )


def test_reduced_flat_length():
    z = flatten(random_state(SpaceId.Reduced, 0), SpaceId.Reduced)
    assert z.shape == (12,)


def test_round_trip_all_spaces():
    for space in ALL:
        for seed in range(10):
            s = random_state(space, seed)
            z = flatten(s, space)
            z2 = flatten(unflatten(space, z), space)
            npt.assert_array_equal(z, z2)


def test_random_state_deterministic():
    for space in ALL:
        a = flatten(random_state(space, 42), space)
        b = flatten(random_state(space, 42), space)
        npt.assert_array_equal(a, b)


# random_chart_point(space, 0) as literals: any change in the kind or the
# order of random_state's draws shows here.
FROZEN_POINTS = {
    SpaceId.CotSO3: [
        0.0689436993901491, 0.25137143820411645, -0.9654321138068667, -0.46249885769380505,
        0.8655087937176005, 0.19232611530790525, 0.8839352764463733, 0.43325157593792807,
        0.1759303811198496, -0.9433606577090741, -0.7514334470008721, 0.34124882938726064,
    ],
    SpaceId.Se3Dual: [
        0.18881711923692265, -0.19839032737660414, 0.9617636786063786,
        -0.9669447289429418, 0.6265404784005448, 0.8255111545554434,
    ],
    SpaceId.CotSE3: [
        0.2739233746429086, -0.4604265724722594, -0.9180529521276106, -0.1546255576046831,
        -0.9433606577090741, -0.7514334470008721, 0.8967856486874886, -0.22171139803119772,
        -0.38290933168468516, 0.35550679909769506, -0.15416456528970435, 0.9218721183571763,
        -0.263420606831492, -0.9628485565197096, -0.05943266025040628, 0.34124882938726064,
        0.2943790231485002, 0.2307702229625077,
    ],
    SpaceId.Reduced: [
        0.2739233746429086, -0.4604265724722594, -0.9180529521276106, -0.9669447289429418,
        0.6265404784005448, 0.8255111545554434, 0.7415052042025201, 0.5385471155343273,
        -0.4001712589507583, 0.8701448475755365, 0.6317071082430643, -0.9945229996597038,
    ],
}


@pytest.mark.parametrize("space", ALL, ids=[s.value for s in ALL])
def test_random_chart_point_frozen(space):
    npt.assert_allclose(random_chart_point(space, 0), FROZEN_POINTS[space], rtol=0, atol=1e-15)


@pytest.mark.parametrize("space", ALL, ids=[s.value for s in ALL])
def test_random_chart_point_draws_successive_points_from_a_generator(space):
    # the first point is the one the int seed gives; each call advances g,
    # and the next call goes on from where the last one stopped
    g = np.random.default_rng(5)
    start = g.bit_generator.state
    first = random_chart_point(space, g)
    after_first = g.bit_generator.state
    second = random_chart_point(space, g)
    assert first.tobytes() == random_chart_point(space, 5).tobytes()
    assert start != after_first != g.bit_generator.state
    assert second.tobytes() != first.tobytes()
    assert flatten(random_state(space, np.random.default_rng(5)), space).tobytes() == first.tobytes()


def test_random_rotation_valid():
    for seed in range(20):
        s = random_state(SpaceId.CotSO3, seed)
        assert rotation_defect(s.R) <= 1e-9


def test_random_rotation_is_haar_uniform():
    # Under the Haar measure on SO(3), E[tr R] = 0 and E[(tr R)^2] = 1 (with
    # variances 1 and 2); a product of three turns by angles uniform in
    # [0, pi] reads 0.105 and 1.143 here.
    rng, n = np.random.default_rng(1), 20_000
    traces = np.array([np.trace(random_rotation(rng)) for _ in range(n)])
    assert abs(traces.mean()) < 4.0 / np.sqrt(n)
    assert abs((traces * traces).mean() - 1.0) < 0.05


def test_random_nu_unit():
    for seed in range(20):
        s = random_state(SpaceId.Reduced, seed)
        assert abs(s.nu @ s.nu - 1.0) < 1e-12


def test_flatten_type_mismatch():
    s = random_state(SpaceId.Reduced, 0)
    with pytest.raises(DimensionMismatch):
        flatten(s, SpaceId.CotSE3)


def test_unflatten_wrong_length():
    with pytest.raises(DimensionMismatch):
        unflatten(SpaceId.Se3Dual, np.zeros(7))


def test_wrong_length_vector_gets_one_message():
    # every entry point checks a chart vector with phase.chart_vector
    h = hamiltonian_field(SpaceId.CotSE3, BodyParams(M=1.0, I1=1.0, I3=0.5), ZeroPotential())
    z = np.zeros(17)
    calls = (
        lambda: chart_vector(SpaceId.CotSE3, z),
        lambda: step(SpaceId.CotSE3, h, z, 1e-3),
        lambda: structure_matrix(SpaceId.CotSE3, z),
        lambda: unflatten(SpaceId.CotSE3, z),
        lambda: poisson_map_residual_all(SpaceId.Reduced, z),
    )
    for call in calls:
        with pytest.raises(DimensionMismatch) as e:
            call()
        assert str(e.value) == "CotSE3 chart has dim 18, got shape (17,)"


def test_reduced_state_rejects_off_sphere_nu():
    with pytest.raises(ValueError):
        ReducedState(x=np.zeros(3), p=np.zeros(3), nu=np.array([1.0, 0.0, 1.0]), pi=np.zeros(3))


def test_layout_entry_helpers():
    lay = LAYOUTS[SpaceId.CotSE3]
    # nu_i of the projected state sits at the attitude entry R[i, 2]
    assert [lay.r_entry(i, 2) for i in range(3)] == [8, 11, 14]
    assert lay.pi_entry(0) == 15
    with pytest.raises(DimensionMismatch):
        LAYOUTS[SpaceId.Se3Dual].r_entry(0, 0)
    # Layout.axis: the nu block, or the third column of R
    assert LAYOUTS[SpaceId.Reduced].axis == slice(6, 9)
    assert LAYOUTS[SpaceId.Se3Dual].axis == slice(0, 3)
    assert list(range(18))[lay.axis] == [8, 11, 14]
    assert list(range(12))[LAYOUTS[SpaceId.CotSO3].axis] == [2, 5, 8]
    # Layout.vectors: the (start, stride) blocks the eps rule couples to pi
    assert lay.vectors == ((6, 3), (7, 3), (8, 3))
    assert LAYOUTS[SpaceId.CotSO3].vectors == ((0, 3), (1, 3), (2, 3))
    assert LAYOUTS[SpaceId.Se3Dual].vectors == ((0, 1),)
    assert LAYOUTS[SpaceId.Reduced].vectors == ((6, 1),)
    # Layout.reduced: the entries of (x, p, nu, pi), the projection as a
    # selection; on the reduced charts it selects every entry in order
    assert lay.reduced == (0, 1, 2, 3, 4, 5, 8, 11, 14, 15, 16, 17)
    assert LAYOUTS[SpaceId.CotSO3].reduced == (2, 5, 8, 9, 10, 11)
    assert LAYOUTS[SpaceId.Reduced].reduced == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
    assert LAYOUTS[SpaceId.Se3Dual].reduced == (0, 1, 2, 3, 4, 5)
    # Layout.names: the label of each chart entry
    assert LAYOUTS[SpaceId.CotSO3].names == (
        "R11", "R12", "R13", "R21", "R22", "R23", "R31", "R32", "R33", "pi1", "pi2", "pi3")
    assert LAYOUTS[SpaceId.Se3Dual].names == ("nu1", "nu2", "nu3", "pi1", "pi2", "pi3")
    assert lay.names == ("x1", "x2", "x3", "p1", "p2", "p3", "R11", "R12", "R13",
                         "R21", "R22", "R23", "R31", "R32", "R33", "pi1", "pi2", "pi3")
    assert LAYOUTS[SpaceId.Reduced].names == (
        "x1", "x2", "x3", "p1", "p2", "p3", "nu1", "nu2", "nu3", "pi1", "pi2", "pi3")


def test_layout_without_axis_builds():
    # neither nu nor R: no axis, no vector block, nothing to select or label
    lay = Layout(dim=6)
    assert (lay.axis, lay.vectors, lay.reduced) == (None, (), ())
    assert lay.names == ("",) * 6


_COMPONENT = st.floats(-1e6, 1e6, allow_nan=False)
_VECTOR = st.lists(_COMPONENT, min_size=3, max_size=3).map(np.array)
_ROTATION = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3).map(exp_so3)
_UNIT = _VECTOR.filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))

_STATES = st.one_of(
    st.builds(CotSO3State, R=_ROTATION, pi=_VECTOR),
    st.builds(Se3DualPoint, nu=_VECTOR, pi=_VECTOR),
    st.builds(FullState, x=_VECTOR, R=_ROTATION, p=_VECTOR, pi=_VECTOR),
    st.builds(ReducedState, x=_VECTOR, p=_VECTOR, nu=_UNIT, pi=_VECTOR),
)
_SPACE_OF = {CotSO3State: SpaceId.CotSO3, Se3DualPoint: SpaceId.Se3Dual,
             FullState: SpaceId.CotSE3, ReducedState: SpaceId.Reduced}


@settings(max_examples=50, deadline=None)
@given(_STATES)
def test_unflatten_inverts_flatten(state):
    space = _SPACE_OF[type(state)]
    z = flatten(state, space)
    back = unflatten(space, z)
    assert type(back) is type(state)
    for name, value in vars(state).items():
        npt.assert_array_equal(getattr(back, name), value)
    npt.assert_array_equal(flatten(back, space), z)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_states_reject_non_finite_rotation(bad):
    r = np.eye(3)
    r[0, 1] = bad
    with pytest.raises(ValueError, match="rotation defect"):
        CotSO3State(R=np.full((3, 3), bad), pi=[0, 0, 1])
    with pytest.raises(ValueError, match="rotation defect"):
        FullState(x=np.zeros(3), R=r, p=np.zeros(3), pi=[0, 0, 1])
