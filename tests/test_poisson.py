import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtop import poisson
from symtop.algebra3 import exp_so3
from symtop.checks import PRESET_BODY, PRESET_POTENTIALS, check_brackets
from symtop.dynamics import full_hamiltonian_field, reduced_hamiltonian_field
from symtop.errors import DimensionMismatch
from symtop.orbits import casimir_fields
from symtop.phase import (
    LAYOUTS,
    CotSO3State,
    FullState,
    Layout,
    ReducedState,
    Se3DualPoint,
    SpaceId,
    flatten,
    random_chart_point,
    random_rotation,
)
from symtop.poisson import (
    ScalarField,
    bracket,
    coordinate,
    fd_gradient,
    ham_vector_field,
    jacobi_residual_all,
    random_polynomial,
    structure_matrix,
    structure_tensors,
)

ALL = list(SpaceId)

# Levi-Civita symbol eps[i,j,k]
EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _k] = 1.0
    EPS[_i, _k, _j] = -1.0


def test_cotse3_translational_block():
    lay = LAYOUTS[SpaceId.CotSE3]
    z = random_chart_point(SpaceId.CotSE3, 0)
    lam = structure_matrix(SpaceId.CotSE3, z)
    for i in range(3):
        for j in range(3):
            assert lam[lay.x.start + i, lay.p.start + j] == (1.0 if i == j else 0.0)
            assert lam[lay.x.start + i, lay.x.start + j] == 0.0
            assert lam[lay.p.start + i, lay.p.start + j] == 0.0
    # translational coordinates decouple from the attitude block
    assert np.all(lam[0:6, 6:18] == 0.0)


def test_se3dual_point_values():
    z = np.array([0.3, -0.2, 0.9, 0.0, 0.0, 1.0])  # nu arbitrary, pi = e3
    lam = structure_matrix(SpaceId.Se3Dual, z)
    assert lam[3, 4] == 1.0  # {pi1, pi2} = pi3
    assert np.all(lam[0:3, 0:3] == 0.0)  # {nu_i, nu_k} = 0


def test_cotso3_pi_r_rule_at_identity():
    lay = LAYOUTS[SpaceId.CotSO3]
    z = np.concatenate([np.eye(3).ravel(), [0.4, -0.2, 0.7]])
    lam = structure_matrix(SpaceId.CotSO3, z)
    # {pi_1, R_23} = eps_{12l} R_{l3} = R_33 = 1 at the identity
    assert lam[lay.pi_entry(0), lay.r_entry(1, 2)] == 1.0


def test_antisymmetry_exact_many_points():
    for space in ALL:
        for seed in range(250):
            z = random_chart_point(space, seed)
            lam = structure_matrix(space, z)
            npt.assert_array_equal(lam, -lam.T)


def test_structure_matrix_dim_check():
    with pytest.raises(DimensionMismatch):
        structure_matrix(SpaceId.Se3Dual, np.zeros(5))


def test_bracket_x1_p1_is_one():
    lay = LAYOUTS[SpaceId.CotSE3]
    x1 = coordinate(SpaceId.CotSE3, lay.x.start)
    p1 = coordinate(SpaceId.CotSE3, lay.p.start)
    for seed in range(5):
        z = random_chart_point(SpaceId.CotSE3, seed)
        assert bracket(x1, p1, z) == 1.0
        assert bracket(p1, x1, z) == -1.0


def test_bracket_self_is_zero():
    rng = np.random.default_rng(0)
    for space in ALL:
        f = random_polynomial(space, rng)
        z = random_chart_point(space, 3)
        assert abs(bracket(f, f, z)) < 1e-12
        # exact for coordinate fields: the diagonal of Lambda is exactly zero
        assert bracket(coordinate(space, 0), coordinate(space, 0), z) == 0.0


def test_bracket_pi1_pi2_frozen():
    lay = LAYOUTS[SpaceId.Se3Dual]
    z = np.array([0.1, 0.2, 0.3, 1.0, 1.0, 5.0])
    pi1 = coordinate(SpaceId.Se3Dual, lay.pi_entry(0))
    pi2 = coordinate(SpaceId.Se3Dual, lay.pi_entry(1))
    assert bracket(pi1, pi2, z) == 5.0


def test_bracket_antisymmetric_in_fields():
    rng = np.random.default_rng(1)
    for space in ALL:
        f = random_polynomial(space, rng)
        g = random_polynomial(space, rng)
        z = random_chart_point(space, 9)
        assert abs(bracket(f, g, z) + bracket(g, f, z)) < 1e-12


def test_bracket_space_mismatch():
    f = coordinate(SpaceId.Se3Dual, 0)
    g = coordinate(SpaceId.Reduced, 0)
    with pytest.raises(DimensionMismatch):
        bracket(f, g, np.zeros(6))


def test_bracket_rejects_a_gradient_of_the_wrong_length():
    # a 4-entry gradient on the 6-entry Se3Dual chart, on either side of the
    # bracket; a zip that stops at the shorter sequence would drop two entries
    short = ScalarField(SpaceId.Se3Dual, lambda z: z[3], lambda z: [0.0, 0.0, 0.0, 1.0])
    pi2 = coordinate(SpaceId.Se3Dual, LAYOUTS[SpaceId.Se3Dual].pi_entry(1))
    z = random_chart_point(SpaceId.Se3Dual, 0)
    for f, g in ((short, pi2), (pi2, short)):
        with pytest.raises(ValueError):
            bracket(f, g, z)
    with pytest.raises(ValueError):
        poisson.dot_floats([1.0, 2.0], [1.0])


def _bracket_on_gradient_arrays(f, g, z):
    """bracket with each gradient taken as the array f.gradient(z) and read
    back with tolist(): the same left-to-right float sums."""
    lam = structure_matrix(f.space, z).tolist()
    dg = g.gradient(z).tolist()
    return poisson.dot_floats(f.gradient(z).tolist(), [poisson.dot_floats(row, dg) for row in lam])


def test_bracket_matches_the_gradient_array_form_bits():
    rng = np.random.default_rng(23)
    pot = PRESET_POTENTIALS["gravity+dipole"]
    hamiltonians = {SpaceId.Reduced: [reduced_hamiltonian_field(PRESET_BODY, pot)],
                    SpaceId.CotSE3: [full_hamiltonian_field(PRESET_BODY, pot)]}
    for space in ALL:
        fields = [coordinate(space, a) for a in range(LAYOUTS[space].dim)]
        fields += [random_polynomial(space, rng) for _ in range(3)] + hamiltonians.get(space, [])
        if LAYOUTS[space].nu is not None:
            fields += casimir_fields(space)
        for z in (random_chart_point(space, seed) for seed in range(3)):
            for f in fields:
                for g in fields:
                    assert bracket(f, g, z).hex() == _bracket_on_gradient_arrays(f, g, z).hex()


def test_free_particle_vector_field():
    lay = LAYOUTS[SpaceId.CotSE3]
    m = 2.0

    def value(z):
        p0, p1, p2 = z[lay.p]
        return (p0 * p0 + p1 * p1 + p2 * p2) / (2 * m)

    def grad(z):
        g = [0.0] * lay.dim
        g[lay.p] = [v / m for v in z[lay.p]]
        return g

    h = ScalarField(SpaceId.CotSE3, value, grad)
    z = random_chart_point(SpaceId.CotSE3, 4)
    zdot = ham_vector_field(h, z)
    npt.assert_allclose(zdot[lay.x], z[lay.p] / m, atol=0)
    assert np.all(zdot[lay.p] == 0.0)
    assert np.all(zdot[lay.r] == 0.0)
    assert np.all(zdot[lay.pi] == 0.0)


def test_casimir_c2_generates_no_motion():
    lay = LAYOUTS[SpaceId.Se3Dual]
    c2 = ScalarField(
        SpaceId.Se3Dual,
        lambda z: sum(a * b for a, b in zip(z[lay.nu], z[lay.pi])),
        lambda z: z[lay.pi] + z[lay.nu],
    )
    for seed in range(20):
        z = random_chart_point(SpaceId.Se3Dual, seed)
        assert np.abs(ham_vector_field(c2, z)).max() < 1e-12


def test_vector_field_matches_componentwise_brackets():
    rng = np.random.default_rng(2)
    for space in ALL:
        h = random_polynomial(space, rng)
        z = random_chart_point(space, 11)
        zdot = ham_vector_field(h, z)
        for a in range(z.size):
            assert abs(zdot[a] - bracket(coordinate(space, a), h, z)) < 1e-12


def test_closed_form_vector_field_matches_structure_matrix():
    # ham_vector_field skips Lambda(z); the affine tensors certify it
    rng = np.random.default_rng(8)
    cases = [(random_polynomial(space, rng), space) for space in ALL for _ in range(5)]
    for pot in PRESET_POTENTIALS.values():
        cases.append((reduced_hamiltonian_field(PRESET_BODY, pot), SpaceId.Reduced))
        cases.append((full_hamiltonian_field(PRESET_BODY, pot), SpaceId.CotSE3))
    for h, space in cases:
        for seed in range(20):
            z = random_chart_point(space, seed)
            g = h.gradient(z)
            expected = structure_matrix(space, z) @ g
            err = np.abs(ham_vector_field(h, z) - expected).max()
            assert err <= 1e-14 * max(1.0, np.abs(g).max()), (h.name, space, seed, err)


def test_spin_rate_matches_structure_product():
    # h = |pi|^2 / (2 I1) on the dual: nudot must equal Lambda grad h rows
    lay = LAYOUTS[SpaceId.Se3Dual]
    i1 = 0.7
    h = ScalarField(
        SpaceId.Se3Dual,
        lambda z: sum(v * v for v in z[lay.pi]) / (2 * i1),
        lambda z: [0.0, 0.0, 0.0] + [v / i1 for v in z[lay.pi]],
    )
    for seed in range(10):
        z = random_chart_point(SpaceId.Se3Dual, seed)
        zdot = ham_vector_field(h, z)
        nu, pi = z[lay.nu], z[lay.pi]
        npt.assert_allclose(zdot[lay.nu], np.cross(pi / i1, nu), atol=1e-14)
        npt.assert_allclose(zdot[lay.pi], 0.0, atol=1e-14)


def test_jacobi_momentum_triple():
    z = random_chart_point(SpaceId.Se3Dual, 5)
    lay = LAYOUTS[SpaceId.Se3Dual]
    r = jacobi_residual_all(SpaceId.Se3Dual, z)[lay.pi_entry(0), lay.pi_entry(1), lay.pi_entry(2)]
    assert abs(r) < 1e-12


def test_jacobi_mixed_triple_exact_zero():
    lay = LAYOUTS[SpaceId.CotSE3]
    z = random_chart_point(SpaceId.CotSE3, 6)
    r = jacobi_residual_all(SpaceId.CotSE3, z)[lay.x.start, lay.p.start, lay.pi_entry(1)]
    assert r == 0.0


def test_jacobi_attitude_triple():
    lay = LAYOUTS[SpaceId.CotSO3]
    for seed in range(20):
        z = random_chart_point(SpaceId.CotSO3, seed)
        r = jacobi_residual_all(SpaceId.CotSO3, z)[lay.pi_entry(0), lay.r_entry(0, 2), lay.r_entry(1, 2)]
        assert abs(r) < 1e-12


def test_jacobi_all_triples_all_spaces():
    for space in ALL:
        for seed in range(25):
            z = random_chart_point(space, seed)
            assert np.abs(jacobi_residual_all(space, z)).max() < 1e-10


# Chart entries in [-2, 2]; attitudes exp_so3 of a drawn axis-angle, with the
# reduced chart's nu the third column of such a rotation.
_ENTRY = st.floats(-2.0, 2.0)
_VEC = st.lists(_ENTRY, min_size=3, max_size=3).map(np.array)
_ROT = st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3).map(lambda v: exp_so3(np.array(v)))
_CHART_POINTS = st.one_of(
    st.builds(CotSO3State, R=_ROT, pi=_VEC).map(lambda s: (SpaceId.CotSO3, flatten(s, SpaceId.CotSO3))),
    st.builds(Se3DualPoint, nu=_VEC, pi=_VEC).map(lambda s: (SpaceId.Se3Dual, flatten(s, SpaceId.Se3Dual))),
    st.builds(FullState, x=_VEC, R=_ROT, p=_VEC, pi=_VEC).map(lambda s: (SpaceId.CotSE3, flatten(s, SpaceId.CotSE3))),
    st.builds(ReducedState, x=_VEC, p=_VEC, nu=_ROT.map(lambda r: r[:, 2]), pi=_VEC).map(
        lambda s: (SpaceId.Reduced, flatten(s, SpaceId.Reduced))),
)


@settings(max_examples=50, deadline=None)
@given(_CHART_POINTS)
def test_jacobi_at_generated_points(point):
    space, z = point
    assert np.abs(jacobi_residual_all(space, z)).max() <= 1e-10  # the jacobi suite's tolerance


def test_structure_matrix_matches_tensordot_bytes():
    # the tensordot contraction the mat-vec replaced, as the reference: each
    # entry of LIN has at most one nonzero coefficient, so both are exact
    for space in ALL:
        lam0, lin = structure_tensors(space)
        for seed in range(50):
            for scale in 10.0 ** np.arange(-3, 4):
                z = scale * random_chart_point(space, seed)
                reference = lam0 + np.tensordot(lin, z, axes=([2], [0]))
                assert structure_matrix(space, z).tobytes() == reference.tobytes()


def test_jacobi_residual_all_matches_einsum_bytes():
    # the einsum contraction the matrix product replaced, as the reference:
    # each LIN[b, c, :] has at most one nonzero entry, +-1, so both are exact
    for space in ALL:
        _, lin = structure_tensors(space)
        assert ((lin != 0).sum(axis=2) <= 1).all() and set(np.unique(lin)) <= {-1.0, 0.0, 1.0}
        for seed in range(20):
            for scale in 10.0 ** np.arange(-3, 4):
                z = scale * random_chart_point(space, seed)
                t = np.einsum("ad,bcd->abc", structure_matrix(space, z), lin)
                reference = t + np.transpose(t, (1, 2, 0)) + np.transpose(t, (2, 0, 1))
                assert jacobi_residual_all(space, z).tobytes() == reference.tobytes()


def product(f: ScalarField, g: ScalarField) -> ScalarField:
    """The field f g, with its product-rule gradient."""
    return ScalarField(f.space, lambda z: f.value(z) * g.value(z),
                       lambda z: [a * g.value(z) + f.value(z) * b for a, b in zip(f.grad(z), g.grad(z))])


def test_leibniz_rule():
    rng = np.random.default_rng(3)
    for space in ALL:
        for _ in range(10):
            f = random_polynomial(space, rng)
            g = random_polynomial(space, rng)
            k = random_polynomial(space, rng)
            z = random_chart_point(space, 13)
            lhs = bracket(product(f, g), k, z)
            rhs = f(z) * bracket(g, k, z) + g(z) * bracket(f, k, z)
            assert abs(lhs - rhs) < 1e-9


def test_right_invariance_of_attitude_table():
    lay = LAYOUTS[SpaceId.CotSO3]
    rng = np.random.default_rng(4)
    b = random_rotation(rng)

    def rb_entry(j, n):
        # (RB)_{jn} as a chart field: linear in the R entries with constant gradient
        idx = [lay.r_entry(j, m) for m in range(3)]
        w = b[:, n].tolist()
        grad = [0.0] * lay.dim
        for i, c in zip(idx, w):
            grad[i] = c
        return ScalarField(
            SpaceId.CotSO3, lambda z: sum(z[i] * c for i, c in zip(idx, w)), lambda z: list(grad)
        )

    for seed in range(10):
        z = random_chart_point(SpaceId.CotSO3, seed)
        rb = z[lay.r].reshape(3, 3) @ b
        # {(RB)_ij, (RB)_kl} = 0
        for j, n in ((0, 0), (1, 2), (2, 1)):
            for k_, l_ in ((0, 1), (2, 2)):
                assert abs(bracket(rb_entry(j, n), rb_entry(k_, l_), z)) < 1e-12
        # {pi_i, (RB)_jn} = eps_ijl (RB)_ln
        for i in range(3):
            pi_i = coordinate(SpaceId.CotSO3, lay.pi_entry(i))
            for j in range(3):
                for n in range(3):
                    expected = sum(EPS[i, j, l] * rb[l, n] for l in range(3))
                    got = bracket(pi_i, rb_entry(j, n), z)
                    assert abs(got - expected) < 1e-12


def test_polynomial_gradients_match_fd():
    rng = np.random.default_rng(5)
    for space in ALL:
        f = random_polynomial(space, rng)
        for seed in range(5):
            z = random_chart_point(space, seed)
            g = f.gradient(z)
            fd = fd_gradient(f.value, z)
            scale = max(np.linalg.norm(g), 1.0)
            assert np.abs(g - fd).max() / scale < 1e-5


def two_copy_fd_gradient(f, z, step=1e-6):
    """fd_gradient's former form, two fresh copies of z per coordinate."""
    z = np.asarray(z, dtype=float)
    g = np.zeros_like(z)
    for a in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[a] += step
        zm[a] -= step
        g[a] = (f(zp) - f(zm)) / (2.0 * step)
    return g


def test_fd_gradient_matches_two_copy_form_bytes():
    rng = np.random.default_rng(6)
    for space in ALL:
        f = random_polynomial(space, rng)
        for seed in range(5):
            z = random_chart_point(space, seed)
            before = z.copy()
            assert fd_gradient(f.value, z).tobytes() == two_copy_fd_gradient(f, z).tobytes()
            npt.assert_array_equal(z, before)  # the caller's point is left alone
    for space, make in ((SpaceId.Reduced, reduced_hamiltonian_field), (SpaceId.CotSE3, full_hamiltonian_field)):
        h = make(PRESET_BODY, PRESET_POTENTIALS["gravity+dipole"])
        z = random_chart_point(space, 7)
        assert fd_gradient(h.value, z).tobytes() == two_copy_fd_gradient(h, z).tobytes()


def test_coordinate_names():
    assert list(LAYOUTS[SpaceId.Reduced].names)[:3] == ["x1", "x2", "x3"]
    assert list(LAYOUTS[SpaceId.CotSO3].names)[0] == "R11"
    assert coordinate(SpaceId.Se3Dual, 3).name == "pi1"
    assert [coordinate(SpaceId.CotSE3, a).name for a in range(18)] == list(LAYOUTS[SpaceId.CotSE3].names)
    with pytest.raises(DimensionMismatch):
        coordinate(SpaceId.CotSE3, 18)


def test_coordinate_labels_cannot_be_edited_in_place():
    # the shared labels are a tuple, and a list built from them is a copy
    with pytest.raises(TypeError):
        LAYOUTS[SpaceId.Reduced].names[0] = "oops"
    names = list(LAYOUTS[SpaceId.Reduced].names)
    names[0] = "oops"
    assert LAYOUTS[SpaceId.Reduced].names[0] == "x1"
    assert coordinate(SpaceId.Reduced, 0).name == "x1"


def test_structure_tensors_are_read_only():
    # an edit in place would change every later bracket in the process
    for space in ALL:
        for table in structure_tensors(space):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
            edited = table.copy()
            edited[0, 0] = 1.0
            assert edited.flags.writeable


def test_structure_tensors_built_once_at_import(monkeypatch):
    tables = {space: structure_tensors(space) for space in ALL}
    monkeypatch.setattr(poisson, "_build_tensors", None)  # a rebuild would raise
    for space in ALL:
        lam0, lin = structure_tensors(space)
        assert lam0 is tables[space][0] and lin is tables[space][1]


def _bracket_verdicts() -> dict[str, bool]:
    return {r.name: r.passed for r in check_brackets(seed=0, points_per_space=3)}


@pytest.mark.parametrize("space", ALL, ids=lambda s: s.value)
def test_check_brackets_catches_a_flipped_sign_in_the_shared_rule(monkeypatch, space):
    lay = LAYOUTS[space]
    lam0, lin = structure_tensors(space)
    a, d = lay.vectors[0]
    # {pi_1, v_2} = v_3 on the first vector block
    entry = (lay.pi_entry(0), a + d, a + 2 * d)
    benign = lin.copy()
    benign[lay.pi_entry(0), a, a] = -0.0  # an exact zero keeps its value
    monkeypatch.setitem(poisson._TENSORS, space, (lam0, benign))
    assert all(_bracket_verdicts().values())
    flipped = lin.copy()
    assert flipped[entry] == 1.0
    flipped[entry] = -1.0
    monkeypatch.setitem(poisson._TENSORS, space, (lam0, flipped))
    verdicts = _bracket_verdicts()
    assert not verdicts.pop(f"brackets/{space.value}") and all(verdicts.values())


def test_check_brackets_does_not_read_layout_vectors(monkeypatch):
    # Tensors rebuilt from a wrong Layout.vectors must fail against the literal
    # oracle, which never reads Layout.vectors.  The wrong vectors go on a
    # fresh Layout swapped into LAYOUTS; the shared one is never edited.
    space = SpaceId.CotSE3
    lay = LAYOUTS[space]

    def rebuild_from(vectors):
        fresh = Layout(**{name: getattr(lay, name) for name in Layout._fields})
        object.__setattr__(fresh, "vectors", vectors)
        monkeypatch.setitem(LAYOUTS, space, fresh)
        monkeypatch.setitem(poisson._TENSORS, space, poisson._build_tensors(space))
        return _bracket_verdicts()

    # control: the same three columns of R in another order give the same table
    assert all(rebuild_from(((8, 3), (6, 3), (7, 3))).values())
    # the rows of R in place of its columns
    verdicts = rebuild_from(((6, 1), (9, 1), (12, 1)))
    assert not verdicts.pop("brackets/CotSE3") and all(verdicts.values())
    assert LAYOUTS[space] is not lay and lay.vectors == ((6, 3), (7, 3), (8, 3))
