"""Projections to the quotient spaces and the right circle action.

The body-axis circle sits inside the rotation group as

    S1 = { Z in SO(3) : Z[i, 2] = delta_i2 }   (third column/row fixed),

realized here by z_rotation(theta).  Right translation R -> R B leaves the
third column of R invariant exactly when B is in S1, so the third column

    tau(R) = R[:, 2] = nu

is a complete invariant of the circle action and defines the projections

    tilde_tau: (R, pi)       -> (nu, pi)         CotSO3  -> Se3Dual (onto W1)
    project_full: (x, R, p, pi) -> (x, p, nu, pi)   CotSE3  -> Reduced

Both maps are linear in chart coordinates, z -> P z, and P selects entries:
reduced coordinate i reads source coordinate sel[i], with sel the source
chart's Layout.reduced and P built from it.  tau, tilde_tau and project_full
stay as the independent, state-level statement of the same maps.  A linear
map is Poisson exactly when

    P Lambda_src(z) P^T = Lambda_dst(P z)

(the coordinate form of a Poisson map), and with P a selection the left side
is Lambda_src(z)[sel][:, sel].  poisson_map_residual_all returns that whole
defect from one source and one reduced structure matrix.  Every entry of
either side is 0, +-1 or +-z_c, so a correct projection gives exactly 0.0,
bit for bit the value poisson_map_residual gives coordinate pair by pair.
poisson_map_residual stays the check for arbitrary reduced fields: it pulls
them back along the projection and brackets upstairs and downstairs.
"""

from __future__ import annotations

import numpy as np

from .algebra3 import Mat3, Vec3, _frame, exp_so3, matmul3
from .errors import DimensionMismatch
from .phase import (
    LAYOUTS,
    CotSO3State,
    FullState,
    ReducedState,
    Se3DualPoint,
    SpaceId,
    chart_vector,
    flatten,
)
from .poisson import ScalarField, _same_space, bracket, structure_matrix


def z_rotation(theta: float) -> Mat3:
    """Circle element Z(theta): rotation about the third axis; Z[:, 2] and
    Z[2, :] equal the third basis vector exactly."""
    return exp_so3(np.array([0.0, 0.0, float(theta)]))


def tau(r: Mat3) -> Vec3:
    """Third column of the attitude matrix: the body axis in the inertial frame."""
    r = np.asarray(r, dtype=float)
    return r[:, 2].copy()


def tilde_tau(s: CotSO3State) -> Se3DualPoint:
    """(R, pi) -> (tau(R), pi); lands on the unit-sphere slice W1."""
    return Se3DualPoint(nu=tau(s.R), pi=s.pi)


def project_full(s: FullState) -> ReducedState:
    """(x, R, p, pi) -> (x, p, tau(R), pi)."""
    return ReducedState(x=s.x, p=s.p, nu=tau(s.R), pi=s.pi)


def right_action(b: Mat3, s: FullState | CotSO3State):
    """Right translation of the attitude, R -> R B; all momenta unchanged."""
    b = np.asarray(b, dtype=float)
    if isinstance(s, FullState):
        return FullState(x=s.x, R=matmul3(s.R, b), p=s.p, pi=s.pi)
    if isinstance(s, CotSO3State):
        return CotSO3State(R=matmul3(s.R, b), pi=s.pi)
    raise DimensionMismatch(f"right_action expects a full or rotational state, got {type(s).__name__}")


def section(nu: Vec3) -> Mat3:
    """A rotation R with tau(R) = nu/|nu|: surjectivity witness for the projections.

    Completes nu to an orthonormal frame starting from the coordinate axis
    least aligned with it, so the construction stays well-conditioned on the
    whole sphere.
    """
    return np.array(_frame(np.asarray(nu, dtype=float).tolist())).reshape(3, 3)


def _build_projection(src: SpaceId) -> tuple[SpaceId, np.ndarray, np.ndarray]:
    sel = np.array(LAYOUTS[src].reduced)
    return src, np.eye(LAYOUTS[src].dim)[sel], sel


_PROJECTIONS = {SpaceId.Reduced: _build_projection(SpaceId.CotSE3),
                SpaceId.Se3Dual: _build_projection(SpaceId.CotSO3)}


def _projection(reduced_space: SpaceId) -> tuple[SpaceId, np.ndarray, np.ndarray]:
    """(source space, P, sel) of the projection onto reduced_space, built at import.

    P has exactly one 1 per row, in column sel[i] for reduced coordinate i.
    """
    proj = _PROJECTIONS.get(reduced_space)
    if proj is None:
        raise DimensionMismatch(f"{reduced_space.value} is not the image of a projection")
    return proj


def chart_projection(reduced_space: SpaceId) -> tuple[SpaceId, np.ndarray]:
    """Source space and matrix P of the linear chart projection onto reduced_space.

    Reduced comes from CotSE3 via project_full; Se3Dual comes from CotSO3 via
    tilde_tau.  P picks x, p, pi straight through and reads nu off the
    source chart's axis entries, the third column of R.
    """
    src, p, _ = _projection(reduced_space)
    return src, p


def pullback(f: ScalarField) -> ScalarField:
    """Compose a reduced-space field with the projection; gradient by the
    (constant) chain rule P^T grad f."""
    src, p = chart_projection(f.space)
    return ScalarField(
        src,
        lambda z: f.value(p @ z),
        lambda z: p.T @ f.gradient(p @ z),
        name=f"{f.name}@proj",
    )


def _source_point(src: SpaceId, z) -> np.ndarray:
    """Chart vector of a source-space point given as a state or a vector."""
    if isinstance(z, (FullState, CotSO3State)):
        z = flatten(z, src)
    return chart_vector(src, z)


def poisson_map_residual(f: ScalarField, g: ScalarField, z) -> float:
    """{F o P, G o P}_source(z) - {F, G}_reduced(P z); zero iff the projection
    respects both bracket tables at z.

    f and g live on the reduced space (Reduced or Se3Dual); z is a state or
    chart vector of the corresponding source space.
    """
    _same_space(f, g)
    src, p = chart_projection(f.space)
    z = _source_point(src, z)
    upstairs = bracket(pullback(f), pullback(g), z)
    downstairs = bracket(f, g, p @ z)
    return upstairs - downstairs


def poisson_map_residual_all(reduced_space: SpaceId, z) -> np.ndarray:
    """Defect P Lambda_src(z) P^T - Lambda_dst(P z) over every pair of reduced
    coordinates at once; entry [a, b] is poisson_map_residual of coordinates
    a and b.  z is a state or chart vector of the source space.
    """
    src, _, sel = _projection(reduced_space)
    z = _source_point(src, z)
    return structure_matrix(src, z)[sel[:, None], sel] - structure_matrix(reduced_space, z[sel])
