"""Phase-space point types and their flat chart layouts.

Four spaces appear in the reduction chain:

    CotSO3   rotational phase space, points (R, pi), chart dim 12
    Se3Dual  dual of the Euclidean algebra, points (nu, pi), chart dim 6
    CotSE3   full rigid-body phase space, points (x, R, p, pi), chart dim 18
    Reduced  quotient by the body-axis circle, points (x, p, nu, pi), dim 12

The 9 entries of R are carried as 9 redundant chart coordinates (the bracket
tables are polynomial in matrix entries); the redundancy is resolved by
constraint-preserving integration, not by a minimal chart.  Every module
indexes chart vectors through the Layout constants defined here, whose axis,
vectors, reduced and names entries are computed once, when each is built.

The state types, Layout and the package's other value types are plain
classes on the two small bases below: each names its public fields in
_fields, in constructor order, and its __init__ validates and stores each
field once.  _FIELDS takes a state's field order from its _fields, so
flatten, unflatten and random_chart_point read the blocks in that order.

Flat layouts (row-major R):

    CotSO3:  (R11..R33, pi1..pi3)
    Se3Dual: (nu1..nu3, pi1..pi3)
    CotSE3:  (x1..x3, p1..p3, R11..R33, pi1..pi3)
    Reduced: (x1..x3, p1..p3, nu1..nu3, pi1..pi3)
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .algebra3 import ADMISSION_TOL, Mat3, Vec3, _dot, norm3, require_rotation
from .errors import DimensionMismatch


class SpaceId(enum.Enum):
    CotSO3 = "CotSO3"
    Se3Dual = "Se3Dual"
    CotSE3 = "CotSE3"
    Reduced = "Reduced"

    # Enum hashes a member through a Python-level __hash__, and every
    # LAYOUTS[space] lookup pays for it; members are singletons compared by
    # identity, so the identity hash is consistent with their equality.
    __hash__ = object.__hash__


class _Record:
    """repr and == of a value type from _fields, its public field names in
    constructor order: Name(field=value, ...), and equal when of the same
    class with equal field tuples.  Unhashable, like any mutable value."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


class _Frozen(_Record):
    """Immutable _Record: __init__ validates each field and stores it once with
    object.__setattr__; assignment and deletion raise AttributeError, and the
    hash is that of the field tuple (so a type holding an ndarray is unhashable).

    Never store through self.__dict__: on CPython 3.11 reading it makes the
    instance's dict a real one, and every attribute read of that instance
    then costs about three times as much.  For the same reason, no cached
    property from functools: it writes the instance dict."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Layout(_Frozen):
    """Slice map of one chart; absent blocks are None.

    Blocks are named after the state fields they hold (r holds R, row-major).
    __init__ also stores four entries derived from them (axis None and
    vectors () if the chart has neither nu nor R):
      axis     entries of the body axis nu: the nu block, or the third column of R
      vectors  (start, stride) of each block v with {pi_i, v_j} = eps_ijl v_l:
               the nu block, or each column of R
      reduced  entries of (x, p, nu, pi), nu read through axis: the reduction
               (x, R, p, pi) -> (x, p, tau(R), pi) as a selection of entries
      names    label of each entry: x1..x3, p1..p3, R11..R33, nu1..nu3, pi1..pi3
    Unhashable: it holds slices, which hash only from Python 3.12 on.
    """

    _fields = ("dim", "x", "p", "r", "nu", "pi")
    __hash__ = None

    def __init__(self, dim: int, x: slice | None = None, p: slice | None = None,
                 r: slice | None = None, nu: slice | None = None, pi: slice | None = None):
        if nu is not None:
            axis, vectors = nu, ((nu.start, 1),)
        elif r is not None:
            axis, vectors = slice(r.start + 2, r.stop, 3), tuple((r.start + k, 3) for k in range(3))
        else:
            axis, vectors = None, ()
        reduced = tuple(a for s in (x, p, axis, pi) if s is not None for a in range(dim)[s])
        names = [""] * dim
        for label, block in (("x", x), ("p", p), ("nu", nu), ("pi", pi)):
            if block is not None:
                names[block] = [f"{label}{i}" for i in (1, 2, 3)]
        if r is not None:
            names[r] = [f"R{j}{k}" for j in (1, 2, 3) for k in (1, 2, 3)]
        for name, v in zip((*self._fields, "axis", "vectors", "reduced", "names"),
                           (dim, x, p, r, nu, pi, axis, vectors, reduced, tuple(names))):
            object.__setattr__(self, name, v)

    def r_entry(self, j: int, k: int) -> int:
        """Absolute chart index of R[j,k] (0-based row/column)."""
        if self.r is None:
            raise DimensionMismatch("chart has no rotation block")
        return self.r.start + 3 * j + k

    def nu_entry(self, i: int) -> int:
        if self.nu is None:
            raise DimensionMismatch("chart has no nu block")
        return self.nu.start + i

    def pi_entry(self, i: int) -> int:
        return self.pi.start + i


LAYOUTS: dict[SpaceId, Layout] = {
    SpaceId.CotSO3: Layout(dim=12, r=slice(0, 9), pi=slice(9, 12)),
    SpaceId.Se3Dual: Layout(dim=6, nu=slice(0, 3), pi=slice(3, 6)),
    SpaceId.CotSE3: Layout(dim=18, x=slice(0, 3), p=slice(3, 6), r=slice(6, 15), pi=slice(15, 18)),
    SpaceId.Reduced: Layout(dim=12, x=slice(0, 3), p=slice(3, 6), nu=slice(6, 9), pi=slice(9, 12)),
}


def dim(space: SpaceId) -> int:
    return LAYOUTS[space].dim


def _vec3(v, name: str) -> Vec3:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {a.shape}")
    x, y, z = a.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"{name} has non-finite components")
    return a


class CotSO3State(_Frozen):
    """Point of the rotational phase space: attitude R and spatial angular momentum pi."""

    _fields = ("R", "pi")

    def __init__(self, R: Mat3, pi: Vec3):
        object.__setattr__(self, "R", require_rotation(R))
        object.__setattr__(self, "pi", _vec3(pi, "pi"))


class Se3DualPoint(_Frozen):
    """General point (nu, pi) of the Euclidean algebra dual; on the unit-sphere
    slice W1 it represents a reduced rotational state."""

    _fields = ("nu", "pi")

    def __init__(self, nu: Vec3, pi: Vec3):
        object.__setattr__(self, "nu", _vec3(nu, "nu"))
        object.__setattr__(self, "pi", _vec3(pi, "pi"))


class FullState(_Frozen):
    """Rigid-body state in the inertial frame: position x, attitude R,
    linear momentum p, intrinsic angular momentum pi."""

    _fields = ("x", "R", "p", "pi")

    def __init__(self, x: Vec3, R: Mat3, p: Vec3, pi: Vec3):
        object.__setattr__(self, "x", _vec3(x, "x"))
        object.__setattr__(self, "R", require_rotation(R))
        object.__setattr__(self, "p", _vec3(p, "p"))
        object.__setattr__(self, "pi", _vec3(pi, "pi"))


class ReducedState(_Frozen):
    """Quotient state (x, p, nu, pi) with nu on the unit sphere."""

    _fields = ("x", "p", "nu", "pi")

    def __init__(self, x: Vec3, p: Vec3, nu: Vec3, pi: Vec3):
        object.__setattr__(self, "x", _vec3(x, "x"))
        object.__setattr__(self, "p", _vec3(p, "p"))
        nu = _vec3(nu, "nu")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "pi", _vec3(pi, "pi"))
        w = nu.tolist()
        defect = abs(_dot(w, w) - 1.0)
        if defect > ADMISSION_TOL:
            raise ValueError(f"|nu|^2 - 1 = {defect:.3e} exceeds {ADMISSION_TOL:.1e}")


_STATE_TYPES = {
    SpaceId.CotSO3: CotSO3State,
    SpaceId.Se3Dual: Se3DualPoint,
    SpaceId.CotSE3: FullState,
    SpaceId.Reduced: ReducedState,
}

State = CotSO3State | Se3DualPoint | FullState | ReducedState

# Per space, (field name, chart block, shape) in the order of the state type's _fields.
_FIELDS = {
    space: tuple(
        (name, getattr(LAYOUTS[space], name.lower()), (3, 3) if name == "R" else (3,))
        for name in cls._fields
    )
    for space, cls in _STATE_TYPES.items()
}


def chart_vector(space: SpaceId, z) -> np.ndarray:
    """z as a float array, or DimensionMismatch unless it has the chart's shape."""
    z = np.asarray(z, dtype=float)
    if z.shape != (LAYOUTS[space].dim,):
        raise DimensionMismatch(f"{space.value} chart has dim {LAYOUTS[space].dim}, got shape {z.shape}")
    return z


def flatten(state: State, space: SpaceId) -> np.ndarray:
    """Flat chart vector of a state, per the documented layouts."""
    if not isinstance(state, _STATE_TYPES[space]):
        raise DimensionMismatch(
            f"state of type {type(state).__name__} does not live on {space.value}"
        )
    z = np.empty(LAYOUTS[space].dim)
    for name, block, _ in _FIELDS[space]:
        z[block] = getattr(state, name).ravel()
    return z


def unflatten(space: SpaceId, z: np.ndarray) -> State:
    """Exact inverse of flatten; validates the per-type invariants."""
    z = chart_vector(space, z)
    return _STATE_TYPES[space](**{name: z[block].reshape(shape) for name, block, shape in _FIELDS[space]})


def random_rotation(rng: np.random.Generator) -> Mat3:
    """Haar-uniform rotation: Shoemake's (1992) matrix of a unit quaternion
    (w, x, y, z) by Marsaglia's (1972) method, (w, x) and (y, z) in the unit
    disc by rejection from uniform(-1, 1, 4), then (y, z) scaled onto S^3.
    Only +, -, *, / and one sqrt; 2x, 2y, 2z keep the array expression's bits."""
    while True:
        w, x, y, z = rng.uniform(-1.0, 1.0, 4).tolist()
        s1, s2 = w * w + x * x, y * y + z * z
        if s1 < 1.0 and 0.0 < s2 < 1.0:
            break
    k = math.sqrt((1.0 - s1) / s2)
    y, z = y * k, z * k
    x2, y2, z2 = x + x, y + y, z + z
    xx, yy, zz, xy, xz, yz, wx, wy, wz = x * x2, y * y2, z * z2, x * y2, x * z2, y * z2, w * x2, w * y2, w * z2
    return np.array([1.0 - (yy + zz), xy - wz, xz + wy, xy + wz, 1.0 - (xx + zz), yz - wx,
                     xz - wy, yz + wx, 1.0 - (xx + yy)]).reshape(3, 3)


def random_unit(rng: np.random.Generator) -> Vec3:
    v = rng.normal(size=3)
    return v / norm3(v)


def _random_component(rng: np.random.Generator) -> Vec3:
    return rng.uniform(-1, 1, 3)


_DRAWS = {"R": random_rotation, "nu": random_unit}


def random_state(space: SpaceId, seed: int | np.random.Generator) -> State:
    """Deterministic generic test point: R Haar-uniform (random_rotation),
    nu uniform on the sphere, x/p/pi components uniform in [-1, 1], drawn in
    the state's field order: random_chart_point, validated by unflatten."""
    return unflatten(space, random_chart_point(space, seed))


def random_chart_point(space: SpaceId, seed: int | np.random.Generator) -> np.ndarray:
    """Flat chart vector of random_state(space, seed): the draws written into
    one array, with no state built or validated.

    seed is an int, which seeds a new generator, or a Generator, which is
    drawn from as it stands (np.random.default_rng returns it unchanged), so
    successive calls on one Generator give successive points of its stream.
    """
    rng = np.random.default_rng(seed)
    z = np.empty(LAYOUTS[space].dim)
    for name, block, _ in _FIELDS[space]:
        z[block] = _DRAWS.get(name, _random_component)(rng).ravel()
    return z
