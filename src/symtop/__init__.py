"""Poisson geometry of the symmetric top.

Implements the reduction chain from the full rigid-body phase space to the
quotient by the body-axis circle action, with numerically certified bracket
tables, Casimir invariants, coadjoint orbits, the magnetic orbit 2-form, and
dynamics that provably commute with the reduction.
"""

from .algebra3 import exp_so3, hat, reorthonormalize, vee
from .dynamics import (
    BodyParams,
    DipolePotential,
    LinearGravity,
    Potential,
    SumPotential,
    Trajectory,
    ZeroPotential,
    commutation_residual,
    free_top_analytic,
    hamiltonian_field,
    simulate,
    step,
)
from .orbits import (
    OrbitLevel,
    SE3Element,
    casimirs,
    coadjoint,
    magnetic_form,
    same_orbit_witness,
)
from .phase import (
    CotSO3State,
    FullState,
    ReducedState,
    Se3DualPoint,
    SpaceId,
    flatten,
    random_state,
    unflatten,
)
from .poisson import (
    ScalarField,
    bracket,
    coordinate,
    ham_vector_field,
    structure_matrix,
)
from .reduction import (
    poisson_map_residual,
    project_full,
    right_action,
    section,
    tau,
    tilde_tau,
    z_rotation,
)

__version__ = "0.1.0"
