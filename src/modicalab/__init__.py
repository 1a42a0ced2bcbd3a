"""Numerical laboratory for gradient bounds of semilinear elliptic systems.

The package verifies, at desk scale, the objects behind the pointwise
gradient estimate 0.5 |grad u|^2 <= W(u) for solutions of Lap u = grad W(u):
a periodic planar connection that violates the estimate for systems, the
P-function machinery that restores it under structural hypotheses, and the
planar stress-energy tensor with its convex auxiliary function and
monotonicity formulas.
"""

from .counterexample import PeriodicConnection, assemble, verify_counterexample
from .dynamics import OrbitFamily, PhasePoint, Trajectory, integrate, integrate_many, orbit_family
from .estimates import (
    DefectReport,
    DiagonalSystemConfig,
    HypothesisError,
    PhiBarrier,
    ball_confinement_check,
    ball_samples,
    convex_well_check,
    diagonal_system_check,
    gl_pointwise_bound,
    modica_defect,
    ode_bound_check,
    polygon_confinement_check,
    speed_envelope_check,
)
from .fields import (
    CATALOG_IDS,
    ClosedFormField,
    GridField,
    Jet2,
    grid_jets,
    load_gridfield,
    make_field,
    sample_field,
    save_gridfield,
)
from .planar import (
    MonotoneProfile,
    UField,
    disk_integral,
    divergence_residual,
    green_boundary_identity,
    hessian_U,
    monotonicity_profile,
    reconstruct_U,
    stress_tensor,
)
from .potentials import POTENTIAL_IDS, Potential, make_potential
from .solver import RelaxConfig, RelaxResult, relax

__version__ = "0.1.0"

__all__ = [
    "PeriodicConnection",
    "assemble",
    "verify_counterexample",
    "OrbitFamily",
    "PhasePoint",
    "Trajectory",
    "integrate",
    "integrate_many",
    "orbit_family",
    "DefectReport",
    "DiagonalSystemConfig",
    "HypothesisError",
    "PhiBarrier",
    "ball_confinement_check",
    "ball_samples",
    "convex_well_check",
    "diagonal_system_check",
    "gl_pointwise_bound",
    "modica_defect",
    "ode_bound_check",
    "polygon_confinement_check",
    "speed_envelope_check",
    "CATALOG_IDS",
    "ClosedFormField",
    "GridField",
    "Jet2",
    "grid_jets",
    "load_gridfield",
    "make_field",
    "sample_field",
    "save_gridfield",
    "MonotoneProfile",
    "UField",
    "disk_integral",
    "divergence_residual",
    "green_boundary_identity",
    "hessian_U",
    "monotonicity_profile",
    "reconstruct_U",
    "stress_tensor",
    "POTENTIAL_IDS",
    "Potential",
    "make_potential",
    "RelaxConfig",
    "RelaxResult",
    "relax",
    "__version__",
]
