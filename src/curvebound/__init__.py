"""Bound states of a relativistic scalar particle pinned to closed curves.

A particle of mass m in (-m, m) energy range interacts with a family of
closed curves through renormalized contact terms; the spectrum is carried by
the zeros of the lowest eigenvalue of an N x N principal matrix built from
subordinated heat-kernel integrals on the ambient manifold (flat space, flat
torus, or hyperbolic space).  The package also evaluates closed-form spectral
bounds and the renormalization-group flow of the coupling.
"""

from .manifolds import (
    DomainError,
    Euclidean3,
    FlatTorus3,
    Hyperbolic3,
    ManifoldSpec,
    circle_heat_kernel,
    geodesic_distance,
    heat_kernel,
    heat_kernel_grid,
    pair_displacement,
    displacement_distance,
    volume,
)
from .curves import (
    Circle,
    CurveFamily,
    CurveSpec,
    ParametricSamples,
    SampledCurve,
    TorusLoop,
    ValidationError,
    family_geometry,
    resample_arclength,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    PairKernelValue,
    QuadratureConfig,
    SingWindowConfig,
    flat_resolvent_oracle,
    pair_kernel_derivative,
    pair_kernel_plain,
    pair_kernel_renormalized,
)
from .principal import (
    ConvergenceError,
    MinimalBoundState,
    Prescription,
    PrincipalMatrix,
    RGScale,
    assemble,
    derivative_matrix,
    family_fingerprint,
    rg_assemble,
)
from .spectrum import (
    FeynmanHellmanResult,
    GroundState,
    SpectralFlowResult,
    eigen_decompose,
    feynman_hellman_residual,
    ground_state_energy,
    spectral_flow,
)
from .bounds import (
    BoundConstants,
    GersgorinResult,
    diagonal_lower_bound,
    euclidean_constants,
    gersgorin_threshold,
    near_diagonal_envelope,
    offdiagonal_upper_bound,
)
from .rgflow import (
    FlowPoleError,
    FlowResult,
    beta,
    flow_coupling,
    flow_profile,
    ode_flow_values,
    rg_invariance_residual,
)
from .config import (
    BoundsTask,
    ConfigError,
    FlowTask,
    RunConfig,
    ScanTask,
    SolveTask,
    ValidateTask,
    parse_config,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
