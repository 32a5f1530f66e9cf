"""Scatter estimation from subspace-valued data.

Geometry of unimodular SPD matrices, Gaussian-induced distributions on
Grassmannians, the averaged subspace log-likelihood with exact Riemannian
derivatives, a Newton-first fixed-point solver, existence diagnostics, and
Monte Carlo verification of the consistency and fluctuation limits.
"""

from .asymptotics import (
    CLTReport,
    LLNReport,
    clt_experiment,
    limiting_covariance,
    lln_experiment,
    whiten_normalize,
)
from .diagnostics import (
    Candidate,
    ExistenceReport,
    VelocityFlag,
    asymptotic_slope,
    decompose_velocity,
    existence_index,
    unique_sample_threshold,
)
from .errors import (
    DegeneracyError,
    DomainError,
    ExistenceError,
    GrassmannScatterError,
    UsageError,
)
from .estimator import (
    GEResult,
    SolverOptions,
    diagnose,
    fixed_point_solve,
    residual,
)
from .grassmann import (
    Empirical,
    Gaussian,
    Measure,
    act,
    act_measure,
    busemann,
    check_basis,
    cocycle,
    density_ratio,
    dim_intersection,
    distinguished_ray_direction,
    modular_parabolic,
    orthonormalize,
    projector,
    sample,
)
from .likelihood import (
    grad,
    grad_norm_sq,
    hess_quadform,
    loglik,
    loglik_point,
    mean_projector,
)
from .manifold import (
    check_scatter,
    check_tangent,
    distance,
    geodesic,
    inner,
    log_map,
    manifold_dim,
    normalize_det,
    random_scatter,
    random_unit_tangent,
    sym_sqrt,
    tangent_project,
    tangent_vec_projector,
    unvec,
    vec,
)

__version__ = "0.1.0"
