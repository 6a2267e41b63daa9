"""memfem: mixed finite elements for saddle-point systems with memory.

A small numpy/scipy toolkit for hereditary (Volterra) saddle-point
problems: a trapezoid time stepper for block systems with memory
kernels, two concrete drivers (the Laplace problem with memory in
RT0 x P0 and a locking-free bending-moment Timoshenko beam in
P1^2 x P0^2), a convergence-rate harness, and calculators for the
explicit stability and error constants of the underlying theory.
"""

from .errors import (
    ConfigError,
    EstimatorError,
    MemfemError,
    OracleError,
    SaddleSolverError,
    StabilityGateError,
)
from .kernels import (
    CreepFactor,
    MemoryKernel,
    PronySLS,
    beam_kernel,
    closed_form_creep,
    creep_factor,
    fickian_kernel,
    modulus_kernel,
    sls_relaxation,
)
from .mesh import Mesh1D, TriMesh, structured_unit_square, uniform_mesh1d
from .sparsela import (
    SaddleFactorization,
    factorize_saddle,
    infsup_estimate,
    kernel_ellipticity,
    operator_norm_estimate,
)
from .volterra import (
    BlockSaddleSystem,
    ErrorConstants,
    HistoryBuffer,
    L1NormAccumulator,
    StabilityConstants,
    TimeGrid,
    VolterraStepper,
    error_constants,
    history_sum,
    stability_constants,
    step,
)
from .beam import (
    BeamConfig,
    BeamProblem,
    assemble_beam_a,
    assemble_beam_b,
    beam_exact_reference,
    beam_rhs,
    joined_profile,
    smooth_profile,
)
from .laplace_mem import (
    LaplaceProblem,
    ManufacturedSolution,
    RT0Space,
    assemble_rt0_div,
    assemble_rt0_mass,
)
from .report import ConvergenceReport, LevelRow, rates_from_errors

__version__ = "0.1.0"
