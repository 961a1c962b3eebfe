"""Batched fixed-point power flow for distribution networks.

Single-case, dense-tensor and sparse-tensor solvers over a shared network
model, a Newton-Raphson cross-check, a two-bus solvability lab, synthetic
network/scenario generators and a benchmark harness with complexity fitting.
"""

from .bench import (
    BenchConfig,
    BenchRecord,
    ComplexityFit,
    fit_complexity,
    run_benchmark,
    solve_batch,
)
from .dense import (
    LoadMatrix,
    PowerTensor,
    VoltageBatch,
    batch_solve_dense,
    reshape_tensor,
    unreshape,
)
from .fpi import (
    FpiMatrices,
    SingularSystemError,
    SolveOptions,
    SolveResult,
    assemble_fpi,
    contraction_estimate,
    fpi_solve,
    power_residual,
)
from .network import (
    Branch,
    NetworkError,
    NetworkModel,
    PartitionedAdmittance,
    SlackSpec,
    ZipCoefficients,
    build_admittance,
    radial_check,
    validate,
)
from .newton import nr_iteration_count, nr_solve
from .sparse import batch_solve_sparse, factorization_count, factorize
from .synth import GenSpec, assign_impedances, build_network, gen_kary_tree, gen_scenarios
from .twobus import (
    BasinMap,
    CirclePair,
    ParabolaCoeffs,
    TwoBusSystem,
    basin_scan,
    closed_form_solutions,
    feasibility_parabola,
    load_circles,
    norm_feasible,
    radical_intercept,
    tangency_altitude,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "NetworkError",
    "NetworkModel",
    "PartitionedAdmittance",
    "SlackSpec",
    "ZipCoefficients",
    "build_admittance",
    "radial_check",
    "validate",
    "FpiMatrices",
    "SingularSystemError",
    "SolveOptions",
    "SolveResult",
    "assemble_fpi",
    "fpi_solve",
    "power_residual",
    "contraction_estimate",
    "PowerTensor",
    "LoadMatrix",
    "VoltageBatch",
    "reshape_tensor",
    "unreshape",
    "batch_solve_dense",
    "batch_solve_sparse",
    "factorize",
    "factorization_count",
    "nr_solve",
    "nr_iteration_count",
    "TwoBusSystem",
    "CirclePair",
    "ParabolaCoeffs",
    "BasinMap",
    "closed_form_solutions",
    "load_circles",
    "radical_intercept",
    "tangency_altitude",
    "feasibility_parabola",
    "norm_feasible",
    "basin_scan",
    "BenchConfig",
    "BenchRecord",
    "ComplexityFit",
    "run_benchmark",
    "fit_complexity",
    "solve_batch",
    "GenSpec",
    "gen_kary_tree",
    "assign_impedances",
    "gen_scenarios",
    "build_network",
    "__version__",
]
