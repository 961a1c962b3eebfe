"""Batched fixed-point power flow for distribution networks.

Single-case, dense-tensor and sparse-tensor solvers over a shared network
model, a Newton-Raphson cross-check, a two-bus solvability lab, synthetic
network/scenario generators and a benchmark harness with complexity fitting.

The names here are the ones a user calls; return types and plumbing
(``VoltageBatch``, ``SolveResult``, ``factorize`` and the like) stay
importable from their modules.
"""

from .bench import BenchConfig, fit_complexity, run_benchmark, solve_batch
from .dense import LoadMatrix, batch_solve_dense
from .fpi import (
    SingularSystemError,
    SolveOptions,
    contraction_estimate,
    fpi_solve,
    power_residual,
)
from .network import (
    Branch,
    NetworkError,
    NetworkModel,
    SlackSpec,
    ZipCoefficients,
    validate,
)
from .newton import nr_solve
from .sparse import batch_solve_sparse
from .synth import GenSpec, build_network, gen_scenarios
from .twobus import (
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
    "SlackSpec",
    "ZipCoefficients",
    "validate",
    "SingularSystemError",
    "SolveOptions",
    "fpi_solve",
    "power_residual",
    "contraction_estimate",
    "LoadMatrix",
    "batch_solve_dense",
    "batch_solve_sparse",
    "nr_solve",
    "TwoBusSystem",
    "closed_form_solutions",
    "load_circles",
    "radical_intercept",
    "tangency_altitude",
    "feasibility_parabola",
    "norm_feasible",
    "basin_scan",
    "BenchConfig",
    "run_benchmark",
    "fit_complexity",
    "solve_batch",
    "GenSpec",
    "gen_scenarios",
    "build_network",
    "__version__",
]
