"""Benchmark harness over (method x grid size x case count) and the
asymptotic complexity fit t = c * n^k.

Each cell times one full solve, including per-method setup (matrix
inversion, factorization, per-case assembly) but excluding file I/O and
network generation.  The wall time recorded is the median of the timed
repeats, on the monotonic clock, after the warm-up runs: ``warmup`` of them
and then more until two in a row agree and a second has passed (see
``_WARMUP_CAP``).
"""

from __future__ import annotations

import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dense import LoadMatrix, batch_solve_dense, solve_cases
from .fpi import SolveOptions, fpi_solve
from .newton import nr_solve
from .sparse import batch_solve_sparse
from .synth import GenSpec, build_network, gen_scenarios

__all__ = [
    "METHODS",
    "BenchRecord",
    "BenchConfig",
    "ComplexityFit",
    "run_benchmark",
    "fit_complexity",
    "solve_batch",
]

METHODS = ("fpi", "dense", "sparse", "nr")


@dataclass(frozen=True)
class BenchRecord:
    """One timed benchmark cell."""

    method: str
    b_phi: int
    tau: int
    wall_seconds: float
    iterations: int
    repeats: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class BenchConfig:
    """The cells of a benchmark run and how each is timed.

    ``timeout`` is checked once a cell's solve has returned: a cell that ran
    longer is recorded as failed.  It does not interrupt a running solve.
    """

    methods: tuple[str, ...] = METHODS
    sizes: tuple[int, ...] = (9, 100)
    taus: tuple[int, ...] = (1, 100)
    seed: int = 0
    repeats: int = 3
    warmup: int = 1
    timeout: float = 300.0
    options: SolveOptions = field(default_factory=SolveOptions)

    def __post_init__(self) -> None:
        if not (self.methods and self.sizes and self.taus):
            raise ValueError("methods, sizes and taus must be non-empty")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def solve_batch(method: str, model, loads: LoadMatrix,
                opts: SolveOptions = SolveOptions()):
    """Run one batch with the chosen method; returns a VoltageBatch.

    "fpi" and "nr" loop over cases; "dense" and "sparse" solve jointly.
    Output column j always corresponds to input case j.
    """
    if method == "dense":
        return batch_solve_dense(model, loads, opts)
    if method == "sparse":
        return batch_solve_sparse(model, loads, opts)
    if method == "fpi":
        return solve_cases(fpi_solve, model, loads, opts)
    if method == "nr":
        return solve_cases(nr_solve, model, loads, opts)
    raise ValueError(f"unknown method {method!r}")


def _timed_solve(method: str, model, loads: LoadMatrix,
                 config: BenchConfig) -> tuple[float, int]:
    """Run one method over the whole batch; returns seconds and iterations."""
    t0 = time.perf_counter()
    iterations = solve_batch(method, model, loads, config.options).iterations
    dt = time.perf_counter() - t0
    if dt > config.timeout:
        raise TimeoutError(f"cell exceeded the {config.timeout:.0f}s timeout")
    return dt, iterations


def run_benchmark(config: BenchConfig) -> list[BenchRecord]:
    """Time every (size, tau, method) cell on freshly generated inputs.

    Cells that fail or exceed the per-cell timeout are recorded with an
    error marker; the run continues.
    """
    records: list[BenchRecord] = []
    for b_phi in config.sizes:
        spec = GenSpec(n_buses=b_phi + 1, seed=config.seed + b_phi)
        model = build_network(spec)
        for tau in config.taus:
            loads = gen_scenarios(model, tau, spec)
            for method in config.methods:
                records.append(
                    _time_cell(method, model, loads, b_phi, tau, config)
                )
    return records


# A BLAS thread pool can stall the first solves of a process for several
# times their settled duration, so a cell that warms up at all keeps warming
# up until two consecutive runs agree within _WARMUP_AGREEMENT, at most
# _WARMUP_CAP runs in all.  After an idle spell such a stall held a 2 ms
# solve at about 200 ms for about a second, long enough for stalled runs to
# agree with each other, so the warm-up also lasts _WARMUP_SECONDS.
_WARMUP_CAP = 10
_WARMUP_AGREEMENT = 0.1
_WARMUP_SECONDS = 1.0


def _warming_up(warm: list[float], warmup: int) -> bool:
    """Whether another warm-up run is due after the ``warm`` timings."""
    if len(warm) < warmup:
        return True
    if warmup == 0 or len(warm) >= _WARMUP_CAP:
        return False
    if len(warm) < 2 or sum(warm) < _WARMUP_SECONDS:
        return True
    a, b = warm[-2:]
    return abs(a - b) > _WARMUP_AGREEMENT * min(a, b)


def _time_cell(method, model, loads, b_phi, tau, config) -> BenchRecord:
    warm: list[float] = []
    times: list[float] = []
    iterations = 0
    try:
        while _warming_up(warm, config.warmup):
            warm.append(_timed_solve(method, model, loads, config)[0])
        for _ in range(config.repeats):
            dt, iterations = _timed_solve(method, model, loads, config)
            times.append(dt)
    except Exception as exc:  # per-cell failures must not stop the sweep
        return BenchRecord(
            method=method, b_phi=b_phi, tau=tau,
            wall_seconds=float("nan"), iterations=0,
            repeats=len(times), error=f"{type(exc).__name__}: {exc}",
        )
    return BenchRecord(
        method=method, b_phi=b_phi, tau=tau,
        wall_seconds=statistics.median(times), iterations=iterations,
        repeats=len(times),
    )


@dataclass(frozen=True)
class ComplexityFit:
    """Least-squares fit of log t = log c + k log n."""

    c: float
    k: float
    r_squared: float
    variable: str
    n_points: int


# the fewest distinct sizes a fit accepts
_MIN_POINTS = 3


def fit_complexity(records: list[BenchRecord], variable: str) -> ComplexityFit:
    """Fit t = c * n^k over records that vary only the chosen variable.

    ``variable`` is "tau" or "b_phi".  Four or more points give a meaningful
    exponent; three are accepted as the hard floor.  Records with
    nonpositive or failed timings are excluded with a warning.
    """
    if variable not in ("tau", "b_phi"):
        raise ValueError("variable must be 'tau' or 'b_phi'")
    usable = []
    for rec in records:
        if not rec.ok or not np.isfinite(rec.wall_seconds) or rec.wall_seconds <= 0:
            warnings.warn(
                f"excluding unusable record {rec.method} b_phi={rec.b_phi} "
                f"tau={rec.tau} ({rec.error or 'nonpositive time'})",
                stacklevel=2,
            )
            continue
        usable.append(rec)
    if len({r.method for r in usable}) > 1:
        raise ValueError("fit mixes methods; filter the records first")
    other = "b_phi" if variable == "tau" else "tau"
    if len({getattr(r, other) for r in usable}) > 1:
        raise ValueError(f"fit requires a fixed {other}; filter the records first")

    n = np.array([getattr(r, variable) for r in usable], dtype=float)
    t = np.array([r.wall_seconds for r in usable])
    if len(usable) < _MIN_POINTS or len(np.unique(n)) < _MIN_POINTS:
        raise ValueError(
            f"need at least {_MIN_POINTS} distinct {variable} values, "
            f"got {len(np.unique(n))}"
        )
    log_n, log_t = np.log(n), np.log(t)
    k, log_c = np.polyfit(log_n, log_t, 1)
    pred = k * log_n + log_c
    ss_res = float(np.sum((log_t - pred) ** 2))
    ss_tot = float(np.sum((log_t - log_t.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ComplexityFit(
        c=float(np.exp(log_c)), k=float(k), r_squared=r2,
        variable=variable, n_points=len(usable),
    )
