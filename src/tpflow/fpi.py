"""Single-case fixed-point power flow.

The demand-node balance is rearranged into the iteration

    v_(n+1) = F (v_(n)*)^(-1) + w

with constant matrices built once per operating point:

    A = diag(alpha_p . s*)
    B = diag(alpha_z . s*) + Y_dd
    c = Y_ds v_s + alpha_i . s*
    F = -B^(-1) A,   w = -B^(-1) c

where ``.`` is elementwise product and ``(.)^(-1)`` the elementwise
reciprocal.  F and w are applied through a single LU factorization of B.

Every fixed-point path in the package (this solver, the dense and sparse
batches and the two-bus basin scan) runs the same update through
:func:`fixed_point`; they differ only in how they apply ``B^(-1)``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .network import NetworkModel

__all__ = [
    "SolveOptions",
    "SolveResult",
    "FpiMatrices",
    "SingularSystemError",
    "factorize",
    "factorization_count",
    "assemble_fpi",
    "fpi_solve",
    "power_residual",
    "contraction_estimate",
]

# below this magnitude an iterate entry is perturbed; 1/conj(v) is singular
# at the origin and basin scans must survive near-zero starts
ZERO_VOLTAGE_GUARD = 1e-12


class SingularSystemError(RuntimeError):
    """Raised when the constant iteration matrix B cannot be factorized."""


_factorizations = 0
_counter_lock = threading.Lock()


def factorization_count() -> int:
    """Monotone count of :func:`factorize` calls that succeeded."""
    return _factorizations


def factorize(matrix):
    """Fill-reducing ordering, symbolic analysis and numeric factorization.

    The package's one sparse LU apart from Newton's Jacobian:
    :func:`assemble_fpi`, the sparse batch path, :func:`tpflow.network.validate`
    and the Thevenin read-off in :mod:`tpflow.synth` all call it.
    ``matrix`` is a square scipy sparse matrix, converted to complex CSC
    unless it already is.  Returns scipy's ``SuperLU`` object, whose
    ``solve`` accepts one or many right-hand sides.  Singular input raises
    :class:`SingularSystemError` naming structurally empty rows/columns when
    those are the cause.
    """
    global _factorizations
    m = matrix.tocsc().astype(complex, copy=False)
    if m.shape[0] != m.shape[1]:
        raise ValueError("factorize requires a square matrix")
    try:
        lu = splu(m)
    except RuntimeError as exc:
        empty_rows = np.where(np.diff(m.tocsr().indptr) == 0)[0]
        empty_cols = np.where(np.diff(m.indptr) == 0)[0]
        where = []
        if empty_rows.size:
            where.append(f"empty rows {empty_rows[:8].tolist()}")
        if empty_cols.size:
            where.append(f"empty columns {empty_cols[:8].tolist()}")
        detail = f" ({'; '.join(where)})" if where else ""
        raise SingularSystemError(
            f"sparse factorization failed: {exc}{detail}"
        ) from exc
    with _counter_lock:
        _factorizations += 1
    return lu


@dataclass(frozen=True)
class SolveOptions:
    """Iteration controls shared by the FPI and NR solvers."""

    tolerance: float = 1e-10
    max_iterations: int = 100
    initial_voltage: np.ndarray | None = None
    residual_tolerance: float = 1e-8
    compute_contraction: bool = False

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class SolveResult:
    """Converged (or final) voltages plus convergence diagnostics."""

    v: np.ndarray
    iterations: int
    converged: bool
    residual: float
    contraction_k: float | None = None
    diagnostic: str | None = None
    # per-iteration max-norm and 1-norm step sizes, for convergence analysis
    step_inf: np.ndarray = field(default_factory=lambda: np.empty(0))
    step_l1: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class FpiMatrices:
    """Constant terms of the iteration for one operating point.

    ``a`` is the diagonal of A; ``F`` is available explicitly via
    :meth:`f_dense` but the solver applies it through ``lu``.
    """

    a: np.ndarray
    B: sparse.csc_matrix
    c: np.ndarray
    w: np.ndarray
    lu: object

    def f_dense(self) -> np.ndarray:
        """Materialize F = -B^(-1) diag(a) (small systems / inspection)."""
        return -self.lu.solve(np.diag(self.a).astype(complex))


def assemble_fpi(model: NetworkModel, s: np.ndarray) -> FpiMatrices:
    """Build A, B, c, F, w for demand powers ``s`` (consumption positive)."""
    s = np.asarray(s, dtype=complex).ravel()
    b = model.n_demand
    if s.shape[0] != b:
        raise ValueError(f"load vector sized {s.shape[0]}, expected {b}")
    zc = model.zip
    sc = np.conj(s)
    a = zc.alpha_p * sc
    B = sparse.diags(zc.alpha_z * sc) + model.admittance.y_dd
    c = model.source_injection() + zc.alpha_i * sc
    lu = factorize(B)
    w = -lu.solve(c.astype(complex))
    return FpiMatrices(a=a, B=B, c=c, w=w, lu=lu)


def start_voltage(
    model: NetworkModel, opts: SolveOptions, tau: int = 1
) -> np.ndarray:
    """First iterate, b x tau in Fortran order; every solver starts here.

    Every column is ``opts.initial_voltage`` when given, else the flat start
    |v_s|.  A start of the wrong length raises :class:`ValueError`.
    """
    if opts.initial_voltage is None:
        v0 = np.full(model.n_demand, abs(model.slack.v_s) * (1.0 + 0.0j))
    else:
        v0 = np.asarray(opts.initial_voltage, dtype=complex).ravel()
        if v0.shape[0] != model.n_demand:
            raise ValueError("initial voltage length mismatch")
    v = np.empty((model.n_demand, tau), dtype=complex, order="F")
    v[:] = v0[:, None]
    return v


@dataclass
class FixedPointRun:
    """Outcome of :func:`fixed_point`, per column and per iteration."""

    v: np.ndarray  # final iterate, b x tau
    iterations: int
    # iteration at which the column's max step first fell under the
    # tolerance; 0 if it never did
    first_converged: np.ndarray
    non_finite: np.ndarray  # the column left the run on a non-finite step
    guarded_at: int  # last iteration the zero-voltage guard fired, 0 if none
    # max and sum of |dv| over all columns (NaN once a column is non-finite)
    step_inf: list[float]
    step_l1: list[float]


def fixed_point(
    apply_z, a: np.ndarray, w: np.ndarray, v: np.ndarray,
    tolerance: float, max_iterations: int,
) -> FixedPointRun:
    """Iterate ``v <- apply_z(a / v*) + w`` over the columns of ``v``.

    ``v`` is the b x tau start and is overwritten; ``a`` and ``w`` broadcast
    against it.  ``apply_z`` applies the linear map (a dense ``Z_B``, an LU
    solve, a scalar) to a b x tau array; it may return its argument, which
    is not read again.  Iterate entries under ``ZERO_VOLTAGE_GUARD`` in
    magnitude are raised to it before the update.

    Stop rule: a column is recorded at the first iteration its max |dv|
    falls under ``tolerance``; a column whose ``a`` is all zero is recorded
    at the first iteration, since its map is constant.  The run stops when
    every column is recorded or has had a non-finite step, or after
    ``max_iterations``.  A non-finite column thus never holds the others
    open; recorded columns keep iterating until the run stops.
    """
    # int + bool broadcasts the A = 0 shortcut over the tau columns
    first = np.zeros(v.shape[1], dtype=int) + ~np.any(a, axis=0)
    pending = first == 0
    u = np.empty_like(v)
    step_inf: list[float] = []
    step_l1: list[float] = []
    guarded_at = n = 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while n < max_iterations:
            n += 1
            small = np.abs(v) < ZERO_VOLTAGE_GUARD
            if small.any():
                np.copyto(v, ZERO_VOLTAGE_GUARD * (1.0 + 0.0j), where=small)
                guarded_at = n
            np.conjugate(v, out=u)
            np.divide(a, u, out=u)
            v_next = apply_z(u)
            v_next += w
            # the old iterate's storage takes the step, then the next scratch
            np.subtract(v_next, v, out=v)
            dv = np.abs(v)
            col = dv.max(axis=0)
            met = pending & (col < tolerance)
            first[met] = n
            pending &= np.isfinite(col) & ~met
            step_inf.append(float(col.max()))
            step_l1.append(float(dv.sum()))
            u, v = v, v_next
            if not pending.any():
                break
    return FixedPointRun(
        v=v, iterations=n, first_converged=first,
        non_finite=~pending & (first == 0), guarded_at=guarded_at,
        step_inf=step_inf, step_l1=step_l1,
    )


def fpi_solve(
    model: NetworkModel, s: np.ndarray, opts: SolveOptions = SolveOptions()
) -> SolveResult:
    """Fixed-point iteration until max|dv| < tolerance or the iteration cap.

    The tau = 1 case of :func:`fixed_point`, applying ``B^(-1)`` through the
    LU of B.  Convergence is confirmed by a mandatory power-residual
    post-check; non-convergence is reported in the result, not raised.
    """
    s = np.asarray(s, dtype=complex).ravel()
    mats = assemble_fpi(model, s)
    run = fixed_point(
        mats.lu.solve, -mats.a[:, None], mats.w[:, None],
        start_voltage(model, opts), opts.tolerance, opts.max_iterations,
    )
    v = run.v[:, 0]
    diagnostic = None
    if run.non_finite[0]:
        diagnostic = f"diverged: non-finite iterate at iteration {run.iterations}"
    elif run.guarded_at:
        diagnostic = f"zero-voltage guard applied at iteration {run.guarded_at}"

    with np.errstate(invalid="ignore", over="ignore"):
        residual = power_residual(model, v, s)
    converged = bool(run.first_converged[0]) and residual < opts.residual_tolerance
    k = None
    if opts.compute_contraction and np.all(np.isfinite(v.view(float))):
        # A = 0 makes the map constant, so it contracts with k = 0
        k = contraction_estimate(model, v, s) if mats.a.any() else 0.0
    return SolveResult(
        v=v,
        iterations=run.iterations,
        converged=converged,
        residual=residual,
        contraction_k=k,
        diagnostic=diagnostic,
        step_inf=np.array(run.step_inf),
        step_l1=np.array(run.step_l1),
    )


def zip_power(model: NetworkModel, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Power drawn by the ZIP load at voltage ``v``.

    ``v`` and ``s`` are b-vectors or b x tau arrays; the per-node alphas
    broadcast over any trailing case axis.  The constant-current fraction
    holds the current phasor at its nominal value, so its power term scales
    with complex v (not |v|).
    """
    zc = model.zip
    shape = (-1,) + (1,) * (np.ndim(v) - 1)
    az, ai, ap = (a.reshape(shape) for a in (zc.alpha_z, zc.alpha_i, zc.alpha_p))
    return az * s * np.abs(v) ** 2 + ai * s * v + ap * s


def residual_per_case(
    model: NetworkModel, v: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Max nodal power-balance error; columns are cases for 2-D input."""
    v = np.asarray(v, dtype=complex)
    s = np.asarray(s, dtype=complex)
    src = model.source_injection()
    if v.ndim == 2:
        src = src[:, None]
    mismatch = zip_power(model, v, s) + v * np.conj(src + model.admittance.y_dd @ v)
    return np.abs(mismatch).max(axis=0)


def power_residual(model: NetworkModel, v: np.ndarray, s: np.ndarray) -> float:
    """Max over nodes of |s_zip(v) + v * conj(Y_ds v_s + Y_dd v)|."""
    return float(residual_per_case(model, v, s))


def contraction_estimate(
    model: NetworkModel, v: np.ndarray, s: np.ndarray
) -> float:
    """Contraction scalar k = ||B^(-1) diag(1/z_l)||_1 at the point ``v``.

    z_l = |v|^2 / s* is the equivalent load impedance per node; zero-load
    nodes contribute nothing (infinite load impedance).  The 1-norm is the
    maximum absolute column sum, so

        k = max_j  colsum_j(|B^(-1)|) * |s_j| / |v_j|^2

    k < 1 certifies the iteration is a contraction at the solution.
    """
    s = np.asarray(s, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    if np.any(np.abs(v) == 0):
        raise ValueError("contraction estimate requires nonzero voltages")
    mats = assemble_fpi(model, s)
    zb = mats.lu.solve(np.eye(model.n_demand, dtype=complex))
    colsums = np.abs(zb).sum(axis=0)
    inv_zl = np.abs(s) / np.abs(v) ** 2
    return float(np.max(colsums * inv_zl, initial=0.0))
