"""Single-case fixed-point power flow.

The demand-node balance is rearranged into the iteration

    v_(n+1) = B^(-1) (a / v_(n)* + c)

with constant terms built once per operating point:

    a = -alpha_p . s*
    B = diag(alpha_z . s*) + Y_dd
    c = -(Y_ds v_s + alpha_i . s*)

where ``.`` is elementwise product and ``/`` elementwise division.  This is
the paper's ``v_(n+1) = F (v_(n)*)^(-1) + w`` with ``F = -B^(-1) A``,
``A = diag(alpha_p . s*)`` and ``w = -B^(-1)(Y_ds v_s + alpha_i . s*)``,
written as one application of ``B^(-1)`` per step: ``F`` and ``w`` are
never formed.  ``B^(-1)`` is applied through a single LU factorization of B.

Every fixed-point path in the package (this solver, the dense and sparse
batches and the two-bus basin scan) runs the same update through
:func:`fixed_point`; they differ only in how they apply ``B^(-1)``.  The
single-case solver and the batch driver share one chunk solve,
:func:`solve_chunk`, which builds ``a`` and ``c``, iterates and decides
which cases converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .network import NetworkModel

__all__ = [
    "SolveOptions",
    "SolveResult",
    "SingularSystemError",
    "factorize",
    "fpi_solve",
    "power_residual",
    "contraction_estimate",
]

# below this magnitude an iterate entry is perturbed; 1/conj(v) is singular
# at the origin and basin scans must survive near-zero starts
ZERO_VOLTAGE_GUARD = 1e-12


class SingularSystemError(RuntimeError):
    """Raised when the constant iteration matrix B cannot be factorized."""


def factorize(matrix):
    """Fill-reducing ordering, symbolic analysis and numeric factorization.

    The package's one sparse LU apart from Newton's Jacobian:
    :func:`fpi_solve`, the sparse batch path, :func:`tpflow.network.validate`
    and the Thevenin read-off in :mod:`tpflow.synth` all call it.
    ``matrix`` is a square scipy sparse matrix, converted to complex CSC
    unless it already is.  Returns scipy's ``SuperLU`` object, whose
    ``solve`` accepts one or many right-hand sides.  Singular input raises
    :class:`SingularSystemError` naming structurally empty rows/columns when
    those are the cause.

    SuperLU runs in its symmetric mode: the columns are ordered by minimum
    degree on the pattern of ``A + A^T``, and a diagonal pivot is taken
    whenever it passes scipy's default threshold, so partial pivoting still
    moves off a small or zero diagonal entry.  A branch-built ``Y_dd`` is
    complex symmetric, and on it the factors solve faster than under the
    default COLAMD order, with about the same fill and no slower a
    factorization.  On one core of a shared 2-core x86 machine, symmetric
    against COLAMD: a 1,001-bus feeder's 16-column chunk took 14.8 against
    21.4 us per column and one column 35 against 57 us; a 101-bus feeder's
    163-column chunk 1.1 against 2.1 us per column and one column 5.6
    against 8.7 us.  The mode is correct for a non-symmetric matrix too,
    only not tuned for one.

    ``scipy.sparse.linalg``, and with it ``scipy.linalg``, is imported on
    the first call: about 90 modules that a run factorizing nothing, such as
    a dense batch, never loads.
    """
    from scipy.sparse.linalg import splu

    m = matrix.tocsc().astype(complex, copy=False)
    if m.shape[0] != m.shape[1]:
        raise ValueError("factorize requires a square matrix")
    try:
        lu = splu(m, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
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
    return lu


@dataclass(frozen=True)
class SolveOptions:
    """Iteration controls shared by the FPI and NR solvers."""

    tolerance: float = 1e-10
    max_iterations: int = 100
    initial_voltage: np.ndarray | None = None
    residual_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        # written as ``not x > 0`` so that NaN is rejected too
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not self.residual_tolerance > 0:
            raise ValueError("residual_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class SolveResult:
    """Converged (or final) voltages plus convergence diagnostics."""

    v: np.ndarray
    iterations: int
    converged: bool
    residual: float
    diagnostic: str | None = None
    # per-iteration max-norm step sizes, for convergence analysis
    step_inf: np.ndarray = field(default_factory=lambda: np.empty(0))


def _load_vector(model: NetworkModel, s) -> np.ndarray:
    """One case's loads as a complex b-vector, checked as
    :class:`tpflow.dense.LoadMatrix` checks a batch: a wrong length or a
    non-finite entry raises :class:`ValueError` naming the node."""
    s = np.asarray(s, dtype=complex).ravel()
    b = model.n_demand
    if s.shape[0] != b:
        raise ValueError(f"load vector sized {s.shape[0]}, expected {b}")
    finite = np.isfinite(s)
    if not finite.all():
        node = int(np.argmin(finite))
        raise ValueError(f"non-finite load {s[node]} at node {node}")
    return s


def _factorize_b(model: NetworkModel, s: np.ndarray):
    """LU of ``B = diag(alpha_z . s*) + Y_dd`` for the b-vector ``s``."""
    B = model.y_dd
    if model.zip.alpha_z.any():
        B = sparse.diags(model.zip.alpha_z * np.conj(s)) + B
    return factorize(B)


def start_voltage(model: NetworkModel, opts: SolveOptions) -> np.ndarray:
    """First iterate, b x 1, shared by every case; every solver starts here.

    It is ``opts.initial_voltage`` when given, else the flat start |v_s|.
    A start of the wrong length raises :class:`ValueError`.
    """
    if opts.initial_voltage is None:
        return np.full((model.n_demand, 1), abs(model.slack.v_s) * (1.0 + 0.0j))
    v0 = np.asarray(opts.initial_voltage, dtype=complex).ravel()
    if v0.shape[0] != model.n_demand:
        raise ValueError("initial voltage length mismatch")
    return v0[:, None]


@dataclass
class FixedPointRun:
    """Outcome of :func:`fixed_point`, per column and per iteration."""

    v: np.ndarray  # final iterate, b x tau, Fortran order
    iterations: int
    # iteration at which the column's max step first fell under the
    # tolerance; 0 if it never did
    first_converged: np.ndarray
    non_finite: np.ndarray  # the column left the run on a non-finite step
    guarded_at: int  # last iteration the zero-voltage guard fired, 0 if none
    # max of |dv| over the columns still iterating at each step; a column's
    # non-finite step shows only at the iteration it left on
    step_inf: list[float]


def fixed_point(
    apply_z, a: np.ndarray, c: np.ndarray, start: np.ndarray,
    tolerance: float, max_iterations: int,
) -> FixedPointRun:
    """Iterate ``v <- apply_z(a / v* + c)`` over tau columns.

    Each of ``a``, ``c`` and ``start`` is b x tau (one column per case) or
    b x 1 (shared by every column); tau is the widest of the three.  None of
    them is written to: the run returns its own b x tau final iterate.
    ``apply_z`` applies the linear map (a dense ``Z_B``, an LU solve, a
    scalar) to a b x m array of the m columns still iterating; it may
    return its argument, which is not read again.  Iterate entries under
    ``ZERO_VOLTAGE_GUARD`` in magnitude are raised to it before the update.

    Stop rule: a column is recorded at the first iteration its max |dv|
    falls under ``tolerance``; a column whose ``a`` is all zero is recorded
    at the first iteration, since its map is constant.  A recorded column,
    or one whose step went non-finite, leaves the run at once: its iterate
    from that iteration is its final one, as if it had run alone, and
    ``apply_z`` only sees the columns still pending.  The run stops when no
    column is pending, or after ``max_iterations``.
    """
    b, tau = np.broadcast_shapes(a.shape, c.shape, start.shape)
    # int + bool broadcasts the A = 0 shortcut over the tau columns
    first = np.zeros(tau, dtype=int) + ~np.any(a, axis=0)
    pending = first == 0
    out = np.empty((b, tau), dtype=complex, order="F")
    v = np.empty_like(out)
    v[:] = start
    live = np.arange(tau)  # the column of ``out`` each working column fills
    u = np.empty_like(v)
    step_inf: list[float] = []
    guarded_at = n = 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while n < max_iterations:
            n += 1
            # |v| < guard needs |Re v| < guard, so the cheaper real pass
            # decides whether |v| is computed at all; written as ``not >=``
            # so that a NaN entry sends the iterate to the full check too
            if not np.abs(v.real).min() >= ZERO_VOLTAGE_GUARD:
                small = np.abs(v) < ZERO_VOLTAGE_GUARD
                if small.any():
                    np.copyto(v, ZERO_VOLTAGE_GUARD * (1.0 + 0.0j), where=small)
                    guarded_at = n
            np.conjugate(v, out=u)
            np.divide(a, u, out=u)
            u += c
            v_next = apply_z(u)
            # the old iterate's storage takes the step, then the next scratch
            np.subtract(v_next, v, out=v)
            col = np.abs(v).max(axis=0)
            met = pending & (col < tolerance)
            first[live[met]] = n
            pending &= np.isfinite(col) & ~met
            step_inf.append(float(col.max()))
            u, v = v, v_next
            if pending.all():
                continue
            # the columns that left keep this iterate; the rest are gathered
            out[:, live[~pending]] = v[:, ~pending]
            live = live[pending]
            if not live.size:
                break
            if a.shape[1] == pending.size:
                a = a[:, pending]
            if c.shape[1] == pending.size:
                c = c[:, pending]
            v = v[:, pending]
            u = np.empty_like(v)
            pending = np.ones(live.size, dtype=bool)
    if live.size:
        # the columns still pending at the cap
        out[:, live] = v
    non_finite = first == 0
    non_finite[live] = False
    return FixedPointRun(
        v=out, iterations=n, first_converged=first, non_finite=non_finite,
        guarded_at=guarded_at, step_inf=step_inf,
    )


def solve_chunk(
    model: NetworkModel, s: np.ndarray, apply_z, opts: SolveOptions,
    src: np.ndarray,
) -> tuple[FixedPointRun, np.ndarray, np.ndarray]:
    """Solve the b x m loads ``s`` with ``apply_z`` applying ``B^(-1)``.

    Runs :func:`fixed_point` from :func:`start_voltage` with
    ``a = -alpha_p . s*`` and ``c = -(Y_ds v_s + alpha_i . s*)``: one b x 1
    column that every case shares when there is no constant-current share,
    else one column per case.  ``src`` is the b x 1 source injection
    ``Y_ds v_s`` of ``model``, which a batch computes once for all its
    chunks.  ``apply_z`` must account for any constant-impedance share in
    ``B``.  Returns the run, the power residual of each case and the
    converged mask: a case is converged when its step met ``opts.tolerance``
    and its residual is under ``opts.residual_tolerance``.
    """
    zc = model.zip
    # s* in Fortran order, then scaled in place to a = -alpha_p . s*
    a = np.conjugate(s, out=np.empty(s.shape, dtype=complex, order="F"))
    c = -(src + zc.alpha_i[:, None] * a) if zc.alpha_i.any() else -src
    a *= -zc.alpha_p[:, None]
    run = fixed_point(
        apply_z, a, c, start_voltage(model, opts),
        opts.tolerance, opts.max_iterations,
    )
    with np.errstate(invalid="ignore", over="ignore"):
        residuals = residual_per_case(model, run.v, s, src)
    converged = (run.first_converged > 0) & (residuals < opts.residual_tolerance)
    return run, residuals, converged


def fpi_solve(
    model: NetworkModel, s: np.ndarray, opts: SolveOptions = SolveOptions()
) -> SolveResult:
    """Fixed-point iteration until max|dv| < tolerance or the iteration cap.

    The tau = 1 case of :func:`solve_chunk`, applying ``B^(-1)`` through the
    LU of B.  Convergence is confirmed by a mandatory power-residual
    post-check; non-convergence is reported in the result, not raised.
    """
    s = _load_vector(model, s)
    apply_z = _factorize_b(model, s).solve
    run, residuals, converged = solve_chunk(
        model, s[:, None], apply_z, opts, model.source_injection()[:, None]
    )
    diagnostic = None
    if run.non_finite[0]:
        diagnostic = f"diverged: non-finite iterate at iteration {run.iterations}"
    elif run.guarded_at:
        diagnostic = f"zero-voltage guard applied at iteration {run.guarded_at}"
    return SolveResult(
        v=run.v[:, 0],
        iterations=run.iterations,
        converged=bool(converged[0]),
        residual=float(residuals[0]),
        diagnostic=diagnostic,
        step_inf=np.array(run.step_inf),
    )


def zip_power(model: NetworkModel, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Power drawn by the ZIP load at voltage ``v``.

    ``v`` and ``s`` are b-vectors or b x tau arrays; the per-node alphas
    broadcast over any trailing case axis.  The constant-current fraction
    holds the current phasor at its nominal value, so its power term scales
    with complex v (not |v|).  A term whose alpha is zero at every node is
    left out: adding its zeros would not change the sum.
    """
    zc = model.zip
    shape = (-1,) + (1,) * (np.ndim(v) - 1)
    terms = []
    if zc.alpha_z.any():
        terms.append(zc.alpha_z.reshape(shape) * s * np.abs(v) ** 2)
    if zc.alpha_i.any():
        terms.append(zc.alpha_i.reshape(shape) * s * v)
    terms.append(zc.alpha_p.reshape(shape) * s)
    # summed left to right, in the order of the full Z + I + P law
    return sum(terms[1:], start=terms[0])


def residual_per_case(
    model: NetworkModel, v: np.ndarray, s: np.ndarray,
    src: np.ndarray | None = None,
) -> np.ndarray:
    """Max nodal power-balance error; columns are cases for 2-D input.

    ``src`` is ``model``'s source injection shaped to broadcast against
    ``v``, as :func:`solve_chunk` takes it; computed here when not given.
    """
    v = np.asarray(v, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if src is None:
        src = model.source_injection()
        if v.ndim == 2:
            src = src[:, None]
    mismatch = zip_power(model, v, s) + v * np.conj(src + model.y_dd @ v)
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
    s = _load_vector(model, s)
    lu = _factorize_b(model, s)
    v = np.asarray(v, dtype=complex).ravel()
    if np.any(np.abs(v) == 0):
        raise ValueError("contraction estimate requires nonzero voltages")
    zb = lu.solve(np.eye(lu.shape[0], dtype=complex))
    colsums = np.abs(zb).sum(axis=0)
    inv_zl = np.abs(s) / np.abs(v) ** 2
    return float(np.max(colsums * inv_zl, initial=0.0))
