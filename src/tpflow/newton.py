"""Newton-Raphson power flow in polar coordinates.

Serves as the independent correctness oracle for the fixed-point solvers and
as the per-case comparison baseline in benchmarks.  PQ demand buses plus one
slack; the Jacobian is assembled sparse and refactorized every iteration
(unlike the fixed-point paths, nothing here is reusable across iterations).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .fpi import SolveOptions, SolveResult, power_residual, start_voltage, zip_power
from .network import NetworkModel

__all__ = ["nr_solve", "nr_iteration_count"]


def _injection_jacobian(y_dd, v, i_d):
    """Partials of demand-bus complex power w.r.t. angle and magnitude.

    dS/dVa = j diag(V) conj(diag(I) - Y_dd diag(V))
    dS/dVm = diag(V) conj(Y_dd diag(Vn)) + diag(conj(I) Vn),  Vn = V/|V|
    """
    vn = v / np.abs(v)
    dv = sparse.diags(v)
    ds_dva = 1j * dv @ (sparse.diags(i_d) - y_dd @ dv).conj()
    ds_dvm = dv @ (y_dd @ sparse.diags(vn)).conj() + sparse.diags(np.conj(i_d) * vn)
    return ds_dva.tocoo(), ds_dvm.tocoo()


def nr_solve(
    model: NetworkModel, s: np.ndarray, opts: SolveOptions = SolveOptions()
) -> SolveResult:
    """Full-Newton polar power flow to tolerance on the max power mismatch.

    The ZIP load is folded into the specified injection at each iterate, so
    only the constant-power fraction contributes Jacobian terms implicitly;
    this matches treating the load power as locally constant per step.
    """
    s = np.asarray(s, dtype=complex).ravel()
    b = model.n_demand
    if s.shape[0] != b:
        raise ValueError(f"load vector sized {s.shape[0]}, expected {b}")
    y_dd = model.admittance.y_dd
    src = model.source_injection()

    v = start_voltage(model, opts)[:, 0]
    vm, va = np.abs(v), np.angle(v)

    diagnostic = None
    converged = False
    history: list[float] = []
    it = 0
    for it in range(opts.max_iterations + 1):
        v = vm * np.exp(1j * va)
        i_d = src + y_dd @ v
        s_calc = v * np.conj(i_d)
        s_spec = -zip_power(model, v, s)
        ds = s_spec - s_calc
        mismatch = np.concatenate([ds.real, ds.imag])
        if not np.all(np.isfinite(mismatch)):
            diagnostic = f"diverged: non-finite mismatch at iteration {it}"
            break
        history.append(float(np.abs(mismatch).max()))
        if history[-1] < opts.tolerance:
            converged = True
            break
        if it == opts.max_iterations:
            break
        ds_dva, ds_dvm = _injection_jacobian(y_dd, v, i_d)
        jac = sparse.bmat(
            [[ds_dva.real, ds_dvm.real], [ds_dva.imag, ds_dvm.imag]],
            format="csc",
        )
        try:
            dx = splu(jac).solve(mismatch)
        except RuntimeError as exc:
            diagnostic = f"singular Jacobian at iteration {it + 1}: {exc}"
            break
        va = va + dx[:b]
        vm = vm + dx[b:]

    with np.errstate(invalid="ignore", over="ignore"):
        residual = power_residual(model, v, s)
    if converged:
        converged = residual < opts.residual_tolerance
    return SolveResult(
        v=v,
        iterations=it,
        converged=converged,
        residual=residual,
        diagnostic=diagnostic,
        # max power mismatch per iterate, for convergence-rate analysis
        step_inf=np.array(history),
    )


def nr_iteration_count(
    model: NetworkModel, s: np.ndarray, opts: SolveOptions = SolveOptions()
) -> int:
    """Iterations Newton needed; raises if the case did not converge."""
    res = nr_solve(model, s, opts)
    if not res.converged:
        raise RuntimeError(
            f"Newton did not converge: residual {res.residual:.3e}"
            + (f" ({res.diagnostic})" if res.diagnostic else "")
        )
    return res.iterations
