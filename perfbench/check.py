"""Correctness checks on solved voltages, independent of the FPI kernel.

The checker rebuilds the network from the JSON document itself (dense
branch stamps, not ``tpflow.network``), so a bug in the library's admittance
assembly or in the fixed-point update cannot hide behind a matching check.
For every case it requires:

* the flag pattern the workload expects (all converged, except the columns
  the workload overloads on purpose);
* for every case expected to converge, a nodal power-balance residual
  max_i |s_zip(v) + v conj(Y_ds v_s + Y_dd v)| below 1e-8;
* for every case expected to converge, the contraction certificate
  k_j = max_i colsum_i(|Y_dd^-1|) |alpha_p s_ij| / |v_ij|^2 < 1, the paper's
  condition that the answer is the high-voltage root;
* agreement with a Newton-Raphson oracle within 1e-8 on a seeded sample of
  converged cases, and failure of that oracle on every overloaded case.

``check_batch`` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-8
ORACLE_TOL = 1e-8
ORACLE_SAMPLE = 5


@dataclass(frozen=True)
class StampedNetwork:
    """Dense demand-side admittance and ZIP mix read straight from JSON."""

    y_dd: np.ndarray
    source: np.ndarray  # Y_ds v_s
    alpha_z: np.ndarray
    alpha_i: np.ndarray
    alpha_p: np.ndarray

    @property
    def n_demand(self) -> int:
        return self.y_dd.shape[0]


def stamp_network(path) -> StampedNetwork:
    """Stamp each branch's 2x2 admittance into a dense full matrix."""
    doc = json.loads(Path(path).read_text())
    n = int(doc["n_buses"])
    full = np.zeros((n, n), dtype=complex)
    for br in doc["branches"]:
        y = 1.0 / complex(br["r"], br["x"])
        h = 0.5j * br.get("b_shunt", 0.0)
        i, j = br["from"], br["to"]
        full[i, i] += y + h
        full[j, j] += y + h
        full[i, j] -= y
        full[j, i] -= y
    v_s = complex(doc["slack_voltage"]["re"], doc["slack_voltage"]["im"])
    zip_doc = doc.get("zip")
    if zip_doc is None:
        alpha = (np.zeros(n - 1), np.zeros(n - 1), np.ones(n - 1))
    else:
        alpha = tuple(
            np.asarray(zip_doc[k], dtype=float)
            for k in ("alpha_z", "alpha_i", "alpha_p")
        )
    return StampedNetwork(full[1:, 1:], full[1:, 0] * v_s, *alpha)


def residuals(net: StampedNetwork, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-case max nodal power mismatch; columns of ``v``/``s`` are cases."""
    s_zip = (net.alpha_z[:, None] * s * np.abs(v) ** 2
             + net.alpha_i[:, None] * s * v
             + net.alpha_p[:, None] * s)
    current = net.source[:, None] + net.y_dd @ v
    with np.errstate(invalid="ignore", over="ignore"):
        return np.abs(s_zip + v * np.conj(current)).max(axis=0)


def certificates(net: StampedNetwork, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-case contraction scalar k_j of the fixed-point map at ``v``."""
    colsums = np.abs(np.linalg.inv(net.y_dd)).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = colsums[:, None] * np.abs(net.alpha_p[:, None] * s) / np.abs(v) ** 2
    return k.max(axis=0)


def check_batch(net, v, flags, s, expected_flags, oracle, seed) -> list[str]:
    """All checks on one solved batch.

    ``oracle(s_col)`` returns ``(v_col, converged)`` from a solver that
    shares no code with the FPI kernel.
    """
    b, tau = s.shape
    if v.shape != (b, tau) or flags.shape != (tau,):
        return [f"output shape {v.shape}/{flags.shape}, expected ({b}, {tau})"]
    problems = []
    wrong = np.flatnonzero(flags != expected_flags)
    if wrong.size:
        problems.append(
            f"{wrong.size} convergence flags differ from the expected ones, "
            f"first at case {wrong[0]}"
        )
    ok = np.flatnonzero(expected_flags)
    res = residuals(net, v[:, ok], s[:, ok])
    bad = ok[~(res < RESIDUAL_TOL)]
    if bad.size:
        problems.append(
            f"{bad.size} cases have a power residual >= {RESIDUAL_TOL:g}, "
            f"first at case {bad[0]}"
        )
    k = certificates(net, v[:, ok], s[:, ok])
    bad = ok[~(k < 1.0)]
    if bad.size:
        problems.append(
            f"{bad.size} cases lack the contraction certificate k < 1, "
            f"first at case {bad[0]}"
        )
    rng = np.random.default_rng(seed)
    sample = rng.choice(ok, size=min(ORACLE_SAMPLE, ok.size), replace=False)
    for j in sample:
        v_ref, converged = oracle(s[:, j])
        gap = float(np.abs(v_ref - v[:, j]).max())
        if not converged or not gap < ORACLE_TOL:
            problems.append(
                f"case {j}: Newton-Raphson oracle converged={converged}, "
                f"gap {gap:.3e}"
            )
    for j in np.flatnonzero(~expected_flags):
        if oracle(s[:, j])[1]:
            problems.append(f"case {j}: the oracle solved an overloaded case")
    return problems


def read_load_csv(path) -> np.ndarray:
    """Loads as b x tau complex from a p_<node>,q_<node> table."""
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return (arr[:, 0::2] + 1j * arr[:, 1::2]).T


def read_voltage_csv(path, b: int, tau: int):
    """Voltages (b x tau) and flags from a written voltage table.

    Raises ``ValueError`` when the header, row count or flags are malformed.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    expected = [f"{kind}_{node}" for node in range(1, b + 1)
                for kind in ("vm", "va")] + ["converged"]
    if header != expected:
        raise ValueError(f"{path}: unexpected header {header[:3]}...")
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if arr.shape != (tau, 2 * b + 1):
        raise ValueError(f"{path}: table is {arr.shape}, expected ({tau}, {2 * b + 1})")
    flags = arr[:, -1]
    if not np.isin(flags, (0.0, 1.0)).all():
        raise ValueError(f"{path}: converged column holds values other than 0/1")
    v = (arr[:, 0:-1:2] * np.exp(1j * arr[:, 1:-1:2])).T
    return v, flags == 1.0
