"""Network model: branch lists, ZIP load coefficients and the partitioned
nodal admittance system.

Bus 0 is always the slack/source node. The remaining buses are demand nodes,
indexed 1..b in file and branch terms; internally demand quantities use
0-based positions 0..b-1. All quantities are per-unit.

:class:`NetworkModel` holds the blocks ``y_dd`` and ``y_ds`` and checks them
itself, so every way to build one meets the same rules; every value object
here rejects a non-finite number with a :class:`NetworkError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "Branch",
    "ZipCoefficients",
    "SlackSpec",
    "NetworkModel",
    "NetworkError",
    "build_admittance",
    "validate",
    "radial_check",
]


class NetworkError(ValueError):
    """Raised for structurally invalid networks (bad branches, disconnection)."""


@dataclass(frozen=True)
class Branch:
    """Series r + jx branch with total shunt susceptance split half per end."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_shunt: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.r, self.x, self.b_shunt))):
            raise NetworkError(
                f"non-finite r, x or b_shunt on branch {self.from_bus}-{self.to_bus}"
            )

    def series_admittance(self) -> complex:
        z = complex(self.r, self.x)
        if z == 0:
            raise NetworkError(
                f"zero-impedance branch {self.from_bus}-{self.to_bus}"
            )
        return 1.0 / z


@dataclass(frozen=True)
class SlackSpec:
    """Fixed complex voltage of the source node."""

    v_s: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if not np.isfinite(self.v_s):
            raise NetworkError(f"slack voltage {self.v_s} is not finite")
        if abs(self.v_s) == 0:
            raise NetworkError("slack voltage magnitude must be positive")


@dataclass(frozen=True)
class ZipCoefficients:
    """Per-node mix of constant-impedance/current/power load fractions.

    Each node's (alpha_z, alpha_i, alpha_p) must be nonnegative and sum to 1.
    """

    alpha_z: np.ndarray
    alpha_i: np.ndarray
    alpha_p: np.ndarray

    def __post_init__(self) -> None:
        az = np.asarray(self.alpha_z, dtype=float)
        ai = np.asarray(self.alpha_i, dtype=float)
        ap = np.asarray(self.alpha_p, dtype=float)
        if not (az.shape == ai.shape == ap.shape) or az.ndim != 1:
            raise NetworkError("ZIP coefficient vectors must share one 1-D shape")
        if not np.isfinite((az, ai, ap)).all():
            raise NetworkError("ZIP coefficients must be finite")
        if np.any(az < 0) or np.any(ai < 0) or np.any(ap < 0):
            raise NetworkError("ZIP coefficients must be nonnegative")
        if np.max(np.abs(az + ai + ap - 1.0), initial=0.0) > 1e-12:
            raise NetworkError("ZIP coefficients must sum to 1 per node")
        object.__setattr__(self, "alpha_z", az)
        object.__setattr__(self, "alpha_i", ai)
        object.__setattr__(self, "alpha_p", ap)

    @classmethod
    def constant_power(cls, n_demand: int) -> "ZipCoefficients":
        zeros = np.zeros(n_demand)
        return cls(alpha_z=zeros, alpha_i=zeros.copy(), alpha_p=np.ones(n_demand))

    @property
    def is_constant_power(self) -> bool:
        return bool(np.all(self.alpha_p == 1.0))


def _components(n: int, edges) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on nodes 0..n-1 with
    ``edges``, an iterable of node pairs: their count and each node's label.

    Union-find that keeps the lowest node of a component as its root, so
    components are numbered in the order of their lowest node, as
    ``scipy.sparse.csgraph.connected_components`` numbers them.
    """
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]  # path halving
            x = root[x]
        return x

    for a, b in edges:
        a, b = find(a), find(b)
        root[max(a, b)] = min(a, b)
    roots, labels = np.unique([find(x) for x in range(n)], return_inverse=True)
    return len(roots), labels


def build_admittance(
    branches: list[Branch] | tuple[Branch, ...], n_buses: int
) -> tuple[sparse.csc_matrix, sparse.csc_matrix]:
    """The demand-side blocks ``(y_dd, y_ds)`` of the nodal admittance of a
    branch list, partitioned with bus 0 as the slack row/column.

    Each branch stamps ``[[y, -y], [-y, y]]`` plus half its shunt susceptance
    on each end's diagonal.
    """
    if n_buses < 2:
        raise NetworkError("a network needs at least a slack and one demand bus")
    for br in branches:
        if not (0 <= br.from_bus < n_buses and 0 <= br.to_bus < n_buses):
            raise NetworkError(
                f"branch {br.from_bus}-{br.to_bus} references a bus >= {n_buses}"
            )
        if br.from_bus == br.to_bus:
            raise NetworkError(f"self-loop branch at bus {br.from_bus}")
        if br.r < 0:
            raise NetworkError(
                f"negative resistance on branch {br.from_bus}-{br.to_bus}"
            )
    _, labels = _components(n_buses, ((br.from_bus, br.to_bus) for br in branches))
    missing = np.flatnonzero(labels).tolist()  # bus 0's component is label 0
    if missing:
        raise NetworkError(f"disconnected network: unreachable buses {missing}")

    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    for br in branches:
        y = br.series_admittance()
        h = 1j * br.b_shunt / 2.0
        i, j = br.from_bus, br.to_bus
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-y, -y, y + h, y + h]
    full = sparse.coo_matrix((vals, (rows, cols)), shape=(n_buses, n_buses)).tocsc()
    return full[1:, 1:].tocsc(), full[1:, :1].tocsc()


def radial_check(branches, n_buses: int) -> bool:
    """True iff the branch graph is a spanning tree (connected, n-1 edges)."""
    if len(branches) != n_buses - 1:
        return False
    ends = ((br.from_bus, br.to_bus) for br in branches)
    return _components(n_buses, ends)[0] == 1


@dataclass(frozen=True)
class NetworkModel:
    """Immutable network: admittance blocks, slack, ZIP mix and branches.

    ``y_dd`` (b x b) couples the demand nodes and ``y_ds`` (b x 1) couples
    them to the slack, both stored as complex CSC; the solvers need nothing
    else.  A matrix-supplied model (polyphase or externally assembled) is
    ``NetworkModel(y_dd, y_ds, slack=...)`` and has no branches.
    """

    y_dd: sparse.csc_matrix
    y_ds: sparse.csc_matrix
    slack: SlackSpec = SlackSpec()
    zip: ZipCoefficients = None  # type: ignore[assignment]
    branches: tuple[Branch, ...] = ()

    def __post_init__(self) -> None:
        y_dd = sparse.csc_matrix(self.y_dd, dtype=complex)
        y_ds = sparse.csc_matrix(self.y_ds, dtype=complex)
        b = y_dd.shape[0]
        if y_dd.shape != (b, b) or y_ds.shape != (b, 1):
            raise NetworkError(f"y_dd shaped {y_dd.shape} and y_ds shaped "
                               f"{y_ds.shape}, expected b x b and b x 1")
        if not (np.isfinite(y_dd.data).all() and np.isfinite(y_ds.data).all()):
            raise NetworkError("admittance blocks hold a non-finite entry")
        object.__setattr__(self, "y_dd", y_dd)
        object.__setattr__(self, "y_ds", y_ds)
        if self.zip is None:
            object.__setattr__(self, "zip", ZipCoefficients.constant_power(b))
        if self.zip.alpha_p.shape[0] != b:
            raise NetworkError(
                f"ZIP coefficients sized {self.zip.alpha_p.shape[0]}, expected {b}"
            )

    @property
    def n_demand(self) -> int:
        return self.y_dd.shape[0]

    @classmethod
    def from_branches(
        cls,
        branches,
        n_buses: int,
        slack: SlackSpec = SlackSpec(),
        zip_coeffs: ZipCoefficients | None = None,
    ) -> "NetworkModel":
        y_dd, y_ds = build_admittance(branches, n_buses)
        return cls(y_dd, y_ds, slack=slack, zip=zip_coeffs, branches=tuple(branches))

    def source_injection(self) -> np.ndarray:
        """Constant demand-side current term Y_ds * v_s, shape (n_demand,)."""
        return np.asarray(
            self.y_ds @ np.array([self.slack.v_s]), dtype=complex
        ).ravel()


def validate(model: NetworkModel) -> list[str]:
    """Run structural diagnostics; returns an empty list for a healthy model.

    One path for branch-built and matrix-supplied models: every connected
    component of the Y_dd pattern must hold a node with a nonzero Y_ds entry
    (an unfed component is reported by its 0-based demand nodes), Y_dd must
    be symmetric and it must factorize.  Diagnostics are reports, not
    exceptions.  The components come from the labeller that checks
    :func:`build_admittance`; only the factorization needs scipy's sparse
    LU, which :func:`tpflow.fpi.factorize` loads on its first call.
    """
    from .fpi import SingularSystemError, factorize

    diags: list[str] = []
    y_dd = model.y_dd
    i, j = y_dd.nonzero()
    n_comp, labels = _components(model.n_demand, zip(i.tolist(), j.tolist()))
    fed = np.zeros(n_comp, dtype=bool)
    fed[labels[model.y_ds.nonzero()[0]]] = True
    for comp in np.flatnonzero(~fed):
        nodes = np.flatnonzero(labels == comp).tolist()
        diags.append(f"disconnected component: demand nodes {nodes}")

    defect = float(abs(y_dd - y_dd.T).max())
    if defect > 1e-9:
        diags.append(
            f"admittance symmetry defect: max|Y_dd - Y_dd^T| = {defect:.6e}"
        )

    try:
        factorize(y_dd)
    except SingularSystemError as exc:
        diags.append(f"Y_dd {exc}")
    return diags
