"""Network model: branch lists, ZIP load coefficients and the partitioned
nodal admittance system.

Bus 0 is always the slack/source node. The remaining buses are demand nodes,
indexed 1..b in file and branch terms; internally demand quantities use
0-based positions 0..b-1. All quantities are per-unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

__all__ = [
    "Branch",
    "ZipCoefficients",
    "SlackSpec",
    "PartitionedAdmittance",
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


@dataclass(frozen=True)
class PartitionedAdmittance:
    """Demand-side blocks of the nodal admittance, stored sparse (CSC).

    ``y_dd`` couples the demand nodes; ``y_ds`` couples them to the slack.
    The solvers need nothing else.
    """

    y_dd: sparse.csc_matrix
    y_ds: sparse.csc_matrix

    @property
    def n_demand(self) -> int:
        return self.y_dd.shape[0]


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


def build_admittance(branches: list[Branch] | tuple[Branch, ...], n_buses: int) -> PartitionedAdmittance:
    """Assemble the partitioned nodal admittance from a branch list.

    Each branch stamps ``[[y, -y], [-y, y]]`` plus half its shunt susceptance
    on each end's diagonal.  The result is partitioned with bus 0 as the
    slack row/column.
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
    return PartitionedAdmittance(y_dd=full[1:, 1:].tocsc(), y_ds=full[1:, :1].tocsc())


def radial_check(branches, n_buses: int) -> bool:
    """True iff the branch graph is a spanning tree (connected, n-1 edges)."""
    if len(branches) != n_buses - 1:
        return False
    ends = ((br.from_bus, br.to_bus) for br in branches)
    return _components(n_buses, ends)[0] == 1


@dataclass(frozen=True)
class NetworkModel:
    """Immutable network: branches, slack, ZIP coefficients and admittance."""

    admittance: PartitionedAdmittance
    slack: SlackSpec = SlackSpec()
    zip: ZipCoefficients = None  # type: ignore[assignment]
    branches: tuple[Branch, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.zip is None:
            object.__setattr__(
                self, "zip", ZipCoefficients.constant_power(self.n_demand)
            )
        if self.zip.alpha_p.shape[0] != self.n_demand:
            raise NetworkError(
                f"ZIP coefficients sized {self.zip.alpha_p.shape[0]}, "
                f"expected {self.n_demand}"
            )

    @property
    def n_demand(self) -> int:
        return self.admittance.n_demand

    @classmethod
    def from_branches(
        cls,
        branches,
        n_buses: int,
        slack: SlackSpec = SlackSpec(),
        zip_coeffs: ZipCoefficients | None = None,
    ) -> "NetworkModel":
        adm = build_admittance(branches, n_buses)
        return cls(
            admittance=adm, slack=slack, zip=zip_coeffs, branches=tuple(branches)
        )

    @classmethod
    def from_admittance(
        cls,
        y_dd,
        y_ds,
        slack: SlackSpec = SlackSpec(),
        zip_coeffs: ZipCoefficients | None = None,
    ) -> "NetworkModel":
        """Build directly from demand-side admittance blocks.

        This is the escape hatch for polyphase or externally assembled
        systems: the solvers only need ``y_dd`` and ``y_ds``.
        """
        y_dd = sparse.csc_matrix(y_dd, dtype=complex)
        y_ds = sparse.csc_matrix(y_ds, dtype=complex)
        if y_dd.shape[0] != y_dd.shape[1]:
            raise NetworkError("y_dd must be square")
        if y_ds.shape[0] != y_dd.shape[0]:
            raise NetworkError("y_ds row count must match y_dd")
        adm = PartitionedAdmittance(y_dd=y_dd, y_ds=y_ds)
        return cls(admittance=adm, slack=slack, zip=zip_coeffs)

    def source_injection(self) -> np.ndarray:
        """Constant demand-side current term Y_ds * v_s, shape (n_demand,)."""
        return np.asarray(
            self.admittance.y_ds @ np.array([self.slack.v_s]), dtype=complex
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
    adm = model.admittance
    i, j = adm.y_dd.nonzero()
    n_comp, labels = _components(adm.n_demand, zip(i.tolist(), j.tolist()))
    fed = np.zeros(n_comp, dtype=bool)
    fed[labels[adm.y_ds.nonzero()[0]]] = True
    for comp in np.flatnonzero(~fed):
        nodes = np.flatnonzero(labels == comp).tolist()
        diags.append(f"disconnected component: demand nodes {nodes}")

    defect = float(abs(adm.y_dd - adm.y_dd.T).max())
    if defect > 1e-9:
        diags.append(
            f"admittance symmetry defect: max|Y_dd - Y_dd^T| = {defect:.6e}"
        )

    try:
        factorize(adm.y_dd)
    except SingularSystemError as exc:
        diags.append(f"Y_dd {exc}")
    return diags
