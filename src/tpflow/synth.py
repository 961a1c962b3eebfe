"""Seeded generators for radial test networks and batched load scenarios.

Topologies are random k-ary trees rooted at the slack bus, which mimic the
radial layout of distribution feeders.  Scenarios are correlated lognormal
active powers with a lagging power factor, globally scaled so that even the
heaviest case keeps a comfortable margin to the aggregate solvability bound
v0^2 >= 4 ||s_total|| ||z_thevenin||: worst-case aggregate load is held at
``load_scale`` x 0.5 of that bound.

Everything is deterministic per seed; the topology, impedance and scenario
streams are independently spawned so the three operations can be called in
any combination and still reproduce bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dense import LoadMatrix
from .fpi import factorize
from .network import Branch, NetworkModel, radial_check

__all__ = ["GenSpec", "gen_kary_tree", "assign_impedances", "gen_scenarios",
           "build_network"]

# lognormal sigma of the per-case load multiplier
_SIGMA_LOG = 0.4


@dataclass(frozen=True)
class GenSpec:
    """Parameters for network and scenario generation."""

    n_buses: int
    k_max: int = 5
    seed: int = 0
    r_range: tuple[float, float] = (0.001, 0.01)
    x_range: tuple[float, float] = (0.001, 0.01)
    load_scale: float = 1.0
    correlation: float = 0.5

    def __post_init__(self) -> None:
        if self.n_buses < 2:
            raise ValueError("need at least 2 buses")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("correlation must be in [0, 1)")

    def _rng(self, stream: int) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed)
        return np.random.default_rng(ss.spawn(3)[stream])


def gen_kary_tree(spec: GenSpec) -> list[Branch]:
    """Random tree rooted at bus 0: each frontier node receives a uniformly
    drawn 1..k_max children until the bus budget is exhausted."""
    rng = spec._rng(0)
    edges: list[tuple[int, int]] = []
    frontier = [0]
    next_bus = 1
    while next_bus < spec.n_buses:
        parent = frontier.pop(0)
        k = int(rng.integers(1, spec.k_max + 1))
        for _ in range(k):
            if next_bus >= spec.n_buses:
                break
            edges.append((parent, next_bus))
            frontier.append(next_bus)
            next_bus += 1
        if not frontier and next_bus < spec.n_buses:
            frontier.append(next_bus - 1)
    skeleton = [Branch(i, j, r=0.001, x=0.001) for i, j in edges]
    return assign_impedances(skeleton, spec)


def assign_impedances(branches: list[Branch], spec: GenSpec) -> list[Branch]:
    """Redraw r and x for every branch uniformly from the spec ranges."""
    rng = spec._rng(1)
    n = len(branches)
    r = rng.uniform(*spec.r_range, n)
    x = rng.uniform(*spec.x_range, n)
    return [
        Branch(br.from_bus, br.to_bus, r=float(r[k]), x=float(x[k]),
               b_shunt=br.b_shunt)
        for k, br in enumerate(branches)
    ]


def build_network(spec: GenSpec) -> NetworkModel:
    """Generate a tree topology and wrap it as a network model."""
    branches = gen_kary_tree(spec)
    return NetworkModel.from_branches(branches, spec.n_buses)


def _max_thevenin(model: NetworkModel) -> float:
    """Largest |Thevenin impedance| over demand nodes.

    For a radial shunt-free network this is the max series impedance along
    any root path; otherwise it is read off the diagonal of Y_dd^(-1).
    """
    n_buses = model.n_demand + 1
    if model.branches and radial_check(model.branches, n_buses) and all(
        br.b_shunt == 0 for br in model.branches
    ):
        # imported here: scipy's graph package loads its sparse LU stack too
        from scipy.sparse.csgraph import breadth_first_order

        ends = np.array([(br.from_bus, br.to_bus) for br in model.branches]).T
        graph = sparse.csr_matrix((np.ones(ends.shape[1]), tuple(ends)),
                                  shape=(n_buses, n_buses))
        order, parent = breadth_first_order(graph, 0, directed=False)
        z = {(br.from_bus, br.to_bus): complex(br.r, br.x) for br in model.branches}
        z.update({(j, i): z_ij for (i, j), z_ij in z.items()})
        # breadth-first order puts a bus after its parent: paths sum from the root
        z_path = np.zeros(n_buses, dtype=complex)
        for v in order[1:]:
            z_path[v] = z_path[parent[v]] + z[parent[v], v]
        return float(np.abs(z_path[1:]).max())
    zb = factorize(model.admittance.y_dd).solve(np.eye(model.n_demand, dtype=complex))
    return float(np.abs(np.diag(zb)).max())


def gen_scenarios(model: NetworkModel, tau: int, spec: GenSpec) -> LoadMatrix:
    """Correlated lognormal load batch, feasibility-scaled, bphi x tau.

    A Gaussian one-factor model drives the per-case multipliers: nodes share
    a common factor with weight sqrt(correlation).  Per-node base sizes are
    uniform in [0.5, 1.5]; power factors are uniform in [0.9, 1.0] lagging.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    rng = spec._rng(2)
    b = model.n_demand

    base = rng.uniform(0.5, 1.5, size=b)
    common = rng.standard_normal(tau)
    idio = rng.standard_normal((b, tau))
    rho = spec.correlation
    latent = np.sqrt(rho) * common[None, :] + np.sqrt(1.0 - rho) * idio
    p = base[:, None] * np.exp(_SIGMA_LOG * latent)
    pf = rng.uniform(0.9, 1.0, size=(b, tau))
    q = p * np.tan(np.arccos(pf))
    s = p + 1j * q

    margin = 0.5 * abs(model.slack.v_s) ** 2 / (4.0 * _max_thevenin(model))
    worst = float(np.abs(s.sum(axis=0)).max())
    s *= spec.load_scale * margin / worst
    return LoadMatrix(values=s, dims=(tau,))
