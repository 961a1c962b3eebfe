"""The five workloads: how their inputs are made and what one pass runs.

Inputs are written into a work directory before any timing starts. Every
network comes from ``tpflow gen-net``; ``year-csv`` also takes its loads from
``tpflow gen-loads``. The in-memory workloads draw their own correlated
lognormal loads (below) and scale them so that the linearised voltage drop
of the heaviest node over all cases is ``LOADED_DROP``, which puts the lowest
solved voltage near 0.95 p.u. (the generator's default sits near 0.98 p.u.).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from check import stamp_network

LOADED_DROP = 0.05


@dataclass(frozen=True)
class Workload:
    buses: int
    tau: int
    method: str  # "cli", "dense" (batch_solve_dense), "solve_batch:<method>"
    overload: float = 0.0  # factor on one seeded column, 0 for none
    alpha_i: float = 0.0  # constant-current share of every load


WORKLOADS = {
    "year-csv": Workload(buses=101, tau=8760, method="cli"),
    "feeder-dense": Workload(buses=101, tau=20_000, method="dense"),
    "feeder-sparse": Workload(buses=1001, tau=300, method="solve_batch:sparse"),
    "stalled-dense": Workload(buses=101, tau=2000, method="dense", overload=100.0),
    "zip-cases": Workload(buses=101, tau=1000, method="solve_batch:dense", alpha_i=0.3),
}


def _draw_loads(rng, b: int, tau: int) -> np.ndarray:
    base = rng.uniform(0.5, 1.5, size=b)
    common = rng.standard_normal(tau)
    latent = np.sqrt(0.5) * common[None, :] + np.sqrt(0.5) * rng.standard_normal((b, tau))
    p = base[:, None] * np.exp(0.4 * latent)
    q = p * np.tan(np.arccos(rng.uniform(0.9, 1.0, size=(b, tau))))
    return p + 1j * q


def generate(name: str, seed: int, work: Path) -> None:
    """Write the workload's inputs for ``seed`` into ``work``."""
    from tpflow import cli

    wl = WORKLOADS[name]
    net = work / "net.json"
    cli.main(["gen-net", "--buses", str(wl.buses), "--seed", str(seed),
              "--out", str(net)])
    expected_nonconverged: list[int] = []
    if wl.method == "cli":
        cli.main(["gen-loads", "--network", str(net), "--tau", str(wl.tau),
                  "--seed", str(seed), "--out", str(work / "loads.csv")])
    else:
        if wl.alpha_i:
            doc = json.loads(net.read_text())
            n = wl.buses - 1
            doc["zip"] = {"alpha_z": [0.0] * n, "alpha_i": [wl.alpha_i] * n,
                          "alpha_p": [1.0 - wl.alpha_i] * n}
            net.write_text(json.dumps(doc, indent=2) + "\n")
        rng = np.random.default_rng(seed)
        s = _draw_loads(rng, wl.buses - 1, wl.tau)
        z = np.linalg.inv(stamp_network(net).y_dd)
        s *= LOADED_DROP / np.abs(z @ np.conj(s)).max()
        if wl.overload:
            j = int(rng.integers(wl.tau))
            s[:, j] *= wl.overload
            expected_nonconverged.append(j)
        np.save(work / "loads.npy", s)
    (work / "inputs.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "buses": wl.buses, "tau": wl.tau,
         "expected_nonconverged": expected_nonconverged}))


class Pass:
    """One timed operation of a workload, built after set-up."""

    def __init__(self, name: str, work: Path, model) -> None:
        self.wl = WORKLOADS[name]
        self.work = work
        self.model = model
        self.out = work / "voltages.csv"
        if self.wl.method != "cli":
            from tpflow import LoadMatrix

            self.loads = LoadMatrix(np.load(work / "loads.npy"))

    def run(self):
        """Run one pass; returns the batch, or the output path for the CLI."""
        if self.wl.method == "cli":
            from tpflow import cli

            code = cli.main(["solve", "--network", str(self.work / "net.json"),
                             "--loads", str(self.work / "loads.csv"),
                             "--method", "dense", "--out", str(self.out)])
            if code != 0:
                raise RuntimeError(f"tpflow solve exited with {code}")
            return self.out
        if self.wl.method == "dense":
            from tpflow import batch_solve_dense

            return batch_solve_dense(self.model, self.loads)
        from tpflow import solve_batch

        return solve_batch(self.wl.method.split(":")[1], self.model, self.loads)
