"""What a process loads: the dense path needs numpy and scipy.sparse only,
and scipy's LU and graph packages load the first time something uses them."""

import os
import subprocess
import sys
from pathlib import Path

import tpflow

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import sys

import tpflow, tpflow.cli
from tpflow import batch_solve_dense, batch_solve_sparse, nr_solve
from tpflow.fileio import read_loads, read_network
from tpflow.network import validate

HEAVY = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")
model = read_network("sample/net9.json")
loads = read_loads("sample/loads9.csv")
dense = batch_solve_dense(model, loads)
loaded = [name for name in HEAVY if name in sys.modules]
assert not loaded, f"the dense path loaded {loaded}"

sparse = batch_solve_sparse(model, loads)
assert abs(sparse.values - dense.values).max() < 1e-9
assert validate(model) == []
assert nr_solve(model, loads.values[:, 0]).converged
print("ok")
"""


def test_dense_path_loads_no_lu_or_graph_package():
    # a fresh interpreter: this test process has imported everything already
    path = [str(Path(tpflow.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"
