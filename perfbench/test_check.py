"""The checker passes a correct batch and catches broken ones.

    PYTHONPATH=src python3 -m pytest perfbench/test_check.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import check_batch, read_voltage_csv, stamp_network  # noqa: E402
from tpflow import LoadMatrix, batch_solve_dense, cli, fileio, nr_solve  # noqa: E402
from workloads import LOADED_DROP, _draw_loads  # noqa: E402


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A loaded 31-bus batch with one overloaded case (column 3)."""
    net = tmp_path_factory.mktemp("net") / "net.json"
    cli.main(["gen-net", "--buses", "31", "--seed", "5", "--out", str(net)])
    stamped = stamp_network(net)
    s = _draw_loads(np.random.default_rng(5), 30, 40)
    s *= LOADED_DROP / np.abs(np.linalg.inv(stamped.y_dd) @ np.conj(s)).max()
    s[:, 3] *= 100.0
    model = fileio.read_network(net)
    batch = batch_solve_dense(model, LoadMatrix(s))
    expected = np.ones(40, dtype=bool)
    expected[3] = False

    def oracle(col):
        res = nr_solve(model, col)
        return res.v, res.converged

    return stamped, batch, s, expected, oracle


def problems(solved, v=None, flags=None):
    stamped, batch, s, expected, oracle = solved
    v = batch.values if v is None else v
    flags = batch.converged_mask if flags is None else flags
    return check_batch(stamped, v, flags, s, expected, oracle, seed=0)


def test_correct_batch_passes(solved):
    assert problems(solved) == []


def test_perturbed_voltage_caught(solved):
    v = solved[1].values.copy()
    v[7, 11] += 1e-6
    found = problems(solved, v=v)
    assert any("power residual" in p for p in found)


@pytest.mark.parametrize("case", [11, 3])
def test_flipped_flag_caught(solved, case):
    flags = solved[1].converged_mask.copy()
    flags[case] = not flags[case]
    assert any("convergence flags" in p for p in problems(solved, flags=flags))


def test_voltage_table_round_trip(solved, tmp_path):
    batch = solved[1]
    path = tmp_path / "v.csv"
    fileio.write_voltages(path, batch)
    v, flags = read_voltage_csv(path, 30, 40)
    assert np.array_equal(flags, batch.converged_mask)
    ok = batch.converged_mask
    assert np.abs(v[:, ok] - batch.values[:, ok]).max() < 1e-14
    with pytest.raises(ValueError, match="expected"):
        read_voltage_csv(path, 30, 41)
