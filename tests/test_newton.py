import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from tpflow import newton
from tpflow.fpi import SolveOptions, fpi_solve
from tpflow.network import NetworkModel
from tpflow.newton import nr_solve
from tpflow.synth import GenSpec, build_network, gen_scenarios

from conftest import feasible_batch, phase_coupled_model, two_bus_model

V_HIGH = (1 + np.sqrt(0.96)) / 2


def test_two_bus_reference_root():
    res = nr_solve(two_bus_model(0.1 + 0j), [0.1 + 0j])
    assert res.converged
    assert res.v[0] == pytest.approx(V_HIGH, abs=1e-12)


def test_no_load_flat_start_is_immediate(nine_bus_model):
    res = nr_solve(nine_bus_model, np.zeros(nine_bus_model.n_demand))
    assert res.converged and res.iterations <= 2
    expected = spsolve(
        nine_bus_model.admittance.y_dd.tocsc(), -nine_bus_model.source_injection()
    )
    assert np.abs(res.v - expected).max() < 1e-10


def test_cross_method_agreement_hundred_bus(hundred_bus_model):
    loads = feasible_batch(hundred_bus_model, 50, seed=13)
    worst = 0.0
    for j in range(loads.tau):
        s = loads.values[:, j]
        r_nr = nr_solve(hundred_bus_model, s)
        r_fp = fpi_solve(hundred_bus_model, s)
        assert r_nr.converged and r_fp.converged
        worst = max(worst, float(np.abs(r_nr.v - r_fp.v).max()))
    assert worst < 1e-8


def test_newton_needs_fewer_iterations(nine_bus_model):
    loads = feasible_batch(nine_bus_model, 10, seed=14)
    for j in range(loads.tau):
        s = loads.values[:, j]
        r_nr = nr_solve(nine_bus_model, s)
        r_fp = fpi_solve(nine_bus_model, s)
        assert r_nr.converged and r_fp.converged
        assert r_nr.iterations <= r_fp.iterations


def test_iteration_count_raises_on_failure():
    # infeasible two-bus load: no solution to converge to
    model = two_bus_model(1.0 + 0.5j)
    assert not nr_solve(model, [3.0 + 2.0j], SolveOptions(max_iterations=15)).converged


def test_mismatch_decreases_monotonically(hundred_bus_model):
    loads = feasible_batch(hundred_bus_model, 5, seed=15)
    for j in range(loads.tau):
        res = nr_solve(hundred_bus_model, loads.values[:, j])
        assert res.converged
        tail = res.step_inf[-3:]
        assert np.all(np.diff(tail) < 0)


def test_near_maximum_transfer_count_grows():
    model = two_bus_model(1.0 + 0.5j)
    # bound on ||s|| is 1/(4 sqrt(1.25)); iteration counts are recorded, not
    # asserted to a value, but the light case must not need more steps
    light = nr_solve(model, [0.02 + 0.01j])
    heavy = nr_solve(model, [0.19 + 0.115j])
    assert light.converged and heavy.converged
    assert light.iterations <= heavy.iterations


def test_singular_jacobian_reported():
    model = NetworkModel.from_admittance(
        y_dd=np.zeros((1, 1)), y_ds=np.zeros((1, 1))
    )
    res = nr_solve(model, [0.1 + 0.05j])
    assert not res.converged
    assert "singular Jacobian" in (res.diagnostic or "")


def test_exploding_mismatch_stops_as_diverged():
    model = build_network(GenSpec(101, seed=7))
    s = gen_scenarios(model, 1, GenSpec(101, seed=7)).values[:, 0] * 1000.0
    res = nr_solve(model, s)
    assert not res.converged
    # iterations 2 to 4 sit over 1000 times the first mismatch
    assert res.iterations == 4
    assert res.diagnostic.startswith("diverged: ")
    assert res.diagnostic.endswith(f"at iteration {res.iterations}")
    assert res.step_inf[-1] > 1e3 * res.step_inf.min()


def test_initial_voltage_respected():
    model = two_bus_model(0.1 + 0j)
    low_start = np.array([0.01 + 0j])
    res = nr_solve(model, [0.1], SolveOptions(initial_voltage=low_start))
    # from next to the low root Newton lands on the low root
    assert res.converged
    assert abs(res.v[0] - (1 - np.sqrt(0.96)) / 2) < 1e-9


@pytest.mark.parametrize("solver", [fpi_solve, nr_solve])
def test_initial_voltage_length_mismatch_rejected(solver, nine_bus_model):
    s = feasible_batch(nine_bus_model, 1, seed=3).values[:, 0]
    short = SolveOptions(initial_voltage=np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="initial voltage length mismatch"):
        solver(nine_bus_model, s, short)


def test_zip_loads_supported(nine_bus_model):
    from tpflow.network import ZipCoefficients

    b = nine_bus_model.n_demand
    model = NetworkModel(
        admittance=nine_bus_model.admittance,
        slack=nine_bus_model.slack,
        zip=ZipCoefficients(
            alpha_z=np.full(b, 0.3), alpha_i=np.full(b, 0.2), alpha_p=np.full(b, 0.5)
        ),
        branches=nine_bus_model.branches,
    )
    s = feasible_batch(nine_bus_model, 1, seed=16).values[:, 0]
    r_nr = nr_solve(model, s)
    r_fp = fpi_solve(model, s)
    assert r_nr.converged and r_fp.converged
    assert np.abs(r_nr.v - r_fp.v).max() < 1e-8


@pytest.mark.parametrize("which", ["nine_bus", "phase_coupled"])
def test_jacobian_matches_central_differences(which, nine_bus_model, monkeypatch):
    # the phase-coupled y_dd is not symmetric, so it pins the (row, col) orientation
    rng = np.random.default_rng(18)
    model = nine_bus_model if which == "nine_bus" else phase_coupled_model(rng)
    y_dd, src = model.admittance.y_dd, model.source_injection()
    b = model.n_demand
    patterns = []  # the (y, rows, cols) that nr_solve lays out for its steps
    fill = newton._jacobian

    def spy(y, rows, cols, v, i_d):
        patterns.append((y, rows, cols))
        return fill(y, rows, cols, v, i_d)

    monkeypatch.setattr(newton, "_jacobian", spy)
    assert nr_solve(model, feasible_batch(model, 1, seed=19).values[:, 0]).converged

    def injection(x):  # [P, Q] of v conj(Y_ds v_s + Y_dd v) at x = (Va, Vm)
        v = x[b:] * np.exp(1j * x[:b])
        s = v * np.conj(src + y_dd @ v)
        return np.concatenate([s.real, s.imag])

    x = np.concatenate([rng.normal(0, 0.05, b), rng.uniform(0.9, 1.05, b)])
    h = 1e-6
    numeric = np.column_stack([
        (injection(x + h * e) - injection(x - h * e)) / (2 * h) for e in np.eye(2 * b)
    ])
    v = x[b:] * np.exp(1j * x[:b])
    jac = fill(*patterns[-1], v, src + y_dd @ v).toarray()
    assert np.abs(jac - numeric).max() <= 1e-6 * np.abs(numeric).max()
