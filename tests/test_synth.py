import numpy as np
import pytest

from tpflow.dense import batch_solve_dense
from tpflow.network import radial_check
from tpflow.synth import (
    GenSpec,
    assign_impedances,
    build_network,
    gen_kary_tree,
    gen_scenarios,
)


class TestTreeGenerator:
    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_three_buses_two_branches(self, seed):
        branches = gen_kary_tree(GenSpec(n_buses=3, seed=seed))
        assert len(branches) == 2
        assert radial_check(branches, 3)

    def test_seeded_topology_is_reproducible(self):
        spec = GenSpec(n_buses=9, seed=42)
        a = gen_kary_tree(spec)
        b = gen_kary_tree(spec)
        assert [(br.from_bus, br.to_bus) for br in a] == \
            [(br.from_bus, br.to_bus) for br in b]
        assert [(br.r, br.x) for br in a] == [(br.r, br.x) for br in b]

    def test_different_seeds_differ(self):
        a = gen_kary_tree(GenSpec(n_buses=30, seed=1))
        b = gen_kary_tree(GenSpec(n_buses=30, seed=2))
        assert [(br.from_bus, br.to_bus) for br in a] != \
            [(br.from_bus, br.to_bus) for br in b]

    def test_large_tree_is_radial(self):
        n = 5000
        branches = gen_kary_tree(GenSpec(n_buses=n, seed=7))
        assert radial_check(branches, n)

    def test_branching_respects_k_max(self):
        branches = gen_kary_tree(GenSpec(n_buses=200, k_max=3, seed=3))
        children = {}
        for br in branches:
            children[br.from_bus] = children.get(br.from_bus, 0) + 1
        assert max(children.values()) <= 3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GenSpec(n_buses=1)
        with pytest.raises(ValueError):
            GenSpec(n_buses=5, k_max=0)
        with pytest.raises(ValueError):
            GenSpec(n_buses=5, correlation=1.5)


class TestImpedances:
    def test_degenerate_range_gives_identical_values(self):
        spec = GenSpec(n_buses=10, seed=4, r_range=(0.02, 0.02),
                       x_range=(0.005, 0.005))
        branches = gen_kary_tree(spec)
        assert all(br.r == 0.02 and br.x == 0.005 for br in branches)

    def test_defaults_within_range(self):
        spec = GenSpec(n_buses=50, seed=5)
        for br in gen_kary_tree(spec):
            assert 0.001 <= br.r <= 0.01
            assert 0.001 <= br.x <= 0.01

    def test_reassignment_reproducible_bit_exact(self):
        spec = GenSpec(n_buses=20, seed=6)
        base = gen_kary_tree(spec)
        again = assign_impedances(base, spec)
        assert [(b.r, b.x) for b in base] == [(b.r, b.x) for b in again]


class TestScenarios:
    def test_zero_scale_is_all_zero(self, nine_bus_model):
        spec = GenSpec(n_buses=9, seed=8, load_scale=0.0)
        loads = gen_scenarios(nine_bus_model, 5, spec)
        assert np.all(loads.values == 0)

    def test_default_batch_fully_converges(self, nine_bus_model):
        spec = GenSpec(n_buses=9, seed=9)
        loads = gen_scenarios(nine_bus_model, 500, spec)
        out = batch_solve_dense(nine_bus_model, loads)
        assert out.converged_mask.all()

    @pytest.mark.parametrize("seed", [11, 22, 33, 44])
    def test_convergence_across_seeds(self, seed):
        spec = GenSpec(n_buses=25, seed=seed)
        model = build_network(spec)
        loads = gen_scenarios(model, 100, spec)
        out = batch_solve_dense(model, loads)
        assert out.converged_mask.mean() >= 0.99

    def test_zero_correlation_decorrelates(self, nine_bus_model):
        spec = GenSpec(n_buses=9, seed=10, correlation=0.0)
        loads = gen_scenarios(nine_bus_model, 4000, spec)
        logp = np.log(loads.values.real)
        corr = np.corrcoef(logp)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.abs(off).max() < 0.1

    def test_high_correlation_correlates(self, nine_bus_model):
        spec = GenSpec(n_buses=9, seed=10, correlation=0.8)
        loads = gen_scenarios(nine_bus_model, 4000, spec)
        logp = np.log(loads.values.real)
        corr = np.corrcoef(logp)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert off.min() > 0.6

    def test_seeded_scenarios_bit_identical(self, nine_bus_model):
        spec = GenSpec(n_buses=9, seed=12)
        a = gen_scenarios(nine_bus_model, 50, spec)
        b = gen_scenarios(nine_bus_model, 50, spec)
        assert np.array_equal(a.values, b.values)

    def test_loads_are_consumption_with_lagging_pf(self, nine_bus_model):
        spec = GenSpec(n_buses=9, seed=13)
        loads = gen_scenarios(nine_bus_model, 100, spec)
        assert np.all(loads.values.real > 0)
        assert np.all(loads.values.imag >= 0)
        pf = loads.values.real / np.abs(loads.values)
        assert pf.min() >= 0.9 - 1e-12

    def test_aggregate_margin_holds(self, nine_bus_model):
        spec = GenSpec(n_buses=9, seed=14, load_scale=1.0)
        loads = gen_scenarios(nine_bus_model, 200, spec)
        # every case keeps the aggregate within half the solvability bound of
        # the worst-node Thevenin reduction
        from tpflow.synth import _max_thevenin

        bound = abs(nine_bus_model.slack.v_s) ** 2 / (
            4.0 * _max_thevenin(nine_bus_model)
        )
        worst = np.abs(loads.values.sum(axis=0)).max()
        assert worst <= 0.5 * bound * (1 + 1e-12)

    def test_thevenin_paths_agree(self):
        # the radial path-sum shortcut must match the matrix diagonal route
        from tpflow.network import NetworkModel
        from tpflow.synth import _max_thevenin

        spec = GenSpec(n_buses=30, seed=15)
        model = build_network(spec)
        fast = _max_thevenin(model)
        matrix_model = NetworkModel(
            model.y_dd, model.y_ds, slack=model.slack
        )
        slow = _max_thevenin(matrix_model)
        assert fast == pytest.approx(slow, rel=1e-10)

    def test_thevenin_path_sum_matches_lu_on_large_feeder(self):
        from tpflow.network import NetworkModel
        from tpflow.synth import _max_thevenin

        model = build_network(GenSpec(n_buses=1001, seed=15))
        matrix_model = NetworkModel(
            model.y_dd, model.y_ds, slack=model.slack
        )
        assert _max_thevenin(model) == pytest.approx(
            _max_thevenin(matrix_model), rel=1e-12
        )

    def test_tau_validation(self, nine_bus_model):
        with pytest.raises(ValueError):
            gen_scenarios(nine_bus_model, 0, GenSpec(n_buses=9))
