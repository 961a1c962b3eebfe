import numpy as np
import pytest

from tpflow import bench
from tpflow.bench import (
    BenchConfig,
    BenchRecord,
    fit_complexity,
    run_benchmark,
    solve_batch,
)
from tpflow.synth import GenSpec, build_network, gen_scenarios


class TestRunBenchmark:
    def test_all_methods_one_cell_cross_agree(self):
        config = BenchConfig(
            methods=("fpi", "dense", "sparse", "nr"), sizes=(9,), taus=(1,),
            repeats=1, seed=0,
        )
        records = run_benchmark(config)
        assert len(records) == 4
        assert all(r.ok for r in records)
        # re-create the cell inputs the way the harness does and check the
        # four methods agree on the solution
        spec = GenSpec(n_buses=10, seed=0 + 9)
        model = build_network(spec)
        loads = gen_scenarios(model, 1, spec)
        solutions = [
            solve_batch(m, model, loads).values
            for m in ("fpi", "dense", "sparse", "nr")
        ]
        for v in solutions[1:]:
            assert np.abs(v - solutions[0]).max() < 1e-8

    def test_dense_time_grows_with_tau(self):
        config = BenchConfig(
            methods=("dense",), sizes=(100,), taus=(10, 1000, 20000),
            repeats=3, seed=1,
        )
        records = run_benchmark(config)
        times = [r.wall_seconds for r in records]
        assert all(r.ok for r in records)
        assert times[0] < times[1] < times[2]

    def test_repeats_recorded(self):
        config = BenchConfig(methods=("dense",), sizes=(9,), taus=(5,), repeats=3)
        rec = run_benchmark(config)[0]
        assert rec.repeats == 3
        assert rec.wall_seconds > 0

    @pytest.mark.parametrize("warmup, timings, n_warm", [
        (0, [1.0, 2.0, 3.0, 9.0], 0),            # no warm-up asked, none run
        (1, [9.0, 5.0, 5.2, 1.0, 2.0, 3.0], 3),  # 5.0 and 5.2 agree within 10%
        (1, [1.0, 9.0] * 5 + [1.0, 2.0, 3.0], 10),  # never agree: the cap
        (3, [5.0, 5.0, 5.0, 1.0, 2.0, 3.0], 3),  # agreed before the minimum
        # a stall: runs that agree, but not yet a second of them
        (1, [0.3, 0.3, 0.3, 0.3, 1.0, 2.0, 3.0], 4),
    ])
    def test_warmup_until_two_runs_agree(self, monkeypatch, warmup, timings,
                                         n_warm):
        script = iter(timings)
        monkeypatch.setattr(bench, "_timed_solve",
                            lambda *args: (next(script), 7))
        config = BenchConfig(methods=("dense",), sizes=(9,), taus=(1,),
                             repeats=3, warmup=warmup)
        rec = run_benchmark(config)[0]
        assert rec.ok and rec.repeats == 3 and rec.iterations == 7
        assert rec.wall_seconds == timings[n_warm + 1]
        assert list(script) == timings[n_warm + 3:]

    def test_failures_are_recorded_not_raised(self):
        # a 1-microsecond timeout fails every cell but the run completes
        config = BenchConfig(
            methods=("dense", "nr"), sizes=(9,), taus=(50,),
            repeats=2, timeout=1e-6,
        )
        records = run_benchmark(config)
        assert len(records) == 2
        assert all(not r.ok for r in records)
        assert all("Timeout" in r.error for r in records)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown methods"):
            BenchConfig(methods=("bfs",))
        with pytest.raises(ValueError, match="non-empty"):
            BenchConfig(sizes=())
        with pytest.raises(ValueError, match="repeats"):
            BenchConfig(repeats=0)


def synthetic_records(c, k, taus, method="dense", b_phi=100):
    return [
        BenchRecord(method, b_phi, t, c * t**k, 10, 3) for t in taus
    ]


class TestFitComplexity:
    def test_exact_power_law_recovered(self):
        records = synthetic_records(2.0, 1.5, (10, 100, 1000, 10000))
        fit = fit_complexity(records, "tau")
        assert fit.c == pytest.approx(2.0, abs=1e-9)
        assert fit.k == pytest.approx(1.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_time_has_zero_exponent(self):
        records = synthetic_records(0.25, 0.0, (10, 100, 1000, 10000))
        fit = fit_complexity(records, "tau")
        assert abs(fit.k) < 1e-9

    def test_measured_dense_scaling_is_linearish(self):
        config = BenchConfig(
            methods=("dense",), sizes=(100,), taus=(100, 1000, 10000),
            repeats=3, seed=2,
        )
        records = run_benchmark(config)
        fit = fit_complexity(records, "tau")
        assert 0.8 <= fit.k <= 1.3
        assert fit.r_squared > 0.95

    def test_b_phi_variable(self):
        records = [
            BenchRecord("nr", n, 10, 1e-4 * n**2, 4, 3) for n in (10, 50, 100, 500)
        ]
        fit = fit_complexity(records, "b_phi")
        assert fit.k == pytest.approx(2.0, abs=1e-9)
        assert fit.variable == "b_phi"

    def test_too_few_points_rejected(self):
        records = synthetic_records(1.0, 1.0, (10, 100))
        with pytest.raises(ValueError, match="at least 3"):
            fit_complexity(records, "tau")

    def test_mixed_methods_rejected(self):
        records = synthetic_records(1.0, 1.0, (10, 100, 1000)) + \
            synthetic_records(1.0, 1.0, (10, 100, 1000), method="nr")
        with pytest.raises(ValueError, match="mixes methods"):
            fit_complexity(records, "tau")

    def test_varying_other_dimension_rejected(self):
        records = synthetic_records(1.0, 1.0, (10, 100, 1000), b_phi=9) + \
            synthetic_records(1.0, 1.0, (20, 200), b_phi=100)
        with pytest.raises(ValueError, match="fixed b_phi"):
            fit_complexity(records, "tau")

    def test_failed_records_excluded_with_warning(self):
        records = synthetic_records(2.0, 1.0, (10, 100, 1000, 10000))
        records.append(
            BenchRecord("dense", 100, 500, float("nan"), 0, 0, error="boom")
        )
        with pytest.warns(UserWarning, match="excluding"):
            fit = fit_complexity(records, "tau")
        assert fit.n_points == 4
        assert fit.k == pytest.approx(1.0, abs=1e-9)

    def test_bad_variable_rejected(self):
        with pytest.raises(ValueError, match="variable"):
            fit_complexity(synthetic_records(1, 1, (1, 2, 3)), "nodes")
