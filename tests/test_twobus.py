import math

import numpy as np
import pytest

from tpflow.fpi import SolveOptions
from tpflow.twobus import (
    CLASS_NAMES,
    CirclePair,
    TwoBusSystem,
    basin_scan,
    circle_intersections,
    closed_form_solutions,
    feasibility_parabola,
    load_circles,
    norm_feasible,
    parabola_locus,
    parabola_vertex_distance,
    radical_intercept,
    solution_impedances,
    tangency_altitude,
    tangency_load,
)

from conftest import two_bus_roots_oracle

V_HIGH = (1 + math.sqrt(0.96)) / 2
V_LOW = (1 - math.sqrt(0.96)) / 2


def random_feasible_system(rng, margin=0.95):
    """Random z_s in the first quadrant and a load strictly inside the
    norm-condition circle, so two distinct solutions exist."""
    z_mag = rng.uniform(0.1, 2.0)
    z_arg = rng.uniform(0.05, np.pi / 2 - 0.05)
    z_s = z_mag * np.exp(1j * z_arg)
    s_mag = rng.uniform(0.05, margin) / (4.0 * z_mag)
    s_arg = rng.uniform(0.05, np.pi / 2 - 0.05)
    s = s_mag * np.exp(1j * s_arg)
    return TwoBusSystem(z_s=complex(z_s), v0=1.0, s_l=complex(s))


class TestClosedForm:
    def test_reference_roots(self):
        sys_ = TwoBusSystem(z_s=0.1 + 0j, v0=1.0, s_l=0.1 + 0j)
        roots = closed_form_solutions(sys_)
        assert roots[0] == pytest.approx(V_HIGH, abs=1e-14)
        assert roots[1] == pytest.approx(V_LOW, abs=1e-14)

    def test_roots_satisfy_defining_relation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sys_ = random_feasible_system(rng)
            roots = closed_form_solutions(sys_)
            assert len(roots) == 2
            for v in roots:
                # v = v0 - z_s s* / v*
                back = sys_.v0 - sys_.z_s * np.conj(sys_.s_l) / np.conj(v)
                assert abs(v - back) < 1e-12

    def test_tangency_gives_single_root(self):
        # |z_s| = 5 and v0 = 1 make the construction exact in floats
        z_s = 3.0 + 4.0j
        sys_ = TwoBusSystem(z_s=z_s, v0=1.0, s_l=tangency_load(z_s))
        roots = closed_form_solutions(sys_)
        assert len(roots) == 1

    def test_no_load_returns_source_voltage(self):
        assert closed_form_solutions(TwoBusSystem(z_s=1j, v0=1.1)) == [1.1 + 0j]

    def test_infeasible_returns_empty(self):
        sys_ = TwoBusSystem(z_s=1.0 + 0.5j, v0=1.0, s_l=0.3 + 0.2j)
        assert not norm_feasible(sys_.s_l, sys_.z_s, sys_.v0)
        assert closed_form_solutions(sys_) == []


class TestCircles:
    def test_reference_circles_intersect_twice(self):
        sys_ = TwoBusSystem(z_s=1.0 + 0.5j, v0=1.0, s_l=0.18 + 0.11j)
        pts = circle_intersections(load_circles(sys_))
        assert len(pts) == 2

    def test_excess_single_axis_power_gives_empty_circle(self):
        # radicand v0^2 - 4 r_s p < 0
        sys_ = TwoBusSystem(z_s=1.0 + 0.5j, v0=1.0, s_l=0.3 + 0.11j)
        pair = load_circles(sys_)
        assert math.isnan(pair.radius_p)
        assert circle_intersections(pair) == []

    def test_intersections_bracket_source_impedance(self):
        sys_ = TwoBusSystem(z_s=1.0 + 0.5j, v0=1.0, s_l=0.18 + 0.11j)
        pts = circle_intersections(load_circles(sys_))
        mags = sorted(math.hypot(r, x) for r, x in pts)
        assert mags[0] < abs(sys_.z_s) < mags[1]

    def test_intersections_match_closed_form_impedances(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sys_ = random_feasible_system(rng)
            pts = circle_intersections(load_circles(sys_))
            z_direct = solution_impedances(sys_)
            assert len(pts) == 2 and len(z_direct) == 2
            got = [complex(r, x) for r, x in pts]
            for a, b in zip(sorted(got, key=abs), sorted(z_direct, key=abs)):
                assert abs(a - b) < 1e-8

    def test_intersections_reproduce_input_power(self):
        # plugging z_l back into s = (z_l / |z_s + z_l|^2) v0^2 recovers (p, q)
        rng = np.random.default_rng(2)
        for _ in range(100):
            sys_ = random_feasible_system(rng)
            for r_l, x_l in circle_intersections(load_circles(sys_)):
                z_l = complex(r_l, x_l)
                s_back = z_l * sys_.v0**2 / abs(sys_.z_s + z_l) ** 2
                assert abs(s_back - sys_.s_l) < 1e-10

    def test_degenerate_axis_power_rejected(self):
        with pytest.raises(ValueError, match="nonzero p and q"):
            load_circles(TwoBusSystem(z_s=1.0, s_l=0.1 + 0j))


class TestInputs:
    # NaN fails every comparison, so a check that only rejects what compares
    # bad (``v0 <= 0``) lets it through
    @pytest.mark.parametrize("field, value, message", [
        ("z_s", complex(math.nan, 0.5), "source impedance"),
        ("z_s", complex(1.0, math.inf), "source impedance"),
        ("z_s", 0j, "source impedance"),
        ("v0", math.nan, "source voltage magnitude"),
        ("v0", math.inf, "source voltage magnitude"),
        ("v0", 0.0, "source voltage magnitude"),
        ("s_l", complex(math.nan, 0.1), "load power"),
        ("s_l", complex(0.1, -math.inf), "load power"),
    ])
    def test_system_rejects_non_finite_or_zero(self, field, value, message):
        kwargs = {"z_s": 1.0 + 0.5j, "v0": 1.0, "s_l": 0.18 + 0.11j, field: value}
        with pytest.raises(ValueError, match=f"{message} must be"):
            TwoBusSystem(**kwargs)

    @pytest.mark.parametrize("r_s, x_s, v0, message", [
        (math.nan, 0.5, 1.0, "source impedance"),
        (1.0, math.inf, 1.0, "source impedance"),
        (0.0, 0.0, 1.0, "source impedance"),
        (1.0, 0.5, math.nan, "source voltage magnitude"),
        (1.0, 0.5, math.inf, "source voltage magnitude"),
    ])
    def test_parabola_rejects_non_finite_or_zero(self, r_s, x_s, v0, message):
        with pytest.raises(ValueError, match=f"{message} must be"):
            feasibility_parabola(r_s, x_s, v0)


class TestRadicalLine:
    def test_reference_intercept_is_zero(self):
        sys_ = TwoBusSystem(z_s=1.0 + 0.5j, v0=1.0, s_l=0.18 + 0.11j)
        assert abs(radical_intercept(load_circles(sys_))) < 1e-12

    def test_unrelated_circles_have_nonzero_intercept(self):
        pair = CirclePair(
            center_p=(1.0, 2.0), radius_p=0.5, center_q=(3.0, -1.0), radius_q=1.0
        )
        assert abs(radical_intercept(pair)) > 0.1

    def test_thousand_random_draws(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            sys_ = random_feasible_system(rng)
            worst = max(worst, abs(radical_intercept(load_circles(sys_))))
        assert worst < 1e-10

    def test_equal_center_ordinates_rejected(self):
        pair = CirclePair(
            center_p=(1.0, 2.0), radius_p=0.5, center_q=(3.0, 2.0), radius_q=1.0
        )
        with pytest.raises(ValueError, match="vertical"):
            radical_intercept(pair)


class TestTangency:
    def test_aligned_tangency_altitude(self):
        z_s = 3.0 + 4.0j
        sys_ = TwoBusSystem(z_s=z_s, v0=1.0, s_l=tangency_load(z_s))
        pair = load_circles(sys_)
        assert tangency_altitude(pair) == pytest.approx(5.0, abs=1e-9)

    def test_reference_source_altitude(self):
        z_s = 1.0 + 0.5j
        sys_ = TwoBusSystem(z_s=z_s, v0=1.0, s_l=tangency_load(z_s))
        h = tangency_altitude(load_circles(sys_))
        assert h == pytest.approx(math.sqrt(1.25), abs=1e-9)
        assert h == pytest.approx(1.118033988749895, abs=1e-9)

    def test_altitude_scales_with_the_system(self):
        # scaling z_s by a and v0^2 by a (load stays at the max-transfer
        # point) scales the whole impedance plane, hence h, by a
        z_s = 1.0 + 0.5j
        base = tangency_altitude(
            load_circles(TwoBusSystem(z_s, 1.0, tangency_load(z_s, 1.0)))
        )
        for alpha in (0.5, 2.0, 7.0):
            z_a = alpha * z_s
            v0_a = math.sqrt(alpha)
            h = tangency_altitude(
                load_circles(TwoBusSystem(z_a, v0_a, tangency_load(z_a, v0_a)))
            )
            assert h == pytest.approx(alpha * base, rel=1e-9)

    def test_non_tangent_input_rejected(self):
        sys_ = TwoBusSystem(z_s=1.0 + 0.5j, v0=1.0, s_l=0.18 + 0.11j)
        with pytest.raises(ValueError, match="tangent"):
            tangency_altitude(load_circles(sys_))


class TestParabola:
    def test_resistive_source_max_power(self):
        # on the q = 0 axis the curve reduces to K p + L = 0, p = v0^2/(4 r_s)
        coeffs = feasibility_parabola(0.1, 0.0, 1.0)
        assert coeffs.evaluate(2.5, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_discriminant_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            r_s, x_s = rng.uniform(0.01, 3.0, 2)
            assert abs(feasibility_parabola(r_s, x_s).discriminant) < 1e-12

    def test_vertex_distance_on_impedance_circle(self):
        # all parameterizations with |z_s| fixed share the vertex distance
        # v0^2 / (4 |z_s|); the minimum is found numerically per curve
        rng = np.random.default_rng(5)
        z_mag = 1.25
        for _ in range(25):
            theta = rng.uniform(0.05, np.pi / 2 - 0.05)
            r_s, x_s = z_mag * math.cos(theta), z_mag * math.sin(theta)
            dist = parabola_vertex_distance(feasibility_parabola(r_s, x_s))
            assert dist == pytest.approx(1.0 / (4.0 * z_mag), abs=1e-6)

    def test_points_inside_norm_circle_are_feasible(self):
        rng = np.random.default_rng(6)
        z_mag = 0.8
        bound = 1.0 / (4.0 * z_mag)
        for _ in range(50):
            theta = rng.uniform(0.02, np.pi / 2 - 0.02)
            coeffs = feasibility_parabola(
                z_mag * math.cos(theta), z_mag * math.sin(theta)
            )
            s_mag = rng.uniform(0.0, 0.999) * bound
            s_arg = rng.uniform(0, 2 * np.pi)
            p, q = s_mag * math.cos(s_arg), s_mag * math.sin(s_arg)
            assert coeffs.evaluate(p, q) < 0

    def test_locus_lies_on_the_curve(self):
        coeffs = feasibility_parabola(1.0, 0.5)
        locus = parabola_locus(coeffs, n_points=90)
        assert len(locus) > 10
        vals = coeffs.evaluate(locus[:, 0], locus[:, 1])
        assert np.abs(vals).max() < 1e-9


class TestNormCondition:
    def test_reference_load_is_feasible(self):
        assert abs(0.18 + 0.11j) == pytest.approx(0.21095, abs=1e-5)
        assert norm_feasible(0.18 + 0.11j, 1.0 + 0.5j, 1.0)

    def test_slightly_larger_load_is_not(self):
        s = 0.23 * (0.18 + 0.11j) / abs(0.18 + 0.11j)
        assert not norm_feasible(s, 1.0 + 0.5j, 1.0)
        # bound is 1/(4 sqrt(1.25)) = 0.2236068
        assert 1.0 / (4.0 * math.sqrt(1.25)) == pytest.approx(0.2236068, abs=1e-7)

    def test_zero_load_feasible(self):
        assert norm_feasible(0.0j, 123.0 + 4j)


class TestBasin:
    SYS = TwoBusSystem(z_s=1.0 + 0.5j, v0=1.0, s_l=0.18 + 0.11j)

    def test_fpi_converges_high_from_everywhere(self):
        basin = basin_scan(self.SYS, method="fpi", resolution=60)
        assert basin.fraction_nonzero("high") >= 0.999
        assert basin.fraction("low") == 0.0

    def test_nr_splits_between_roots(self):
        basin = basin_scan(self.SYS, method="nr", resolution=60)
        assert basin.fraction("high") > 0.0
        assert basin.fraction("low") > 0.005

    def test_start_at_root_is_immediate(self):
        v_high = closed_form_solutions(self.SYS)[0]
        basin = basin_scan(
            self.SYS, method="fpi",
            re_range=(v_high.real, v_high.real),
            im_range=(v_high.imag, v_high.imag),
            resolution=1,
        )
        assert CLASS_NAMES[basin.classes[0, 0]] == "high"
        assert basin.iterations[0, 0] <= 1

    def test_iteration_counts_recorded(self):
        basin = basin_scan(self.SYS, method="fpi", resolution=30)
        conv = basin.classes != 2
        assert basin.iterations[conv].min() >= 1
        assert basin.iterations[conv].max() <= 100

    def test_requires_two_roots(self):
        with pytest.raises(ValueError, match="two solutions"):
            basin_scan(TwoBusSystem(z_s=0.1 + 0j, v0=1.0, s_l=0.0j))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown basin method"):
            basin_scan(self.SYS, method="bfgs")

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_resolution_below_one_rejected(self, resolution):
        with pytest.raises(ValueError, match=r"resolution must be >= 1"):
            basin_scan(self.SYS, resolution=resolution)

    def test_nr_singular_jacobian_cell_is_diverged(self):
        # for a purely resistive source the NR Jacobian is singular along
        # Re(v) = v0/2 exactly; such a start must freeze and classify diverged
        sys_ = TwoBusSystem(z_s=1.0 + 0j, v0=1.0, s_l=0.2 + 0.05j)
        basin = basin_scan(
            sys_, method="nr",
            re_range=(0.5, 0.5), im_range=(0.0, 0.0), resolution=1,
        )
        assert CLASS_NAMES[basin.classes[0, 0]] == "diverged"

    def test_fpi_matches_network_solver(self):
        # the scalar scan and the general single-case solver agree
        from tpflow.fpi import fpi_solve

        basin = basin_scan(self.SYS, method="fpi", resolution=5)
        model = self.SYS.to_network()
        res = fpi_solve(
            model, [self.SYS.s_l],
            SolveOptions(initial_voltage=np.array([1.0 + 1.0j])),
        )
        v_high = closed_form_solutions(self.SYS)[0]
        assert res.converged and abs(res.v[0] - v_high) < 1e-8
        assert basin.fraction("high") == 1.0


def test_oracle_agreement_with_module():
    # the conftest oracle and the module implementation are distinct code
    # paths; they must agree
    rng = np.random.default_rng(7)
    for _ in range(100):
        sys_ = random_feasible_system(rng)
        a = closed_form_solutions(sys_)
        b = two_bus_roots_oracle(sys_.z_s, sys_.v0, sys_.s_l)
        assert len(a) == len(b) == 2
        assert abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12
