import json
import os

import numpy as np
import pytest

from tpflow import dense, fileio, twobus
from tpflow.cli import main
from tpflow.fpi import SolveOptions
from tpflow.network import NetworkModel


def run(args):
    return main([str(a) for a in args])


def _cells(*xs) -> list[str]:
    return [f"{x:.17g}" for x in xs]


def _text(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture
def net_path(tmp_path):
    path = tmp_path / "net.json"
    assert run(["gen-net", "--buses", 9, "--seed", 42, "--out", path]) == 0
    return path


@pytest.fixture
def loads_path(tmp_path, net_path):
    path = tmp_path / "loads.csv"
    assert run([
        "gen-loads", "--network", net_path, "--tau", 25, "--seed", 7,
        "--out", path,
    ]) == 0
    return path


class TestSolve:
    def test_row_count_matches_tau(self, tmp_path, net_path, loads_path,
                                   monkeypatch):
        # four chunks of at most 7 cases, and one BLAS thread: every usable
        # core but none beyond the three chunks after the first solves one
        monkeypatch.setattr(dense, "_CHUNK_BYTES", 16 * 8 * 7)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out = tmp_path / "v.csv"
        assert run([
            "solve", "--network", net_path, "--loads", loads_path,
            "--method", "dense", "--out", out,
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 25
        meta = json.loads((tmp_path / "v.csv.meta.json").read_text())
        assert meta["method"] == "dense"
        assert meta["converged_cases"] == 25
        assert meta["max_residual"] < 1e-8
        assert meta["wall_seconds"] > 0
        phases = meta["phase_seconds"]
        assert set(phases) == {"read_network", "read_loads", "solve",
                               "write_voltages"}
        assert all(t > 0 for t in phases.values())
        assert phases["solve"] == meta["wall_seconds"]
        assert meta["usable_cores"] == len(os.sched_getaffinity(0))
        assert meta["chunk_workers"] == min(3, meta["usable_cores"])

    def test_sparse_equals_dense(self, tmp_path, net_path, loads_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["solve", "--network", net_path, "--loads", loads_path,
             "--method", "dense", "--out", a])
        run(["solve", "--network", net_path, "--loads", loads_path,
             "--method", "sparse", "--out", b])
        va = np.loadtxt(a, delimiter=",", skiprows=1)
        vb = np.loadtxt(b, delimiter=",", skiprows=1)
        assert np.abs(va - vb).max() < 1e-10

    @pytest.mark.parametrize("method", ["fpi", "nr"])
    def test_per_case_methods(self, tmp_path, net_path, loads_path, method):
        out = tmp_path / "v.csv"
        assert run([
            "solve", "--network", net_path, "--loads", loads_path,
            "--method", method, "--out", out,
        ]) == 0
        meta = json.loads((tmp_path / "v.csv.meta.json").read_text())
        assert meta["converged_cases"] == 25

    def test_missing_network_named_in_error(self, tmp_path, loads_path, capsys):
        code = run([
            "solve", "--network", tmp_path / "absent.json",
            "--loads", loads_path, "--out", tmp_path / "v.csv",
        ])
        assert code == 1
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize("arg", ["--network", "--loads", "--out"])
    def test_os_error_named_in_error(self, tmp_path, net_path, loads_path,
                                     capsys, arg):
        paths = {"--network": net_path, "--loads": loads_path,
                 "--out": tmp_path / "v.csv"}
        # a directory for an input; a file in a missing directory for --out
        paths[arg] = tmp_path / ("missing/v.csv" if arg == "--out" else "")
        code = run(["solve", *(x for kv in paths.items() for x in kv)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(paths[arg]) in lines[0]

    def test_malformed_network_is_one_error_line(self, tmp_path, net_path,
                                                 loads_path, capsys):
        doc = json.loads(net_path.read_text())
        doc["n_buses"] = None
        net_path.write_text(json.dumps(doc))
        code = run([
            "solve", "--network", net_path, "--loads", loads_path,
            "--out", tmp_path / "v.csv",
        ])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {net_path}: n_buses: ")

    def test_deeply_nested_network_is_one_error_line(self, tmp_path,
                                                     loads_path, capsys):
        net = tmp_path / "deep.json"
        net.write_text("[" * 100_000 + "]" * 100_000)
        code = run([
            "solve", "--network", net, "--loads", loads_path,
            "--out", tmp_path / "v.csv",
        ])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {net}: invalid JSON: ")

    @pytest.mark.parametrize("method", ["dense", "sparse", "fpi"])
    def test_singular_y_dd_is_one_error_line(self, tmp_path, method, capsys):
        # a fed two-node network whose Y_dd is singular
        net, loads = tmp_path / "net.json", tmp_path / "loads.csv"
        y_dd = np.array([[1 - 1j, -1 + 1j], [-1 + 1j, 1 - 1j]])
        fileio.write_network(net, NetworkModel(y_dd, [[-0.5 + 0.5j], [0]]))
        loads.write_text("p_1,q_1,p_2,q_2\n0.1,0.05,0.1,0.05\n")
        code = run([
            "solve", "--network", net, "--loads", loads, "--method", method,
            "--out", tmp_path / "v.csv",
        ])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_nan_tolerance_rejected(self, tmp_path, net_path, loads_path, capsys):
        code = run([
            "solve", "--network", net_path, "--loads", loads_path,
            "--tol", "nan", "--out", tmp_path / "v.csv",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: tolerance must be positive\n"
        assert not (tmp_path / "v.csv").exists()

    def test_malformed_loads_report_line(self, tmp_path, net_path, capsys):
        bad = tmp_path / "bad.csv"
        header = ",".join(f"p_{i},q_{i}" for i in range(1, 9))
        bad.write_text(header + "\n" + "0.1,0.0\n")
        code = run([
            "solve", "--network", net_path, "--loads", bad,
            "--out", tmp_path / "v.csv",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "bad.csv" in err

    def test_nonconvergence_is_exit_zero(self, tmp_path, net_path):
        # overload far beyond feasibility: flagged rows, successful exit
        heavy = tmp_path / "heavy.csv"
        header = ",".join(f"p_{i},q_{i}" for i in range(1, 9))
        row = ",".join(["30.0,20.0"] * 8)
        heavy.write_text(header + "\n" + row + "\n")
        out = tmp_path / "v.csv"
        assert run([
            "solve", "--network", net_path, "--loads", heavy, "--out", out,
        ]) == 0
        meta = json.loads((tmp_path / "v.csv.meta.json").read_text())
        assert meta["converged_cases"] == 0
        assert meta["nonconverged_cases"] == [0]
        assert out.read_text().strip().splitlines()[1].endswith(",0")

    def test_byte_identical_reruns(self, tmp_path, net_path, loads_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["solve", "--network", net_path, "--loads", loads_path,
                 "--method", "dense", "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_output_rows_follow_input_cases(self, tmp_path, net_path):
        # heavier load must stay on its own row: no reordering, no drops
        loads = tmp_path / "two.csv"
        header = ",".join(f"p_{i},q_{i}" for i in range(1, 9))
        heavy = ",".join(["0.5,0.2"] * 8)
        light = ",".join(["0.001,0.0005"] * 8)
        loads.write_text(f"{header}\n{heavy}\n{light}\n")
        out = tmp_path / "v.csv"
        assert run(["solve", "--network", net_path, "--loads", loads,
                    "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        vm_heavy, vm_light = rows[0, 0], rows[1, 0]
        assert vm_heavy < vm_light

    def test_packaged_nine_bus_sample(self, tmp_path):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1] / "sample"
        out = tmp_path / "v.csv"
        assert run([
            "solve", "--network", root / "net9.json",
            "--loads", root / "loads9.csv", "--method", "dense", "--out", out,
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 20


class TestGenerators:
    def test_gen_net_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen-net", "--buses", 15, "--seed", 3, "--out", a])
        run(["gen-net", "--buses", 15, "--seed", 3, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_loads_deterministic(self, tmp_path, net_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["gen-loads", "--network", net_path, "--tau", 10,
                 "--seed", 5, "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_loads_scale_zero(self, tmp_path, net_path, capsys):
        out = tmp_path / "z.csv"
        run(["gen-loads", "--network", net_path, "--tau", 3, "--seed", 1,
             "--scale", 0, "--out", out])
        arr = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(arr == 0)


class TestTwoBus:
    def test_circles_two_intersections(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run([
            "twobus", "circles", "--p", 0.18, "--q", 0.11,
            "--rs", 1, "--xs", 0.5, "--out", out,
        ]) == 0
        rows = [l for l in out.read_text().splitlines() if l.startswith("intersection")]
        assert len(rows) == 2

    def test_region_vertex_distance(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run([
            "twobus", "region", "--rs", 1, "--xs", 0.5, "--out", out,
        ]) == 0
        dist = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2]
        assert dist.min() == pytest.approx(0.2236068, abs=1e-3)

    def test_basin_defaults_mostly_high(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run([
            "twobus", "basin", "--method", "fpi", "--resolution", 40,
            "--out", out,
        ]) == 0
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == 40 * 40
        high = sum(1 for l in lines if l.split(",")[2] == "high")
        assert high / len(lines) >= 0.999


    def test_basin_resolution_zero_rejected(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = run(["twobus", "basin", "--resolution", 0, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: resolution must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["region", "--rs", "nan", "--xs", 0.5], "source impedance"),
        (["region", "--rs", 1, "--xs", 0.5, "--v0", "inf"],
         "source voltage magnitude"),
        (["circles", "--rs", 1, "--xs", 0.5, "--p", "nan", "--q", 0.1],
         "load power"),
        (["basin", "--p", "nan", "--resolution", 5], "load power"),
        (["basin", "--xs", "inf", "--resolution", 5], "source impedance"),
    ])
    def test_non_finite_input_rejected(self, tmp_path, capsys, args, message):
        out = tmp_path / "t.csv"
        assert run(["twobus", *args, "--out", out]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message} must be")
        assert not out.exists()


class TestTwoBusBytes:
    """Table bytes against a reference built one cell at a time."""

    SYSTEM = twobus.TwoBusSystem(z_s=complex(1.0, 0.5), v0=1.0,
                                 s_l=complex(0.18, 0.11))

    def test_circles(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run([
            "twobus", "circles", "--rs", 1, "--xs", 0.5, "--p", 0.18,
            "--q", 0.11, "--points", 7, "--out", out,
        ]) == 0
        pair = twobus.load_circles(self.SYSTEM)
        lines = ["kind,r,x"]
        for kind, (cr, cx), radius in (
            ("circle_p", pair.center_p, pair.radius_p),
            ("circle_q", pair.center_q, pair.radius_q),
        ):
            for a in np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False):
                lines.append(",".join(
                    [kind] + _cells(cr + radius * np.cos(a), cx + radius * np.sin(a))
                ))
        for r, x in twobus.circle_intersections(pair):
            lines.append(",".join(["intersection"] + _cells(r, x)))
        assert len(lines) == 1 + 7 + 7 + 2
        assert out.read_bytes() == _text(lines)

    def test_circles_of_unreachable_load_are_header_only(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run([
            "twobus", "circles", "--rs", 1, "--xs", 0.5, "--p", 5, "--q", 5,
            "--out", out,
        ]) == 0
        assert out.read_bytes() == b"kind,r,x\n"

    def test_region(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run([
            "twobus", "region", "--rs", 1, "--xs", 0.5, "--points", 9,
            "--out", out,
        ]) == 0
        coeffs = twobus.feasibility_parabola(1.0, 0.5, 1.0)
        locus = twobus.parabola_locus(coeffs, n_points=9)
        lines = ["p,q,dist"] + [",".join(_cells(*row)) for row in locus]
        assert len(lines) > 1
        assert out.read_bytes() == _text(lines)

    def test_basin(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run([
            "twobus", "basin", "--resolution", 5, "--out", out,
        ]) == 0
        basin = twobus.basin_scan(self.SYSTEM, method="fpi", resolution=5,
                                  opts=SolveOptions())
        lines = ["re,im,class,iters"]
        for i, re in enumerate(basin.re_grid):
            for j, im in enumerate(basin.im_grid):
                name = twobus.CLASS_NAMES[basin.classes[i, j]]
                iters = str(basin.iterations[i, j])
                lines.append(",".join(_cells(re, im) + [name, iters]))
        assert len(lines) == 1 + 5 * 5
        assert out.read_bytes() == _text(lines)


class TestBenchAndFit:
    def test_bench_then_fit(self, tmp_path, capsys):
        rec = tmp_path / "rec.csv"
        assert run([
            "bench", "--methods", "dense", "--sizes", "9",
            "--taus", "10,100,1000", "--repeats", 1, "--seed", 4,
            "--out", rec,
        ]) == 0
        fit_out = tmp_path / "fit.json"
        assert run([
            "fit", "--records", rec, "--variable", "tau",
            "--method", "dense", "--out", fit_out,
        ]) == 0
        fit = json.loads(fit_out.read_text())
        assert 0.0 < fit["k"] < 2.0
        assert fit["n_points"] == 3

    def test_bench_reports_cells(self, tmp_path, capsys):
        rec = tmp_path / "rec.csv"
        run(["bench", "--methods", "fpi,nr", "--sizes", "9", "--taus", "2",
             "--repeats", 1, "--out", rec])
        report = capsys.readouterr().out
        assert "fpi" in report and "nr" in report
        meta = json.loads((tmp_path / "rec.csv.meta.json").read_text())
        assert meta["failed_cells"] == 0
