import copy
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpflow import fileio
from tpflow.bench import BenchRecord
from tpflow.dense import LoadMatrix, VoltageBatch, batch_solve_dense
from tpflow.fileio import (
    FileFormatError,
    read_bench_records,
    read_loads,
    read_network,
    write_bench_records,
    write_loads,
    write_metadata,
    write_network,
    write_voltages,
)
from tpflow.network import NetworkModel, ZipCoefficients
from tpflow.synth import GenSpec, build_network, gen_scenarios


@pytest.fixture
def model():
    return build_network(GenSpec(n_buses=9, seed=42))


_BRANCH_DOC = {
    "slack_voltage": {"re": 1.0, "im": 0.0},
    "n_buses": 3,
    "branches": [{"from": 0, "to": 1, "r": 0.01, "x": 0.02},
                 {"from": 1, "to": 2, "r": 0.01, "x": 0.02}],
}
_MATRIX_DOC = {
    "slack_voltage": {"re": 1.0, "im": 0.0},
    "n_buses": 3,
    "admittance": {
        "n_demand": 2,
        "y_dd": [[0, 0, 2.0, -4.0], [0, 1, -1.0, 2.0], [1, 0, -1.0, 2.0],
                 [1, 1, 1.0, -2.0]],
        "y_ds": [[0, 0, -1.0, 2.0]],
    },
}


def _with(doc, keys, value):
    """A copy of ``doc`` with the value at the path ``keys`` replaced."""
    doc = copy.deepcopy(doc)
    *parents, last = keys
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


class TestNetworkFiles:
    def test_round_trip_branches(self, tmp_path, model):
        path = tmp_path / "net.json"
        write_network(path, model)
        back = read_network(path)
        assert back.n_demand == model.n_demand
        assert back.slack.v_s == model.slack.v_s
        assert [(b.from_bus, b.to_bus, b.r, b.x) for b in back.branches] == \
            [(b.from_bus, b.to_bus, b.r, b.x) for b in model.branches]
        assert np.array_equal(
            back.y_dd.toarray(), model.y_dd.toarray()
        )

    def test_round_trip_matrix_form(self, tmp_path, model):
        direct = NetworkModel(
            model.y_dd, model.y_ds, slack=model.slack
        )
        path = tmp_path / "net.json"
        write_network(path, direct)
        back = read_network(path)
        assert not back.branches
        assert np.abs(
            back.y_dd.toarray() - model.y_dd.toarray()
        ).max() == 0.0
        assert np.abs(
            back.y_ds.toarray() - model.y_ds.toarray()
        ).max() == 0.0

    def test_matrix_section_overrides_branch_assembly(self, tmp_path, model):
        # a document with both sections must prefer the matrix data
        path = tmp_path / "net.json"
        write_network(path, model)
        doc = json.loads(path.read_text())
        doc["admittance"] = {
            "n_demand": 1,
            "y_dd": [[0, 0, 5.0, 0.0]],
            "y_ds": [[0, 0, -5.0, 0.0]],
        }
        path.write_text(json.dumps(doc))
        back = read_network(path)
        assert back.n_demand == 1
        assert back.y_dd.toarray()[0, 0] == 5.0

    def test_round_trip_zip(self, tmp_path, model):
        b = model.n_demand
        zipped = NetworkModel(
            model.y_dd, model.y_ds,
            slack=model.slack,
            zip=ZipCoefficients(
                alpha_z=np.full(b, 0.25), alpha_i=np.full(b, 0.25),
                alpha_p=np.full(b, 0.5),
            ),
            branches=model.branches,
        )
        path = tmp_path / "net.json"
        write_network(path, zipped)
        back = read_network(path)
        assert np.array_equal(back.zip.alpha_z, zipped.zip.alpha_z)
        assert not back.zip.is_constant_power

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(FileFormatError, match="nope.json"):
            read_network(missing)

    def test_invalid_json_diagnosed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError, match="invalid JSON"):
            read_network(path)

    def test_missing_field_diagnosed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_buses": 3}))
        with pytest.raises(FileFormatError, match="slack_voltage"):
            read_network(path)

    def test_bad_branch_field_diagnosed(self, tmp_path):
        doc = {
            "slack_voltage": {"re": 1.0, "im": 0.0},
            "n_buses": 2,
            "branches": [{"from": 0, "to": 1, "r": 0.1}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="branch 0"):
            read_network(path)

    @pytest.mark.parametrize("doc, head", [
        pytest.param(_with(_BRANCH_DOC, ["n_buses"], None), "n_buses: ",
                     id="n_buses-null"),
        pytest.param(_with(_BRANCH_DOC, ["n_buses"], "ten"), "n_buses: ",
                     id="n_buses-text"),
        pytest.param(_with(_BRANCH_DOC, ["n_buses"], float("inf")),
                     "n_buses: ", id="n_buses-infinite"),
        pytest.param(_with(_BRANCH_DOC, ["branches"], 5), "branches: ",
                     id="branches-number"),
        pytest.param(_with(_BRANCH_DOC, ["branches", 1], {"to": 2}),
                     "missing 'from' in branch 1", id="branch-missing-key"),
        pytest.param(_with(_BRANCH_DOC, ["slack_voltage", "re"], 0.0),
                     "slack_voltage: ", id="slack-zero"),
        pytest.param(_with(_BRANCH_DOC, ["slack_voltage"], 1.0),
                     "slack_voltage: ", id="slack-number"),
        pytest.param([_BRANCH_DOC], "document: ", id="document-list"),
        pytest.param(_with(_MATRIX_DOC, ["admittance", "n_demand"], None),
                     "admittance section: ", id="n_demand-null"),
        pytest.param(_with(_MATRIX_DOC, ["admittance", "y_dd", 1], 5),
                     "y_dd entry 1: ", id="y_dd-entry-number"),
        pytest.param(_with(_MATRIX_DOC, ["admittance", "y_dd", 2, 3], None),
                     "y_dd entry 2: ", id="y_dd-entry-null"),
        pytest.param(_with(_MATRIX_DOC, ["admittance", "y_dd", 0], [0, 0, 2.0]),
                     "y_dd entry 0: ", id="y_dd-entry-3-fields"),
        pytest.param(_with(_MATRIX_DOC, ["admittance", "y_ds", 0, 0], 2),
                     "y_ds entry 0: ", id="y_ds-row-out-of-range"),
        pytest.param(_with(_BRANCH_DOC, ["n_buses"], 3.9),
                     "n_buses: 3.9 is not a whole number",
                     id="n_buses-fraction"),
        pytest.param(_with(_BRANCH_DOC, ["branches", 0, "to"], 1.7),
                     "branch 0: 1.7 is not a whole number",
                     id="branch-to-fraction"),
        pytest.param(_with(_BRANCH_DOC, ["branches", 1, "from"], 1.5),
                     "branch 1: ", id="branch-from-fraction"),
        pytest.param(_with(_MATRIX_DOC, ["admittance", "n_demand"], 2.5),
                     "admittance section: ", id="n_demand-fraction"),
        pytest.param(_with(_MATRIX_DOC, ["admittance", "y_dd", 1, 1], 0.5),
                     "y_dd entry 1: ", id="y_dd-col-fraction"),
        pytest.param(_with(_MATRIX_DOC, ["admittance", "y_ds", 0, 0], 0.25),
                     "y_ds entry 0: ", id="y_ds-row-fraction"),
        pytest.param(_with(_BRANCH_DOC, ["zip"], {"alpha_z": [0.0] * 3,
                                                  "alpha_i": [0.0] * 3,
                                                  "alpha_p": [1.0] * 3}),
                     "zip section: ", id="zip-wrong-size"),
        pytest.param(_with(_BRANCH_DOC, ["branches", 0, "r"], float("nan")),
                     "branch 0: ", id="branch-r-nan"),
        pytest.param(_with(_BRANCH_DOC, ["slack_voltage", "re"], float("nan")),
                     "slack_voltage: ", id="slack-nan"),
        pytest.param(_with(_BRANCH_DOC, ["zip"], {"alpha_z": [float("nan"), 0.0],
                                                  "alpha_i": [0.0] * 2,
                                                  "alpha_p": [1.0] * 2}),
                     "zip section: ", id="zip-alpha-nan"),
        pytest.param(_with(_MATRIX_DOC, ["admittance", "y_dd", 1, 2], float("nan")),
                     "y_dd entry 1: ", id="y_dd-value-nan"),
    ])
    def test_malformed_document_names_path_and_field(self, tmp_path, doc, head):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        # any other exception type escapes pytest.raises and fails the test
        with pytest.raises(FileFormatError) as err:
            read_network(path)
        message = str(err.value)
        assert message.startswith(f"{path}: {head}")
        assert message.count(str(path)) == 1

    def test_whole_floats_and_integer_text_read(self, tmp_path):
        doc = _with(_with(_BRANCH_DOC, ["n_buses"], 3.0),
                    ["branches", 1, "to"], "2")
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        model = read_network(path)
        assert model.n_demand == 2
        assert model.branches[1].to_bus == 2

    def test_deep_nesting_is_invalid_json(self, tmp_path):
        path = tmp_path / "net.json"
        # written as text: json.dumps would recurse as deep as json.loads
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(FileFormatError) as err:
            read_network(path)
        message = str(err.value)
        assert message.startswith(f"{path}: invalid JSON: ")
        assert message.count(str(path)) == 1


class TestLoadFiles:
    def test_round_trip_exact(self, tmp_path, model):
        loads = gen_scenarios(model, 17, GenSpec(n_buses=9, seed=1))
        path = tmp_path / "loads.csv"
        write_loads(path, loads)
        back = read_loads(path)
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(back.values, loads.values)

    def test_round_trip_keeps_sign_bits(self, tmp_path):
        values = np.array([[complex(-0.0, 0.5), complex(0.25, -0.0)],
                           [complex(-0.0, -0.0), complex(0.0, 0.0)]])
        path = tmp_path / "loads.csv"
        write_loads(path, LoadMatrix(values))
        back = read_loads(path).values
        assert np.array_equal(back, values)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(back, part)),
                                  np.signbit(getattr(values, part)))

    def test_header_mismatch_diagnosed(self, tmp_path):
        path = tmp_path / "loads.csv"
        path.write_text("p_1,q_2\n0.1,0.0\n")
        with pytest.raises(FileFormatError, match="layout"):
            read_loads(path)

    def test_ragged_row_diagnosed(self, tmp_path):
        path = tmp_path / "loads.csv"
        path.write_text("p_1,q_1\n0.1,0.0\n0.2\n")
        with pytest.raises(FileFormatError, match="line 3"):
            read_loads(path)

    def test_non_numeric_diagnosed(self, tmp_path):
        path = tmp_path / "loads.csv"
        path.write_text("p_1,q_1\nhello,0.0\n")
        with pytest.raises(FileFormatError, match="line 2"):
            read_loads(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_diagnosed(self, tmp_path, bad):
        path = tmp_path / "loads.csv"
        # the blank line is skipped but still counted
        path.write_text(f"p_1,q_1,p_2,q_2\n0.1,0.0,0.1,0.0\n\n0.1,{bad},0.2,0.0\n")
        with pytest.raises(FileFormatError, match=r"loads\.csv: line 4: non-finite q_1"):
            read_loads(path)

    def test_empty_file_diagnosed(self, tmp_path):
        path = tmp_path / "loads.csv"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty"):
            read_loads(path)

    def test_short_first_row_names_line_2(self, tmp_path):
        path = tmp_path / "loads.csv"
        path.write_text("p_1,q_1,p_2,q_2\n0.1,0.0\n0.2,0.1\n")
        with pytest.raises(FileFormatError, match="line 2: expected 4 fields, got 2"):
            read_loads(path)

    def test_comment_line_rejected(self, tmp_path):
        path = tmp_path / "loads.csv"
        path.write_text("p_1,q_1\n0.1,0.0\n# a note\n0.2,0.1\n")
        with pytest.raises(FileFormatError, match="line 3"):
            read_loads(path)

    def test_header_only_file_has_no_cases(self, tmp_path):
        path = tmp_path / "loads.csv"
        path.write_text("p_1,q_1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError, match="no load cases"):
                read_loads(path)

    def test_crlf_reads_as_lf(self, tmp_path):
        text = "p_1,q_1\n0.1,-0.25\n\n0.3,0.4\n"
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert np.array_equal(read_loads(crlf).values, read_loads(lf).values)

    def test_whitespace_only_line_skipped(self, tmp_path):
        path = tmp_path / "loads.csv"
        path.write_text("p_1,q_1\n0.1,0.0\n  \t\n0.2,0.1\n")
        assert np.array_equal(read_loads(path).values, [[0.1 + 0.0j, 0.2 + 0.1j]])


_CELLS = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.17g}", f"{x:+.17g}", f"{x:e}"]))


@st.composite
def _lenient_tables(draw):
    """A load table's text mixing grammar rows with lines that only
    ``np.loadtxt`` reads: CRLF ends, blank or whitespace-only lines, '+'
    cells, ', ' separators, no final newline."""
    ncols = 2 * draw(st.integers(1, 3))
    lines = [",".join(f"{c}_{k}" for k in range(1, ncols // 2 + 1)
                      for c in "pq")]
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", " \t "])))
        sep = draw(st.sampled_from([","] * 4 + [", "]))
        lines.append(sep.join(draw(st.lists(_CELLS, min_size=ncols,
                                            max_size=ncols))))
    ends = draw(st.lists(st.sampled_from(["\n"] * 3 + ["\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


class TestLoadText:
    """Cell and line forms of a load table, each read as ``np.loadtxt``
    reads it, or rejected with the same message."""

    @staticmethod
    def _read(tmp_path, text: bytes):
        path = tmp_path / "loads.csv"
        path.write_bytes(text)
        return read_loads(path).values

    def test_no_trailing_newline(self, tmp_path):
        values = self._read(tmp_path, b"p_1,q_1\n0.1,0.2\n0.3,0.4")
        assert np.array_equal(values, [[0.1 + 0.2j, 0.3 + 0.4j]])

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_rows_straddle_chunk_cuts(self, tmp_path, model, monkeypatch, chunk):
        monkeypatch.setattr(fileio, "_TEXT_CHUNK", chunk, raising=False)
        loads = gen_scenarios(model, 40, GenSpec(n_buses=9, seed=5))
        path = tmp_path / "loads.csv"
        write_loads(path, loads)
        assert np.array_equal(read_loads(path).values, loads.values)

    @pytest.mark.parametrize("cell, value", [
        ("1.", 1.0), (".5", 0.5), ("-.5e-3", -0.0005), ("1E+05", 1e5),
        ("+1", 1.0), ("-0", -0.0), ("007.50", 7.5), ("1e-400", 0.0),
        ("4.9406564584124654e-324", 5e-324),
    ])
    def test_cell_forms(self, tmp_path, cell, value):
        values = self._read(tmp_path, f"p_1,q_1\n{cell},{cell}\n".encode())
        assert values.shape == (1, 1)
        for part in (values[0, 0].real, values[0, 0].imag):
            assert part == value and np.signbit(part) == np.signbit(value)

    def test_underscore_rejected(self, tmp_path):
        with pytest.raises(FileFormatError) as err:
            self._read(tmp_path, b"p_1,q_1\n1_0,2\n")
        assert str(err.value).endswith(
            "loads.csv: line 2: p_1: could not convert string to float: '1_0'")

    def test_overflow_is_non_finite(self, tmp_path):
        with pytest.raises(FileFormatError) as err:
            self._read(tmp_path, b"p_1,q_1\n0.1,0.2\n1e400,2\n")
        assert str(err.value).endswith("loads.csv: line 3: non-finite p_1 = inf")

    def test_lone_cr_line_ends(self, tmp_path):
        values = self._read(tmp_path, b"p_1,q_1\r0.1,-0.25\r\r0.3,0.4\r")
        assert np.array_equal(values, [[0.1 - 0.25j, 0.3 + 0.4j]])

    def test_lone_cr_lines_counted_across_blocks(self, tmp_path, monkeypatch):
        # each '\n' line holds two rows split by a lone '\r'; the count that
        # sizes the table counts both line ends
        monkeypatch.setattr(fileio, "_TEXT_CHUNK", 16)
        text = b"p_1,q_1\n" + b"+1,2\r3,4\n" * 20
        values = self._read(tmp_path, text)
        assert np.array_equal(values, [[1 + 2j, 3 + 4j] * 20])
        with pytest.raises(FileFormatError) as err:
            self._read(tmp_path, text + b"5,nan\n")
        assert str(err.value).endswith(
            "loads.csv: line 42: non-finite q_1 = nan")

    def test_mixed_line_ends_read_as_lf_in_one_count(self, tmp_path, monkeypatch):
        # lone '\r' and '\n' line ends drawn at random over about 60 blocks:
        # one count of both kinds of line end sizes the table
        rng = np.random.default_rng(3)
        rows = [f"{p:.17g},{q:.17g}" for p, q in rng.normal(size=(600, 2))]
        ends = rng.choice(["\r", "\n"], size=len(rows))
        mixed = "p_1,q_1\n" + "".join(r + e for r, e in zip(rows, ends))
        lf = "p_1,q_1\n" + "".join(r + "\n" for r in rows)
        monkeypatch.setattr(fileio, "_TEXT_CHUNK", 256)
        counts = []
        count_newlines = fileio._count_newlines
        monkeypatch.setattr(fileio, "_count_newlines",
                            lambda fh: counts.append(1) or count_newlines(fh))
        values = self._read(tmp_path, mixed.encode())
        assert len(counts) == 1
        assert np.array_equal(values.view(np.uint64),
                              self._read(tmp_path, lf.encode()).view(np.uint64))

    def test_lone_cr_table_read_in_blocks(self, tmp_path, model, monkeypatch):
        # a lone-CR table is cut into blocks as an LF one is, not held whole
        # as one line
        monkeypatch.setattr(fileio, "_TEXT_CHUNK", 1 << 14)
        loads = gen_scenarios(model, 4000, GenSpec(n_buses=9, seed=5))
        lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
        write_loads(lf, loads)
        cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
        want = np.ascontiguousarray(loads.values.T).view(np.uint64)
        for path in (lf, cr):
            tracemalloc.start()
            try:
                values = read_loads(path).values
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(
                np.ascontiguousarray(values.T).view(np.uint64), want)
            # the table, allocated once, and a block's scratch; the text
            # alone is 2.6 times the table
            assert peak < 2 * values.nbytes, (path.name, peak / values.nbytes)

    def test_conversion_fault_before_non_finite(self, tmp_path):
        with pytest.raises(FileFormatError) as err:
            self._read(tmp_path, b"p_1,q_1\n0.1,nan\n0.3,hello\n")
        assert str(err.value).endswith(
            "loads.csv: line 3: q_1: could not convert string to float: 'hello'")

    def test_non_finite_bulk_row_before_lenient_row(self, tmp_path):
        with pytest.raises(FileFormatError) as err:
            self._read(tmp_path, b"p_1,q_1\n1e400,0\n0.3,+1\n")
        assert str(err.value).endswith("loads.csv: line 2: non-finite p_1 = inf")

    def test_bulk_rows_are_not_read_again(self, tmp_path, model, monkeypatch):
        # only the last line is outside the grammar: loadtxt sees the rows
        # of the block that holds it, not the rows parsed before
        monkeypatch.setattr(fileio, "_TEXT_CHUNK", 1024)
        path = tmp_path / "loads.csv"
        write_loads(path, gen_scenarios(model, 40, GenSpec(n_buses=9, seed=5)))
        head, last = path.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)
        text = head + b"\n+" + last + b"\n"
        path.write_bytes(text)
        seen = []
        loadtxt = fileio._loadtxt

        def spy(lines):
            seen.extend(lines)
            return loadtxt(seen)

        monkeypatch.setattr(fileio, "_loadtxt", spy)
        read_loads(path)
        rows = text.decode().splitlines(keepends=True)[1:]
        assert 0 < len(seen) < len(rows) // 4
        assert seen == rows[-len(seen):]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n"])
    def test_newlines_counted_after_first_block(self, tmp_path, model,
                                                monkeypatch, end):
        # the table is sized once, by one count of the lines, whichever
        # parser reads the blocks
        path = tmp_path / "loads.csv"
        loads = gen_scenarios(model, 40, GenSpec(n_buses=9, seed=5))
        write_loads(path, loads)
        path.write_bytes(path.read_bytes().replace(b"\n", end))
        calls = []
        count = fileio._count_newlines
        monkeypatch.setattr(fileio, "_count_newlines",
                            lambda fh: calls.append(fh) or count(fh))
        assert np.array_equal(read_loads(path).values, loads.values)
        assert len(calls) == 1

    @pytest.mark.parametrize("row", [2, 4997])
    def test_fault_looked_for_in_its_block(self, tmp_path, monkeypatch, row):
        n, chunk = 5000, 4096
        rows = [b"%d.5,-%d.25" % (k, k) for k in range(n)]
        rows[row] = b"1.5,hello"
        path = tmp_path / "loads.csv"
        path.write_bytes(b"\r\n".join([b"p_1,q_1", *rows, b""]))
        monkeypatch.setattr(fileio, "_TEXT_CHUNK", chunk)
        # no block holds more lines than this; the table spans several
        block = chunk // min(len(r) + 2 for r in rows) + 1
        assert n > 10 * block
        handed = []
        loadtxt = fileio._loadtxt

        def spy(lines):
            lines = list(lines)
            handed.append(len(lines))
            return loadtxt(lines)

        monkeypatch.setattr(fileio, "_loadtxt", spy)
        with pytest.raises(FileFormatError) as err:
            read_loads(path)
        assert str(err.value).endswith(
            f"loads.csv: line {row + 2}: q_1: could not convert string to "
            "float: 'hello'")
        # each block is read once, and only the rejected one is walked
        assert sum(handed) <= n + block
        # an early fault reads only its own block
        if row < block:
            assert sum(handed) <= 2 * block

    @pytest.mark.parametrize("text, message", [
        # field count first, then the field that fails, on the first line
        # at fault; a line that is not UTF-8 only if none before it is
        (b"1,2\r\n3\r\n4,x\r\n", "line 3: expected 2 fields, got 1"),
        (b"1,2\r\n3,x,5\r\n4\r\n", "line 3: expected 2 fields, got 3"),
        (b"1,2\r\n3,x\r\n4\r\n", "line 3: q_1: could not convert string to "
                                 "float: 'x'"),
        (b"1\r\n2\r\n", "line 2: expected 2 fields, got 1"),
        (b"1,2\r\n3,4\r\n5,\xff\r\n6\r\n", "line 4: 'utf-8' codec can't "
                                           "decode byte 0xff"),
        (b"1,2\r\n3\r\n5,\xff\r\n", "line 3: expected 2 fields, got 1"),
    ])
    def test_first_fault_named(self, tmp_path, text, message):
        with pytest.raises(FileFormatError) as err:
            self._read(tmp_path, b"p_1,q_1\r\n" + text)
        assert f"loads.csv: {message}" in str(err.value)

    def test_non_utf8_byte_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match=r"loads\.csv: line 3:") as err:
            self._read(tmp_path, b"p_1,q_1\n0.1,0.2\n0.\xff,2\n")
        assert "can't decode byte 0xff" in str(err.value)

    @settings(max_examples=60)
    @given(_lenient_tables(), st.integers(1, 300), st.data())
    def test_one_fault_named_in_any_block(self, tmp_path_factory, text, chunk,
                                          data):
        lines = text.splitlines(keepends=True)
        names = lines[0].strip().split(",")
        k = data.draw(st.sampled_from(
            [i for i in range(1, len(lines)) if lines[i].strip()]))
        body = lines[k].rstrip("\r\n")
        fields = body.split(",")
        col = data.draw(st.integers(0, len(names) - 1))
        fault = data.draw(st.sampled_from(["cell", "field", "byte", "inf"]))
        message = {
            "cell": f"{names[col]}: could not convert string to float: 'x'",
            "field": f"expected {len(names)} fields, got {len(names) + 1}",
            "byte": "'utf-8' codec can't decode byte 0xff",
            "inf": f"non-finite {names[col]} = inf",
        }[fault]
        if fault in ("cell", "inf"):
            fields[col] = "x" if fault == "cell" else "1e400"
        elif fault == "field":
            fields.append("1")
        line = (",".join(fields) + lines[k][len(body):]).encode()
        if fault == "byte":
            line = b"\xff" + line
        path = tmp_path_factory.getbasetemp() / "faulty.csv"
        path.write_bytes("".join(lines[:k]).encode() + line
                         + "".join(lines[k + 1:]).encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "_TEXT_CHUNK", chunk)
            with pytest.raises(FileFormatError) as err:
                read_loads(path)
        assert str(err.value).startswith(f"{path}: line {k + 1}: {message}")

    @given(_lenient_tables(), st.integers(1, 300))
    def test_lenient_tables_read_as_loadtxt(self, tmp_path_factory, text,
                                            chunk):
        path = tmp_path_factory.getbasetemp() / "lenient.csv"
        path.write_bytes(text.encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "_TEXT_CHUNK", chunk)
            got = read_loads(path).values
        rows = [line for line in text.splitlines()[1:] if line.strip()]
        want = np.loadtxt(rows, delimiter=",", ndmin=2)
        # bit for bit, the sign of -0.0 included
        assert np.array_equal(np.ascontiguousarray(got.T).view(np.uint64),
                              want.view(np.uint64))


class TestVoltageFiles:
    def test_layout_and_flags(self, tmp_path, model):
        loads = gen_scenarios(model, 4, GenSpec(n_buses=9, seed=2))
        batch = batch_solve_dense(model, loads)
        path = tmp_path / "volts.csv"
        write_voltages(path, batch)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["vm_1", "va_1"]
        assert header[-1] == "converged"
        assert len(lines) == 1 + loads.tau
        row = lines[1].split(",")
        assert row[-1] == "1"
        vm = float(row[0])
        assert vm == pytest.approx(abs(batch.values[0, 0]))


def _cells(*xs) -> list[str]:
    return [f"{x:.17g}" for x in xs]


class TestByteFormat:
    """Writers against a reference built one cell at a time."""

    # 0.1 + 0.2 needs all 17 digits; complex(1, -0.0) has angle -0.0
    VALUES = np.array([[complex(0.1 + 0.2, 0.0), complex(1.0, -0.0)],
                       [complex(-0.5, 0.25), complex(0.0, -1e-300)]])

    def test_voltage_bytes(self, tmp_path):
        batch = VoltageBatch(values=self.VALUES, iterations=3,
                             converged_mask=np.array([True, False]),
                             residuals=np.zeros(2))
        lines = ["vm_1,va_1,vm_2,va_2,converged"]
        for j in range(batch.tau):
            cells = []
            for v in batch.values[:, j]:
                cells += _cells(np.abs(v), np.angle(v))
            cells.append("1" if batch.converged_mask[j] else "0")
            lines.append(",".join(cells))
        expected = "\n".join(lines) + "\n"
        assert "0.30000000000000004," in expected and ",-0," in expected
        path = tmp_path / "volts.csv"
        write_voltages(path, batch)
        assert path.read_bytes() == expected.encode()

    def test_load_bytes(self, tmp_path):
        loads = LoadMatrix(self.VALUES)
        lines = ["p_1,q_1,p_2,q_2"]
        for j in range(loads.tau):
            cells = []
            for v in loads.values[:, j]:
                cells += _cells(v.real, v.imag)
            lines.append(",".join(cells))
        expected = "\n".join(lines) + "\n"
        assert "0.30000000000000004," in expected and ",-0," in expected
        path = tmp_path / "loads.csv"
        write_loads(path, loads)
        assert path.read_bytes() == expected.encode()

    def test_bench_record_bytes(self, tmp_path):
        records = [
            BenchRecord("dense", 100, 1000, 0.1 + 0.2, 12, 3),
            BenchRecord("nr", 9, 10, float("nan"), 0, 1, error="Timeout: a, b"),
        ]
        lines = ["method,b_phi,tau,wall_seconds,iterations,repeats,error"]
        for r in records:
            cells = [r.method, str(r.b_phi), str(r.tau)]
            cells += _cells(r.wall_seconds)
            cells += [str(r.iterations), str(r.repeats)]
            cells.append((r.error or "").replace(",", ";"))
            lines.append(",".join(cells))
        expected = "\n".join(lines) + "\n"
        assert ",0.30000000000000004,12,3,\n" in expected
        assert ",nan,0,1,Timeout: a; b\n" in expected
        path = tmp_path / "rec.csv"
        write_bench_records(path, records)
        assert path.read_bytes() == expected.encode()


class TestBenchRecordFiles:
    def test_round_trip(self, tmp_path):
        records = [
            BenchRecord("dense", 100, 1000, 0.123456789012345678, 12, 3),
            BenchRecord("nr", 9, 10, float("nan"), 0, 1, error="Timeout: slow"),
        ]
        path = tmp_path / "rec.csv"
        write_bench_records(path, records)
        back = read_bench_records(path)
        assert back[0] == records[0]
        assert back[1].error == "Timeout: slow"
        assert np.isnan(back[1].wall_seconds)

    def test_bad_header_diagnosed(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FileFormatError, match="header"):
            read_bench_records(path)


def test_metadata_written_sorted(tmp_path):
    path = tmp_path / "meta.json"
    write_metadata(path, {"b": 1, "a": 2})
    assert json.loads(path.read_text()) == {"a": 2, "b": 1}
    assert path.read_text().index('"a"') < path.read_text().index('"b"')
