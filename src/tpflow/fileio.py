"""File formats: network documents, load tables, voltage tables, metadata.

Networks are JSON with the slack voltage, bus count, branch array and
optional per-node ZIP triples; an optional ``admittance`` section carries
coordinate triplets for Y_dd / Y_ds and overrides branch assembly (the route
for polyphase or externally assembled systems).  :func:`write_network` writes
that section for a model with no branches.  :func:`read_network` parses a
document under one error handler, so any malformed field, or one the model
rejects (a bad block shape, a non-finite value), raises a
:class:`FileFormatError` that names the file and the field.

Loads and voltages are comma-delimited text with one row per case; a load
table may hold blank lines and CRLF line ends but no comments.  Every float
in a text table is written with 17 significant digits, the bytes of
``'%.17g' % x``, so floats round-trip exactly and identical inputs give
byte-identical files.  Two writers cover the tables:

* :func:`write_float_table` writes the all-float tables (loads, voltages,
  the two-bus region) from a numpy array, in row blocks of 256 KiB of cells,
  through the vectorised formatter of :mod:`tpflow.floattext`.  That
  computes each cell's 17 digits exactly in bulk: Dekker's two-product of
  ``|x|`` with the exact double ``10**(16 - X)``.  It covers zeros and
  exponents X from -6 to 15, about ``1e-6 <= |x| < 1e16``.  Any other cell
  (a subnormal, a tiny or huge magnitude, inf, nan) is formatted on its own
  by ``'%.17g'`` and put into its place.
* :func:`write_table` writes the mixed-type tables (bench records, two-bus
  circles and basin) one ``fmt % row`` line at a time.

:func:`read_loads` reads a load table in one forward pass over one binary
file handle, in blocks of whole lines of about 256 KiB.  Each block goes to
:func:`tpflow.floattext.parse_rows` while every row is comma-separated cells
of the grammar ``-?D*(.D*)?([eE][+-]?D+)?`` ended by a newline.  From the
first block it rejects (CRLF or blank lines, spaces, a leading '+', nan or
inf, '_', a non-ASCII byte, a wrong field count, no final newline) on, each
block goes to ``np.loadtxt`` on its own, split into lines as text mode
splits them and decoded as UTF-8.  Blocks are cut at '\\n', '\\r\\n' and
lone '\\r' line ends alike, so a table with any of them is read in blocks of
the same size.  The lines are counted first: a row is a line of its own, so
the count bounds the rows and the table is allocated once.  A fault is
looked for only in the block that loadtxt rejects.  Both parsers give each
cell's correctly rounded double, so they agree bit for bit.

Run metadata is JSON.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path
from typing import Any

import numpy as np
from scipy import sparse

from .dense import LoadMatrix, VoltageBatch
from .network import Branch, NetworkModel, SlackSpec, ZipCoefficients

__all__ = [
    "FileFormatError",
    "read_network",
    "write_network",
    "read_loads",
    "write_loads",
    "write_voltages",
    "write_metadata",
    "read_bench_records",
    "write_bench_records",
    "write_table",
    "write_float_table",
]


class FileFormatError(ValueError):
    """Malformed input file; the message names the file and offending field."""


def write_network(path, model: NetworkModel) -> None:
    doc: dict[str, Any] = {
        "slack_voltage": {"re": model.slack.v_s.real, "im": model.slack.v_s.imag},
        "n_buses": model.n_demand + 1,
    }
    if model.branches:
        doc["branches"] = [
            {"from": br.from_bus, "to": br.to_bus, "r": br.r, "x": br.x,
             "b_shunt": br.b_shunt}
            for br in model.branches
        ]
    else:
        adm = doc["admittance"] = {"n_demand": model.n_demand}
        for name, block in (("y_dd", model.y_dd), ("y_ds", model.y_ds)):
            m = block.tocoo()
            adm[name] = [[int(i), int(j), v.real, v.imag]
                         for i, j, v in zip(m.row, m.col, m.data)]
    if not model.zip.is_constant_power:
        doc["zip"] = {
            "alpha_z": model.zip.alpha_z.tolist(),
            "alpha_i": model.zip.alpha_i.tolist(),
            "alpha_p": model.zip.alpha_p.tolist(),
        }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _triplets_to_csc(triplets, shape) -> sparse.csc_matrix:
    """The ``shape`` matrix that sums the (row, col, value) ``triplets``."""
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    return sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsc()


def _whole(value) -> int:
    """``int(value)`` for a whole number or its text; a fraction raises."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def read_network(path) -> NetworkModel:
    """The network model of the JSON document at ``path``.

    The document is read under one handler, with ``where`` set to the part
    being read: ``document``, ``slack_voltage``, ``n_buses``,
    ``admittance section``, ``y_dd entry k``/``y_ds entry k``, ``branches``,
    ``branch k`` or ``zip section``.  A missing key raises
    :class:`FileFormatError` as ``<path>: missing '<key>' in <where>``, and
    any other malformed value, one the model rejects included, as
    ``<path>: <where>: <reason>``.
    """
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"{path}: no such file")
    where = "invalid JSON"
    try:
        doc = json.loads(path.read_text())
        where = "document"
        sv, n_buses = doc["slack_voltage"], doc["n_buses"]
        where = "slack_voltage"
        slack = SlackSpec(complex(float(sv["re"]), float(sv["im"])))
        where = "n_buses"
        n_buses = _whole(n_buses)
        if "admittance" in doc:
            where = "admittance section"
            adm = doc["admittance"]
            n = _whole(adm["n_demand"])
            blocks = []
            for name, shape in (("y_dd", (n, n)), ("y_ds", (n, 1))):
                where = "admittance section"
                triplets = []
                for k, entry in enumerate(adm[name]):
                    where = f"{name} entry {k}"
                    i, j, re, im = entry
                    i, j = _whole(i), _whole(j)
                    if not (0 <= i < shape[0] and 0 <= j < shape[1]):
                        raise ValueError(f"index ({i}, {j}) is outside the "
                                         f"{shape[0]} x {shape[1]} block")
                    value = complex(re, im)
                    if not np.isfinite(value):
                        raise ValueError(f"value {value} is not finite")
                    triplets.append((i, j, value))
                blocks.append(_triplets_to_csc(triplets, shape))
            model = NetworkModel(*blocks, slack=slack)
        else:
            where = "document"
            raw = doc["branches"]
            where = "branches"
            branches = []
            for k, entry in enumerate(raw):
                where = f"branch {k}"
                branches.append(Branch(
                    from_bus=_whole(entry["from"]), to_bus=_whole(entry["to"]),
                    r=float(entry["r"]), x=float(entry["x"]),
                    b_shunt=float(entry.get("b_shunt", 0.0)),
                ))
            where = "branches"
            model = NetworkModel.from_branches(branches, n_buses, slack=slack)
        if "zip" in doc:
            where = "zip section"
            z = doc["zip"]
            model = dataclasses.replace(model, zip=ZipCoefficients(
                *(np.asarray(z[key], float)
                  for key in ("alpha_z", "alpha_i", "alpha_p"))))
    except KeyError as exc:
        raise FileFormatError(
            f"{path}: missing '{exc.args[0]}' in {where}") from exc
    except (OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: {where}: {exc}") from exc
    return model


def _pair_header(x: str, y: str, n: int) -> str:
    """``x_1,y_1,...,x_n,y_n``, the node columns of a load or voltage table."""
    return ",".join(f"{c}_{node}" for node in range(1, n + 1) for c in (x, y))


def write_table(path, header: str, rows, fmt: str) -> None:
    """The ``header`` line, then the line ``fmt % tuple(row)`` per row.

    This writes the mixed-type tables (bench records, two-bus circles and
    basin), whose rows hold Python floats, ints and strings.  A table of
    floats only goes through :func:`write_float_table`.
    """
    line = fmt + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line % tuple(row) for row in rows)


_BLOCK_CELLS = 32768  # 256 KiB of float64 cells per formatted block


def write_float_table(path, header: str, table) -> None:
    """The ``header`` line, then each row of the 2-D float array ``table``
    as ``'%.17g'`` cells joined by ','.

    The bytes equal those of ``'%.17g' % x`` per cell: floats round-trip
    exactly and identical inputs give identical files.  Rows are formatted
    in blocks of about 256 KiB of cells, so scratch memory does not grow with
    the row count.  There is one path: no option or environment variable
    selects another formatter.
    """
    # imported here, so that a run writing no float table neither compiles
    # the formatter nor builds its lookup tables
    from .floattext import format_rows

    table = np.asarray(table, dtype=float)
    step = max(1, _BLOCK_CELLS // table.shape[1])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for r0 in range(0, table.shape[0], step):
            fh.write(format_rows(table[r0:r0 + step]))


def write_loads(path, loads: LoadMatrix) -> None:
    # a C-ordered complex tau x b array viewed as floats interleaves re, im
    table = np.ascontiguousarray(loads.values.T).view(np.float64)
    write_float_table(path, _pair_header("p", "q", loads.n_demand), table)


_TEXT_CHUNK = 1 << 18  # 256 KiB of table text per parsed block


def _lines(path, block: bytes, lineno: int):
    """Number and text of each line of the binary ``block``, the first of
    them line ``lineno``, split as text mode splits them: at '\\n', '\\r\\n'
    or a lone '\\r'.  A line that is not UTF-8 raises a
    :class:`FileFormatError` that names it."""
    for line in block.splitlines(keepends=True):
        try:
            text = line.decode()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc
        yield lineno, text
        lineno += 1


def _blocks(fh):
    """Whole lines from the position of ``fh`` on, in blocks of at most
    ``_TEXT_CHUNK`` bytes unless a line is longer; each is cut after a
    '\\n' or lone '\\r' line end, never inside a CRLF, and ``fh`` is left
    at its end."""
    while block := fh.read(_TEXT_CHUNK):
        while True:
            # the last line end, but not a last '\r': it may start a CRLF
            nl = block.rfind(b"\n")
            cut = 1 + max(nl, block.rfind(b"\r", nl + 1, len(block) - 1))
            if cut or not (more := fh.read(_TEXT_CHUNK)):
                break
            block += more
        if 0 < cut < len(block):
            fh.seek(cut - len(block), 1)
            block = block[:cut]
        yield block


def _count_newlines(fh) -> int:
    """The '\\n', '\\r\\n' and lone '\\r' line ends from the position of
    ``fh`` on, which it keeps."""
    here = fh.tell()
    ends = 0
    for block in _blocks(fh):
        # numpy counts a byte about three times as fast as bytes.count
        ends += np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
        if b"\r" in block:
            ends += block.count(b"\r") - block.count(b"\r\n")
    fh.seek(here)
    return int(ends)


def _loadtxt(lines) -> np.ndarray:
    """Comma-separated floats, one row per line; no lines give zero rows.

    ``comments=None`` makes a '#' line data, and so an error, as it always
    was; the caller reports an empty table itself.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _reads(text: str, width: int) -> bool:
    """Whether ``np.loadtxt`` reads the line ``text`` as ``width`` numbers."""
    try:
        return _loadtxt([text]).shape == (1, width)
    except ValueError:
        return False


def _read_block(path, names: list[str], block: bytes, lineno: int,
                at: list[int]) -> np.ndarray:
    """The rows ``np.loadtxt`` reads from the lines of the binary ``block``,
    the first of them line ``lineno``; each row's line is appended to ``at``.

    A rejected block is walked line by line: each line is read whole, and
    the first that fails field by field, to name it.  The walk is lazy, so
    a line that is not UTF-8 raises only once every line before it is read.
    """
    def rows():
        for n, line in _lines(path, block, lineno):
            if not line.isspace():
                at.append(n)
                yield line

    try:
        part = _loadtxt(rows())
    except ValueError as exc:
        reason = exc
    else:
        if not len(part) or part.shape[1] == len(names):
            return part
        # loadtxt takes the field count from the first row
        reason = f"{part.shape[1]} fields per row"
    for n, line in _lines(path, block, lineno):
        if line.isspace() or _reads(line, len(names)):
            continue
        fields = line.split(",")
        if len(fields) != len(names):
            raise FileFormatError(f"{path}: line {n}: expected {len(names)} "
                                  f"fields, got {len(fields)}")
        for name, field in zip(names, fields):
            if not _reads(field, 1):
                raise FileFormatError(
                    f"{path}: line {n}: {name}: could not convert string to "
                    f"float: {field.strip()!r}")
    raise FileFormatError(f"{path}: {reason}")


def read_loads(path) -> LoadMatrix:
    # imported here, so that a run reading no load table neither compiles
    # the parser nor builds its tables
    from .floattext import parse_rows

    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"{path}: no such file")
    with open(path, "rb") as fh:
        _, first = next(_lines(path, next(_blocks(fh), b""), 1), (1, ""))
        header = first.strip()
        if not header:
            raise FileFormatError(f"{path}: empty file")
        names = header.split(",")
        b = len(names) // 2
        if len(names) % 2:
            raise FileFormatError(
                f"{path}: header must hold p_<node>,q_<node> pairs"
            )
        if header != _pair_header("p", "q", b):
            raise FileFormatError(
                f"{path}: header {names[:4]}... does not match the expected "
                f"p_1,q_1,...,p_{b},q_{b} layout"
            )
        fh.seek(len(first.encode()))
        # a row is a line of its own, so the lines after the header, and one
        # more should the last have no line end, bound the rows
        table = np.empty((_count_newlines(fh) + 1, 2 * b))
        rows = 0
        bulk = None  # the rows parsed in bulk, once a block is rejected
        at: list[int] = []  # the line of each row after those
        for raw in _blocks(fh):
            part = parse_rows(raw, 2 * b) if bulk is None else None
            if part is None:
                if bulk is None:
                    bulk, lineno = rows, 2 + rows
                part = _read_block(path, names, raw, lineno, at)
                lineno += len(raw.splitlines())
            table[rows:rows + len(part)] = part
            rows += len(part)
        if rows == 0:
            raise FileFormatError(f"{path}: no load cases")
        table = table[:rows]
        finite = np.isfinite(table)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            lineno = 2 + row if bulk is None or row < bulk else at[row - bulk]
            raise FileFormatError(f"{path}: line {lineno}: non-finite "
                                  f"{names[col]} = {table[row, col]}")
    # a C-ordered row of p, q pairs viewed as complex keeps the bits of both
    # parts, -0.0 included, which p + 1j * q would not
    return LoadMatrix(table.view(np.complex128).T)


def write_voltages(path, batch: VoltageBatch) -> None:
    """One row per case: vm_<node>,va_<node> pairs plus a converged flag.

    The flag is the float 1.0 or 0.0, which '%.17g' prints as 1 or 0.
    """
    b = batch.values.shape[0]
    table = np.empty((batch.tau, 2 * b + 1))
    table[:, 0:-1:2] = np.abs(batch.values).T
    table[:, 1:-1:2] = np.angle(batch.values).T
    table[:, -1] = batch.converged_mask
    write_float_table(path, _pair_header("vm", "va", b) + ",converged", table)


def write_metadata(path, meta: dict) -> None:
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


_BENCH_HEADER = "method,b_phi,tau,wall_seconds,iterations,repeats,error"


def write_bench_records(path, records) -> None:
    rows = (
        (r.method, r.b_phi, r.tau, r.wall_seconds, r.iterations, r.repeats,
         (r.error or "").replace(",", ";"))
        for r in records
    )
    write_table(path, _BENCH_HEADER, rows, "%s,%d,%d,%.17g,%d,%d,%s")


def read_bench_records(path):
    from .bench import BenchRecord

    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"{path}: no such file")
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _BENCH_HEADER:
            raise FileFormatError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise FileFormatError(
                    f"{path}: line {lineno}: expected 7 fields, got {len(parts)}"
                )
            try:
                records.append(
                    BenchRecord(
                        method=parts[0],
                        b_phi=int(parts[1]),
                        tau=int(parts[2]),
                        wall_seconds=float(parts[3]),
                        iterations=int(parts[4]),
                        repeats=int(parts[5]),
                        error=parts[6] or None,
                    )
                )
            except ValueError as exc:
                raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc
    return records
