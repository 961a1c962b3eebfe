"""File formats: network documents, load tables, voltage tables, metadata.

Networks are JSON with the slack voltage, bus count, branch array and
optional per-node ZIP triples; an optional ``admittance`` section carries
coordinate triplets for Y_dd / Y_ds and overrides branch assembly (the route
for polyphase or externally assembled systems).

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
file handle.  Blocks of whole lines of about 256 KiB are parsed in bulk by
:func:`tpflow.floattext.parse_rows` while every row is comma-separated cells
of the grammar ``-?D*(.D*)?([eE][+-]?D+)?`` ended by a newline; once the
first block is parsed, the rows after it are counted and the table is
allocated once.  The first block it rejects (CRLF or blank lines, spaces, a
leading '+', nan or inf, '_', a non-ASCII byte, a wrong field count, no
final newline) is the one fork: from there the rest of the file goes once
to ``np.loadtxt``, split into lines as text mode splits them and decoded as
UTF-8.  Rows parsed in bulk are never read again, and a fault is looked for
in the rest only, by bisection.  Both parsers give each cell's correctly
rounded double, so they agree bit for bit.

Run metadata is JSON.
"""

from __future__ import annotations

import itertools
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


def _require(mapping: dict, key: str, path, context: str = "document"):
    if key not in mapping:
        raise FileFormatError(f"{path}: missing '{key}' in {context}")
    return mapping[key]


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
        adm = model.admittance
        y_dd = adm.y_dd.tocoo()
        y_ds = adm.y_ds.tocoo()
        doc["admittance"] = {
            "n_demand": model.n_demand,
            "y_dd": [
                [int(i), int(j), v.real, v.imag]
                for i, j, v in zip(y_dd.row, y_dd.col, y_dd.data)
            ],
            "y_ds": [
                [int(i), int(j), v.real, v.imag]
                for i, j, v in zip(y_ds.row, y_ds.col, y_ds.data)
            ],
        }
    if not model.zip.is_constant_power:
        doc["zip"] = {
            "alpha_z": model.zip.alpha_z.tolist(),
            "alpha_i": model.zip.alpha_i.tolist(),
            "alpha_p": model.zip.alpha_p.tolist(),
        }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _parse_zip(doc: dict, path) -> ZipCoefficients | None:
    if "zip" not in doc:
        return None
    z = doc["zip"]
    try:
        return ZipCoefficients(
            alpha_z=np.asarray(_require(z, "alpha_z", path, "zip section"), float),
            alpha_i=np.asarray(_require(z, "alpha_i", path, "zip section"), float),
            alpha_p=np.asarray(_require(z, "alpha_p", path, "zip section"), float),
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: invalid zip section: {exc}") from exc


def _triplets_to_csc(entries, shape, path, name):
    rows, cols, vals = [], [], []
    for k, entry in enumerate(entries):
        if len(entry) != 4:
            raise FileFormatError(
                f"{path}: {name} entry {k} must be [row, col, re, im]"
            )
        i, j, re, im = entry
        rows.append(int(i))
        cols.append(int(j))
        vals.append(complex(re, im))
    try:
        return sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsc()
    except ValueError as exc:
        raise FileFormatError(f"{path}: {name}: {exc}") from exc


def read_network(path) -> NetworkModel:
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"{path}: no such file")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc

    sv = _require(doc, "slack_voltage", path)
    try:
        v_s = complex(float(_require(sv, "re", path, "slack_voltage")),
                      float(_require(sv, "im", path, "slack_voltage")))
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: slack_voltage: {exc}") from exc
    slack = SlackSpec(v_s)
    n_buses = int(_require(doc, "n_buses", path))

    if "admittance" in doc:
        adm = doc["admittance"]
        n_demand = int(_require(adm, "n_demand", path, "admittance section"))
        y_dd = _triplets_to_csc(
            _require(adm, "y_dd", path, "admittance section"),
            (n_demand, n_demand), path, "y_dd",
        )
        y_ds = _triplets_to_csc(
            _require(adm, "y_ds", path, "admittance section"),
            (n_demand, 1), path, "y_ds",
        )
        zip_coeffs = _parse_zip(doc, path)
        return NetworkModel.from_admittance(
            y_dd, y_ds, slack=slack, zip_coeffs=zip_coeffs
        )

    raw = _require(doc, "branches", path)
    branches = []
    for k, entry in enumerate(raw):
        try:
            branches.append(
                Branch(
                    from_bus=int(_require(entry, "from", path, f"branch {k}")),
                    to_bus=int(_require(entry, "to", path, f"branch {k}")),
                    r=float(_require(entry, "r", path, f"branch {k}")),
                    x=float(_require(entry, "x", path, f"branch {k}")),
                    b_shunt=float(entry.get("b_shunt", 0.0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: branch {k}: {exc}") from exc
    zip_coeffs = _parse_zip(doc, path)
    try:
        return NetworkModel.from_branches(
            branches, n_buses, slack=slack, zip_coeffs=zip_coeffs
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


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


def _lines(path, fh, lineno: int):
    """Number and text of each line from the position of ``fh`` on, split
    as text mode splits them: at '\\n', '\\r\\n' or a lone '\\r'.  A line
    that is not UTF-8 raises a :class:`FileFormatError` that names it."""
    for raw in fh:
        for line in raw.splitlines(keepends=True):
            try:
                text = line.decode()
            except UnicodeDecodeError as exc:
                raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc
            yield lineno, text
            lineno += 1


def _parse_bulk(fh, ncols: int) -> tuple[np.ndarray, int, int]:
    """A table for the rows from the position of ``fh`` on, the rows parsed
    into it in bulk, and the file offset of the first line not parsed.

    Blocks of whole lines go to :func:`tpflow.floattext.parse_rows` until
    it rejects one.  Once the first block is accepted, the newlines after it
    are counted, so that the table is allocated once and scratch memory
    stays bounded by the block; a table rejected at its first block is not
    counted at all.
    """
    # imported here, so that a run reading no load table neither compiles
    # the parser nor builds its tables
    from .floattext import parse_rows

    start = fh.tell()
    table = np.empty((0, ncols))
    done = 0
    for lines in iter(lambda: fh.readlines(_TEXT_CHUNK), []):
        text = b"".join(lines)
        part = parse_rows(text, ncols)
        if part is None:
            break
        if not done:
            table = np.empty((len(part) + _count_newlines(fh), ncols))
        table[done:done + len(part)] = part
        done += len(part)
        start += len(text)
    return table, done, start


def _count_newlines(fh) -> int:
    """The '\\n' bytes from the position of ``fh`` on, which it keeps."""
    here = fh.tell()
    # numpy counts a byte about three times as fast as bytes.count
    rows = sum(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
               for block in iter(lambda: fh.read(_TEXT_CHUNK), b""))
    fh.seek(here)
    return rows


def _loadtxt(lines) -> np.ndarray:
    """Comma-separated floats, one row per line; no lines give zero rows.

    ``comments=None`` makes a '#' line data, and so an error, as it always
    was; the caller reports an empty table itself.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _parses(text: str) -> bool:
    """Whether ``np.loadtxt`` reads ``text``, one field, as a number."""
    try:
        return _loadtxt([text]).size > 0
    except ValueError:
        return False


def _bad_line(path, names: list[str], lines, reason: object) -> FileFormatError:
    """Name the first of the numbered ``lines`` and its field that loadtxt
    rejected; ``reason`` stands in should no single line be at fault.

    Whether the first k lines read as a table of ``len(names)`` columns is
    monotone in k, and once the first ``good`` lines are known to read, the
    first k read if and only if lines ``good`` to k do.  So segments of
    doubling length are read in turn up to the first that does not, and the
    line at fault is found by bisecting that one: about 2 log2(p) loadtxt
    calls for a fault at line p, over no more than 2p lines.  A line that is
    not UTF-8 ends the lines; its error is raised if none before it is at
    fault.
    """
    numbered: list[tuple[int, str]] = []
    undecodable = None
    rest = iter(lines)

    def reads(lo: int, hi: int) -> bool:
        try:
            table = _loadtxt([line for _, line in numbered[lo:hi]])
        except ValueError:
            return False
        return table.shape[1] == len(names)

    # the first `good` lines read; if bad > good, the first `bad` do not
    good = bad = 0
    while bad == good and undecodable is None:
        try:
            numbered.extend(itertools.islice(rest, max(good, 1)))
        except FileFormatError as exc:
            undecodable = exc
        if len(numbered) == good:
            break
        bad = len(numbered)
        if reads(good, bad):
            good = bad
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if reads(good, mid) else (good, mid)
    for lineno, line in numbered[good:bad]:
        fields = line.split(",")
        if len(fields) != len(names):
            return FileFormatError(
                f"{path}: line {lineno}: expected {len(names)} fields, "
                f"got {len(fields)}"
            )
        for name, field in zip(names, fields):
            if not _parses(field):
                return FileFormatError(
                    f"{path}: line {lineno}: {name}: could not convert "
                    f"string to float: {field.strip()!r}"
                )
    return undecodable or FileFormatError(f"{path}: {reason}")


def read_loads(path) -> LoadMatrix:
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"{path}: no such file")
    with open(path, "rb") as fh:
        _, first = next(_lines(path, fh, 1), (1, ""))
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
        table, done, start = _parse_bulk(fh, 2 * b)

        def rest():
            """Number and text of each non-blank line not parsed in bulk."""
            fh.seek(start)
            return ((n, line) for n, line in _lines(path, fh, 2 + done)
                    if not line.isspace())

        try:
            arr = _loadtxt(line for _, line in rest())
        except ValueError as exc:
            raise _bad_line(path, names, rest(), exc) from exc
        if len(arr) and arr.shape[1] != 2 * b:
            # loadtxt takes the field count from the first row
            raise _bad_line(path, names, rest(),
                            f"{arr.shape[1]} fields per row")
        rows = done + len(arr)
        if rows == 0:
            raise FileFormatError(f"{path}: no load cases")
        if not done:  # loadtxt read every row
            table = arr
        elif rows <= len(table):
            table = table[:rows]
            table[done:] = arr
        else:  # lone '\r' line ends, which the newline count missed
            table = np.concatenate((table[:done], arr))
        finite = np.isfinite(table)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            lineno = 2 + row if row < done else next(
                n for k, (n, _) in enumerate(rest(), done) if k == row)
            raise FileFormatError(f"{path}: line {lineno}: non-finite "
                                  f"{names[col]} = {table[row, col]}")
    # a C-ordered row of p, q pairs viewed as complex keeps the bits of both
    # parts, -0.0 included, which p + 1j * q would not
    values = table.view(np.complex128).T
    return LoadMatrix(values=values, dims=(values.shape[1],))


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
