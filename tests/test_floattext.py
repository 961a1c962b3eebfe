import numpy as np
import pytest
from hypothesis import given, strategies as st

from tpflow import floattext
from tpflow.floattext import format_rows, parse_rows


def _printf_rows(block: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in block.tolist()).encode()


def _assert_printf_bytes(values) -> None:
    """format_rows against '%.17g', as one row and as one column."""
    values = np.asarray(values, dtype=float)
    for block in (values.reshape(1, -1), values.reshape(-1, 1)):
        assert format_rows(block) == _printf_rows(block)


_DECADES = 10.0 ** np.arange(-7, 18)


class TestFormatRows:
    """The vectorised formatter, byte for byte against '%.17g' per cell."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_bit_patterns(self, bits):
        _assert_printf_bytes(np.array(bits, dtype=np.uint64).view(np.float64))

    @given(st.lists(st.tuples(st.floats(-10, 10), st.integers(-9, 18)),
                    min_size=1, max_size=50))
    def test_every_decade(self, cells):
        _assert_printf_bytes([m * 10.0**u for m, u in cells]
                             + [10.0**u for _, u in cells])

    @given(st.lists(st.tuples(st.integers(1, 2**53 - 1), st.integers(0, 80)),
                    min_size=1, max_size=50))
    def test_binary_fractions(self, cells):
        # k / 2**m is exact, so '%.17g' must break its ties to even
        _assert_printf_bytes([k / 2.0**m for k, m in cells])

    @pytest.mark.parametrize("decade", _DECADES)
    def test_power_of_ten_neighbours(self, decade):
        _assert_printf_bytes([np.nextafter(decade, 0.0), decade,
                              np.nextafter(decade, np.inf), -decade])

    def test_specials(self):
        _assert_printf_bytes([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                              -5e-324, 2.2250738585072014e-308, 1e-6, 1e16,
                              1e15 + 0.25, 0.5, 2.5, 1.0, 123456789012345678.0])


_FORMATS = ("%.17g", "%r", "%.15g", "%.3e")


def _assert_float_bits(cells) -> None:
    """parse_rows against float() per cell, bit for bit, as one column and
    as one row."""
    cells = [c.encode() if isinstance(c, str) else c for c in cells]
    expected = np.array([float(c) for c in cells])
    for text, ncols in ((b"\n".join(cells) + b"\n", 1),
                        (b",".join(cells) + b"\n", len(cells))):
        got = parse_rows(text, ncols)
        assert got is not None and got.shape == (len(cells) // ncols, ncols)
        assert np.array_equal(got.ravel().view(np.uint64), expected.view(np.uint64))


def _finite(bits) -> np.ndarray:
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    return x[np.isfinite(x)]


class TestParseRows:
    """The bulk parser, bit for bit against float() per cell."""

    @pytest.mark.parametrize("fmt", _FORMATS)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_bit_patterns(self, fmt, bits):
        x = _finite(bits)
        if x.size:
            _assert_float_bits([fmt % v for v in x.tolist()])

    @given(st.lists(st.integers(2**52, 8 * 10**15), min_size=1, max_size=50))
    def test_midpoints_round_to_even(self, ints):
        # (2j + 1) / 16 lies halfway between the doubles j / 8 and (j + 1) / 8,
        # and j + 0.5 between j and j + 1.  Written with 19 digits the
        # double-double's error falls on either side of such a tie, so only
        # the midpoint test rounds them to even.
        _assert_float_bits([f"{(2 * j + 1) * 625}e-4" for j in ints]
                           + [f"{j}.5" for j in ints])

    def test_exact_midpoints(self, monkeypatch):
        alone = []
        monkeypatch.setattr(floattext, "float",
                            lambda cell: alone.append(cell) or float(cell),
                            raising=False)
        tie = "1.00000000000000011102230246251565404236316680908203125"
        assert float(tie) == 1.0
        got = parse_rows(b"9007199254740993," + tie.encode() + b"\n", 2)
        assert got.tolist() == [[9007199254740992.0, 1.0]]
        assert tie.encode() in alone  # 55 digits: parsed on its own

    def test_digit_counts_and_zeros(self):
        _assert_float_bits([
            "000123.4500", "-0000.0001e+0003", "0.000", "-0", "0e999", "-.0e-5",
            "1234567890123456789", "9999999999999999999", "-99999999999999999.99",
            "12345678901234567891", "18446744073709551617", "0.12345678901234567891",
            "0.0000000000000000000000000000001234", "1e-400", "-1e-400",
            "4.9406564584124654e-324", "2.2250738585072009e-308", "1e-320",
            "1.7976931348623157e308", "1e280", "1e-280", "1e281", "1e-281",
            "123456789e-00000000000000000290", "1.", ".5", "-.5e-3", "1E+05",
        ])

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_round_trip_of_format_rows(self, bits):
        x = np.concatenate([_finite(bits), [0.0, -0.0]]).reshape(-1, 1)
        back = parse_rows(format_rows(x), 1)
        assert np.array_equal(back.view(np.uint64), x.view(np.uint64))

    @pytest.mark.parametrize("text, ncols", [
        (b"1,2", 2), (b" 1\n", 1), (b"1 \n", 1), (b"+1\n", 1), (b"1_0\n", 1),
        (b"nan\n", 1), (b"inf\n", 1), (b"1\r\n", 1), (b"\n", 1), (b"1\n\n", 1),
        (b"1,\n", 1), (b"1,2\n", 1), (b"1\n", 2), (b"1,2\n3\n", 2), (b".\n", 1),
        (b"-\n", 1), (b"e5\n", 1), (b"1e\n", 1), (b"1e+\n", 1), (b"1e5.5\n", 1),
        (b"1.2.3\n", 1), (b"1-2\n", 1), (b"--1\n", 1), (b"1e--5\n", 1),
        (b"1e5e5\n", 1), (b"0x10\n", 1), (b"1\xff\n", 1), (b"", 1),
    ])
    def test_outside_grammar(self, text, ncols):
        assert parse_rows(text, ncols) is None
