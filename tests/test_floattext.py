import numpy as np
import pytest
from hypothesis import given, strategies as st

from tpflow.floattext import format_rows


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
