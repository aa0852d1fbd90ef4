"""The shared input rules: `check_count` for counts, `check_real` for reals."""

import re

import numpy as np
import pytest

from rockrelax.errors import InvalidInputError, check_count, check_real


class TestCheckCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int16(3)])
    def test_integers_come_back_as_python_ints(self, value):
        out = check_count("n", value, 1)
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, 2.5, np.float64(2.0),
                                       "2", None])
    def test_non_integers_rejected(self, value):
        message = f"^n must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidInputError, match=message):
            check_count("n", value, 0)

    @pytest.mark.parametrize("value, low", [(0, 1), (-1, 0), (np.int64(4), 5)])
    def test_values_below_low_rejected(self, value, low):
        with pytest.raises(InvalidInputError, match=f"^n must be >= {low}, got {value}$"):
            check_count("n", value, low)

    def test_low_itself_accepted(self):
        assert check_count("n", 0, 0) == 0


class TestCheckReal:
    @pytest.mark.parametrize("value", [0, 0.5, np.float64(0.5), np.float32(0.5), np.int64(1),
                                       float("nan"), float("inf")])
    def test_reals_accepted(self, value):
        assert check_real("x", value) is None

    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, 1j])
    def test_non_reals_rejected(self, value):
        message = f"^x must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidInputError, match=message):
            check_real("x", value)
