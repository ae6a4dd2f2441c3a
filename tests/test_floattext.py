"""float_text against json.dumps: every float64 gets the token the stdlib writes,
float.__repr__ for a finite value and NaN, Infinity or -Infinity otherwise."""

import json
import math
import sys

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from chainconc.floattext import build_tables, float_text

TABLES = build_tables()


def assert_tokens_match(values):
    values = np.asarray(values, dtype=np.float64)
    text, ends = float_text(values, TABLES)
    want = [json.dumps(x) for x in values.tolist()]
    assert text == "".join(token + "," for token in want)
    assert ends.tolist() == np.cumsum([len(token) + 1 for token in want]).tolist()


def edge_values() -> list:
    """The values at which the digits or the layout of repr change."""
    tiny, big = 2.2250738585072014e-308, sys.float_info.max
    values = [0.0, 5e-324, tiny, math.nextafter(tiny, 0.0), big, math.inf, math.nan,
              1e-05, math.nextafter(1e-04, 0.0), 1e-04, 1e16, math.nextafter(1e16, 0.0),
              1e17, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 9.999999999999999e22, 1e23]
    for power in [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]:
        values += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    values += [k / 8 for k in range(1, 1000)] + [k / 10 for k in range(1, 1000)]
    values += [float(k) for k in range(1, 10**4)] + [float(k * 10**12) for k in range(1, 1000)]
    return values + [-v for v in values]


def test_edge_values_match_json():
    assert_tokens_match(edge_values())


def test_random_bit_patterns_match_json():
    # every exponent, subnormals, both signs, NaNs and the infinities
    bits = np.random.default_rng(20261020).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert_tokens_match(bits.view(np.float64))


def test_round_numbers_match_json():
    # significands with many trailing zero bits: Ryu's trailing-zero cases
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64) & np.uint64(0xFFFFFFC000000000)
    assert_tokens_match(bits.view(np.float64))


@given(st.lists(st.floats(), max_size=40))
def test_float_lists_match_json(values):
    assert_tokens_match(values)


def test_empty_array_has_no_tokens():
    text, ends = float_text(np.empty(0), TABLES)
    assert text == "" and ends.size == 0
