"""The '%.17g' CSV kernel: every value's bytes equal '%.17g' % x.

The kernel runs under np.errstate(all="raise") throughout, so a step that
overflows, underflows or takes an invalid operation fails the test even
where the text would come out right.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradnotch import _g17


def _kernel(values, block_rows=64) -> str:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    with np.errstate(all="raise"):
        return "".join(_g17.csv_blocks(values, block_rows))


def _per_value(values) -> str:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in values.tolist())


def _with_neighbours(values, ulps=2) -> np.ndarray:
    """values and their neighbours up to `ulps` doubles either side, with
    both signs."""
    values = np.asarray(values, dtype=float)
    out = [values]
    for direction in (-np.inf, np.inf):
        step = values
        for _ in range(ulps):
            # past the largest double is inf
            with np.errstate(over="ignore"):
                step = np.nextafter(step, direction)
            out.append(step)
    out = np.concatenate(out)
    return np.concatenate([out, -out])


def _ties() -> list:
    """Exact ties at 17 digits for every power of ten they occur at:
    x = m * 2**-(k + 1), with m odd and m * 5**k in [2e16, 2e17), has
    x * 10**k = m * 5**k / 2, an integer and a half. This needs k in
    1..24; from k = 23 on, 10**k is not a double. Half of them round
    down to even, half up."""
    ties = []
    for k in range(1, 25):
        low = -(-2 * 10 ** 16 // 5 ** k) | 1
        high = min(-(-2 * 10 ** 17 // 5 ** k), 2 ** 53)
        for m in {low, low + 2, low + 4, (low + high) // 2 | 1, high - 2 | 1,
                  high - 4 | 1}:
            if low <= m < high and m * 5 ** k < 2 * 10 ** 17:
                ties.append(m * 2.0 ** -(k + 1))
    return ties


def _near_ties() -> list:
    """Doubles within 1e-16 of a tie at 17 digits, which no double-double
    product decides: x * 10**(16 - E) = m * 2**s / 5**K for x >= 1e17
    comes within 1 / (2 * 5**K) of a half when m * 2**s is (5**K +- 1) / 2
    modulo 5**K, and x * 10**k = m * 5**k / 2**t for x < 1e-6 within
    2**-t when m * 5**k is 2**(t - 1) +- 1 modulo 2**t; m is the first
    such 53-bit significand, where there is one."""
    def first_significand(residue, modulus):
        m = residue + max(0, -(-(2 ** 52 - residue) // modulus)) * modulus
        return m if m < 2 ** 53 else None

    near = []
    for k in range(1, 300):
        for n in range(max(1, int(k * _LOG2_5) - 6), int(k * _LOG2_5) + 4):
            mod_5, mod_2 = 5 ** k, 2 ** n
            for off in (-1, 1):
                m = first_significand(
                    (mod_5 + off) // 2 * pow(mod_2, -1, mod_5) % mod_5, mod_5)
                if m is not None and 10 ** 16 <= m * mod_2 // mod_5 < 10 ** 17:
                    near.append(float(m * 2 ** (n + k)))
                m = first_significand(
                    (mod_2 // 2 + off) * pow(mod_5, -1, mod_2) % mod_2, mod_2)
                if (k >= 17 and m is not None
                        and 10 ** 16 <= m * mod_5 // mod_2 < 10 ** 17):
                    near.append(m * 2.0 ** -(n + k))
    return near


_LOG2_5 = math.log2(5)

FIXED = {
    "zeros": [0.0, -0.0],
    "subnormals and the largest double": _with_neighbours(
        [5e-324, 1e-323, 2.5e-320, 1e-310, 2.2250738585072014e-308,
         1.7976931348623157e308]),
    "powers of ten": _with_neighbours(
        [float(f"1e{k}") for k in range(-300, 301)]),
    "exact ties": _with_neighbours(_ties(), ulps=1),
    "near ties": _near_ties(),
    "fixed and exponent form switch": _with_neighbours(
        [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 9.99999999999999e15,
         99999999999999984.0, 0.0001, 0.00012345678901234567,
         1.2345678901234567e-5, 1234567890123456.7, 12345678901234567.0,
         123456789012345678.0]),
    "fallback edges": _with_neighbours(
        [1e280, 1e-280, 9.9999999999999999e279, 1.0000000000000001e-280,
         1e281, 1e-281, 1e279, 1e-279]),
    "short decimals": _with_neighbours(
        [0.5, 0.1, 0.25, 1.0, 2.0, 3.0, 10.0, 100.0, 123.0, 1e15 + 0.5,
         4503599627370496.0, 9007199254740993.0, 0.3, 2.5e-5, 7e22]),
    "non-finite": [math.inf, -math.inf, math.nan],
}


@pytest.mark.parametrize("name", FIXED)
def test_fixed_values_match_per_value_format(name):
    values = np.asarray(FIXED[name], dtype=float)
    assert _kernel(values) == _per_value(values)
    # the same values as rows of three columns
    cut = values[:len(values) // 3 * 3].reshape(-1, 3)
    assert _kernel(cut, block_rows=5) == _per_value(cut)


def test_exact_ties_round_to_even():
    assert _kernel([1.0 + 2.0 ** -17, 1.0 + 3 * 2.0 ** -17]) == (
        "1.0000076293945312\n1.0000228881835938\n")


def test_random_bit_patterns_and_magnitudes():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, size=60_000, dtype=np.uint64)
    values = bits.view(np.float64).reshape(-1, 20)
    assert _kernel(values) == _per_value(values)
    mags = 10.0 ** rng.uniform(-320, 308.2, 60_000)
    mags *= rng.choice([-1.0, 1.0], mags.size)
    assert _kernel(mags.reshape(-1, 12)) == _per_value(mags.reshape(-1, 12))


_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
# every binary exponent, with drawn significands
_EXPONENTS = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                       st.integers(-1074, 1024)).filter(math.isfinite)
_VALUES = st.one_of(st.floats(), _BITS, _EXPONENTS,
                    _EXPONENTS.map(lambda x: -x))


@given(st.integers(1, 5).flatmap(
    lambda cols: st.tuples(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(cols)),
                   elements=_VALUES),
        st.integers(1, 8))))
@settings(max_examples=300, deadline=None)
def test_drawn_blocks_match_per_value_format(case):
    values, block_rows = case
    assert _kernel(values, block_rows) == _per_value(values)


def test_blocks_hold_at_most_block_rows():
    values = np.linspace(-1.0, 1.0, 21 * 3).reshape(21, 3)
    chunks = list(_g17.csv_blocks(values, 8))
    assert [chunk.count("\n") for chunk in chunks] == [8, 8, 5]
    assert "".join(chunks) == _per_value(values)
    assert list(_g17.csv_blocks(values[:0], 8)) == []


def test_tables_are_built_once_read_only_and_not_at_import():
    tables = (_g17._powers, _g17._groups, _g17._form_layouts,
              _g17._templates)
    for table in tables:
        assert table() is table()
        assert not table().flags.writeable
    # importing the CLI builds no table and imports neither fractions nor
    # decimal
    code = ("import sys, gradnotch.cli, gradnotch._g17 as g; "
            "print([f.cache_info().currsize for f in "
            "(g._powers, g._groups, g._form_layouts, g._templates)], "
            "'fractions' in sys.modules, 'decimal' in sys.modules)")
    src = os.path.dirname(os.path.dirname(_g17.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[0, 0, 0, 0] False False\n"


def test_powers_of_ten_are_head_and_tail_to_106_bits():
    from fractions import Fraction
    table = _g17._powers()
    for k in (-270, -100, -23, -1, 0, 1, 22, 23, 100, 300):
        head, tail, head_h, head_l = table[:, k - _g17._K_MIN]
        exact = Fraction(10) ** k
        error = Fraction(head) + Fraction(tail) - exact
        assert abs(error) <= exact * 2.0 ** -105
        assert head_h + head_l == head
