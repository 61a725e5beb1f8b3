"""``_floatfmt.format_rows`` against ``repr``, its oracle, byte for byte.

The CSV writers print every float through ``format_rows``, which must give
exactly the bytes of ``",".join(map(repr, row))`` per row. The cases:
- random finite bit patterns (every exponent, both signs) and random short
  decimals such as 12.01, 3 000 per Hypothesis example of the profile:
  300 000 by default, 3 M under ``--hypothesis-profile=ci``;
- every subnormal with a significand below 2^12;
- every power of 2 and of 10, and the doubles either side of each;
- ±0.0, 5e-324, the largest double, and the values either side of
  ``repr``'s switches to exponent form (1e16 and 1e-05);
- integer columns up to 2^53 in size, beside float columns;
- a Hypothesis property over arrays of any finite floats.

The formatter's integer arithmetic is all ``uint64``, and numpy < 2 and
numpy 2 promote mixed integer types differently, so CI runs this file with
the ci profile at both ends of the numpy matrix.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from socchange import _floatfmt

SAMPLE_PER_EXAMPLE = 3_000
BLOCK = 60_000   # values per call, to bound the memory of the 3 M sweep
MAX = np.finfo(np.float64).max


def _expected(columns) -> bytes:
    rows = zip(*(column.tolist() for column in columns))
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()


def _assert_formats_like_repr(values, ncols=6):
    """Format ``values`` in rows of ``ncols`` cells, BLOCK values at a time."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate((values, np.zeros(-len(values) % ncols)))
    table = values.reshape(-1, ncols)
    step = max(1, BLOCK // ncols)
    for start in range(0, len(table), step):
        columns = list(table[start:start + step].T)
        got, expected = _floatfmt.format_rows(columns), _expected(columns)
        if got != expected:
            bad = next(pair for pair in zip(got.splitlines(),
                                            expected.splitlines())
                       if pair[0] != pair[1])
            raise AssertionError(f"got {bad[0]!r}, repr gives {bad[1]!r}")


def _neighbours(values):
    """``values`` and the doubles either side of each, the finite ones."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):   # the double after MAX is inf
        values = np.concatenate((values, np.nextafter(values, 0.0),
                                 np.nextafter(values, np.inf)))
    return values[np.isfinite(values)]


def test_random_bit_patterns_and_short_decimals():
    n = SAMPLE_PER_EXAMPLE * settings().max_examples
    rng = np.random.default_rng(20210731)
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    _assert_formats_like_repr(values[np.isfinite(values)])
    short = (rng.integers(-10 ** 6, 10 ** 6, n // 4)
             / 10.0 ** rng.integers(-8, 20, n // 4))
    _assert_formats_like_repr(short)


def test_small_subnormals():
    subnormals = np.arange(1, 2 ** 12, dtype=np.uint64).view(np.float64)
    _assert_formats_like_repr(np.concatenate((subnormals, -subnormals)))


def test_powers_of_two_and_ten_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = _neighbours(np.concatenate((twos, tens)))
    _assert_formats_like_repr(np.concatenate((values, -values)))


def test_zeros_extremes_and_format_switches():
    values = np.array([0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, 1.0, 0.1,
                       1e16, 1e-05, 1e-4, 9999999999999998.0, 0.00011,
                       123456789012345678.0, 2.0 ** 53, 2.0 ** 53 + 2])
    _assert_formats_like_repr(_neighbours(values), ncols=1)
    _assert_formats_like_repr(_neighbours(values), ncols=5)
    for value, text in ((1e16, "1e+16"), (1e-05, "1e-05"), (5e-324, "5e-324"),
                        (-0.0, "-0.0"), (9999999999999998.0,
                                         "9999999999999998.0")):
        assert _floatfmt.format_rows([np.array([value])]) == \
            f"{text}\n".encode()


def test_integer_columns_beside_floats():
    rng = np.random.default_rng(5)
    limit = _floatfmt.EXACT_INT
    ints = np.concatenate((
        np.arange(-1100, 1100), [limit, -limit, limit - 1, 1 - limit],
        [10 ** e for e in range(16)], [-(10 ** e) for e in range(16)],
        rng.integers(-limit, limit, 5000, endpoint=True)))
    floats = rng.standard_normal(len(ints)) * 10.0 ** rng.integers(
        -20, 20, len(ints))
    for columns in ([ints], [ints, floats, ints // 7],
                    [floats, (ints % 1000 - 500).astype(np.int32), floats]):
        assert _floatfmt.format_rows(columns) == _expected(columns)


@settings(deadline=None)   # the example count comes from the profile
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 9)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_floats(table):
    columns = list(table.T)
    assert _floatfmt.format_rows(columns) == _expected(columns)
