"""Bit-sliced counters against one integer count per bit, and ceil_div."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxram.bits import ceil_div, count_down, count_up, exactly_one, nonzero
from maxram.bits import planes_of

# Past 64 bits, so that the planes are multi-word ints.
WIDTH = 70


def read_counts(planes: list[int]) -> list[int]:
    """The count at each bit, read plane by plane."""
    return [
        sum((plane >> p & 1) << j for j, plane in enumerate(planes))
        for p in range(WIDTH)
    ]


def bits_where(counts: list[int], keep) -> int:
    return sum(1 << p for p, c in enumerate(counts) if keep(c))


@given(
    st.lists(st.integers(0, 9), min_size=WIDTH, max_size=WIDTH),
    st.lists(st.tuples(st.booleans(), st.integers(0, 2**WIDTH - 1)), max_size=40),
)
@example([0] * WIDTH, [(True, 1), (True, 3), (True, 1), (False, 2), (True, 1)])
@example([1] * WIDTH, [(True, 2**WIDTH - 1)] * 3 + [(False, 2**WIDTH - 1)] * 4)
@settings(max_examples=200, deadline=None)
def test_counters_match_per_bit_counts(start, steps):
    """Counters built from start values, then counted up or down at
    random masks (down only where the count is positive), hold the same
    counts as one integer per bit, growing planes from none or past the
    top one, and both readers pick the bits at 1 or more and at 1."""
    planes = planes_of(start)
    assert len(planes) == max(start).bit_length()
    counts = list(start)
    # A zero mask first, so that the readers see the start values too.
    for up, mask in [(True, 0), *steps]:
        if not up:
            mask &= bits_where(counts, lambda c: c > 0)
        (count_up if up else count_down)(planes, mask)
        for p in range(WIDTH):
            counts[p] += (mask >> p & 1) * (1 if up else -1)
        assert read_counts(planes) == counts
        assert nonzero(planes) == bits_where(counts, lambda c: c >= 1)
        assert exactly_one(planes) == bits_where(counts, lambda c: c == 1)


def test_ceil_div():
    assert ceil_div(9, 4) == 3
    assert ceil_div(8, 4) == 2
    assert ceil_div(1, 5) == 1
    assert ceil_div(-3, 2) == -1
