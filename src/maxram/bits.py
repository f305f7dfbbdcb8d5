"""Big-int bitmasks: bit-sliced counters, masks built by rows, and the
cells a mask selects; and ceil_div, the integer ceiling that the searches'
counting bounds share.

A bit-sliced counter is a list of planes, bit p of planes[j] being bit j
of position p's count, so adding or subtracting one at every position of
a mask is a carry or borrow loop of one big-int step per plane.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import or_


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b > 0, in integers."""
    return -((-a) // b)


def count_up(planes: list[int], mask: int) -> None:
    """Add one to the count at every bit of mask, adding a plane when a
    count outgrows the top one."""
    for j, plane in enumerate(planes):
        planes[j] = plane ^ mask
        mask &= plane
        if not mask:
            return
    planes.append(mask)


def count_down(planes: list[int], mask: int) -> None:
    """Subtract one from the count at every bit of mask; each of those
    counts must be positive."""
    for j, plane in enumerate(planes):
        planes[j] = plane ^ mask
        mask &= ~plane
        if not mask:
            return


def nonzero(planes: list[int]) -> int:
    """The bits whose count is at least one."""
    return reduce(or_, planes, 0)


def exactly_one(planes: list[int]) -> int:
    """The bits whose count is exactly one."""
    return planes[0] & ~reduce(or_, planes[1:], 0) if planes else 0


def planes_of(counts: list[int]) -> list[int]:
    """Planes holding count counts[i] at bit i, as many as the largest
    count has bits."""
    depth = max(counts, default=0).bit_length()
    ones = {c: [j for j in range(depth) if c >> j & 1] for c in set(counts)}
    return bit_rows(list(map(ones.__getitem__, counts)), depth)


def bit_rows(columns: list, count: int) -> list[int]:
    """count masks over len(columns) bits, mask i having bit j set when i
    is in columns[j], built through byte arrays rather than one big-int
    OR per bit."""
    rows = [bytearray((len(columns) + 7) >> 3) for _ in range(count)]
    for j, column in enumerate(columns):
        byte, flag = j >> 3, 1 << (j & 7)
        for i in column:
            rows[i][byte] |= flag
    return [int.from_bytes(row, "little") for row in rows]


# '0' -> 0 and '1' -> 1: a mask's binary digits as compress selectors.
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def mask_cells(mask: int, cells):
    """The cells whose bits are set in mask, in index order; cells lists
    the cells in index order, such as a torus's points, or is a range
    for the indices themselves. A sparse mask, fewer than one
    set bit in 16 up to its highest, is walked one set bit at a time by
    str.find on its reversed binary digits; a denser one's digits become
    a 0/1 byte string that itertools.compress walks in C."""
    digits = format(mask, "b")[::-1]
    if mask.bit_count() * 16 < len(digits):
        found = []
        index = digits.find("1")
        while index >= 0:
            found.append(cells[index])
            index = digits.find("1", index + 1)
        return found
    return list(itertools.compress(cells, digits.encode().translate(_SELECTORS)))
