"""The Fraction forms of the anchor-sequence computations, kept as oracles
for the integer ones in maxram.anchors: the combination set, the first
admissible denominator and every verification clause computed on
Fraction values. Subadditivity is decided by an exact all-pairs lane
sweep, the slow counterpart of the package's check on triples of affine
runs: it names the lexicographically first violating pair."""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from maxram.anchors import ClauseResult, VerificationReport, check_combination_count
from maxram.errors import PreconditionError


class GammaSet(NamedTuple):
    """All combinations sum d_i*steps_i <= sum steps_i, sorted, plus the
    least combination beyond them."""

    values: tuple[Fraction, ...]
    gamma_next: Fraction


def first_subadditive_violation(a: tuple[Fraction, ...], m: int):
    """Lexicographically first (l, r), l <= r, with a[l+r] > a[l] + a[r].

    One exact broadword sweep (Knuth, TAOCP 4A, 7.1.3). The scaled values,
    shifted to t[i] = s[i] - min(s) in [0, D], sit in fixed-width lanes of
    one int. For each l, lane r of

        bias + packed + s[l]*ones - (packed >> w*l)

    holds bias + s[l] + s[r] - s[l+r]. Clamping s[l] to [-(D+1), D+1]
    keeps the sign of that sum and keeps every lane in [0, 2^w), so no
    lane borrows from the next, and the lane's top bit is clear exactly
    when (l, r) violates subadditivity.
    """
    if m < 2:
        return None
    denom = math.lcm(*(v.denominator for v in a))
    scaled = [v.numerator * (denom // v.denominator) for v in a]
    low = min(scaled)
    spread = max(scaled) - low
    lane_bytes = ((2 * spread + 1).bit_length() + 8) // 8
    width = 8 * lane_bytes
    packed = int.from_bytes(
        b"".join((v - low).to_bytes(lane_bytes, "little") for v in scaled), "little"
    )
    ones = int.from_bytes((b"\x01" + bytes(lane_bytes - 1)) * (m + 1), "little")
    flags = ones << (width - 1)
    base = packed + flags
    for l in range(1, m // 2 + 1):
        shift = min(max(scaled[l], -spread - 1), spread + 1)
        lanes = (base + shift * ones - (packed >> width * l)) >> width * l
        missing = ~lanes & (flags & ((1 << width * (m - 2 * l + 1)) - 1))
        if missing:
            return l, l + ((missing & -missing).bit_length() - 1) // width
    return None


def fraction_round(q: int, gamma: Fraction) -> int:
    """round(q*gamma), half up, in Fractions."""
    return math.floor(q * Fraction(gamma) + Fraction(1, 2))


def fraction_first_admissible_q(steps, q0: int) -> tuple[int, tuple[int, ...]]:
    """The least q > q0 whose half-up numerators p_i = round(q*step_i)
    satisfy |step_i - p_i/q|^k * q^(k+1) < 1 for every step, and those
    numerators: a linear scan in Fractions."""
    k = len(steps)
    q = q0 + 1
    while True:
        numerators = tuple(fraction_round(q, s) for s in steps)
        if all(
            abs(s - Fraction(p, q)) ** k * Fraction(q) ** (k + 1) < 1
            for s, p in zip(steps, numerators)
        ):
            return q, numerators
        q += 1


def combinations_upto(steps, extra: int):
    """Yield (value, coeffs) over 0 <= d_i <= floor(total/steps_i) + extra."""
    check_combination_count(steps)
    total = sum(steps)
    bounds = [int(total / s) + extra for s in steps]
    for coeffs in itertools.product(*(range(b + 1) for b in bounds)):
        yield sum(d * s for d, s in zip(coeffs, steps)), coeffs


def fraction_gamma_set(baton) -> GammaSet:
    """The bounded combination set, enumerated in Fractions."""
    if baton.k < 1:
        raise PreconditionError("the gamma set needs at least one step")
    total = sum(baton.steps)
    values: set[Fraction] = set()
    beyond: Fraction | None = None
    for value, _ in combinations_upto(baton.steps, extra=1):
        if value <= total:
            values.add(value)
        elif beyond is None or value < beyond:
            beyond = value
    return GammaSet(values=tuple(sorted(values)), gamma_next=beyond)


def fraction_verify_anchor_sequence(seq, baton) -> VerificationReport:
    """verify_anchor_sequence on the Fraction values seq.a, clause by
    clause, with the lane sweep deciding subadditivity on its own."""
    a, m, p, q = seq.a, seq.m, seq.p, seq.q
    gammas = fraction_gamma_set(baton)

    mono_fail = None
    if a[0] != 0:
        mono_fail = f"a[0] = {a[0]} != 0"
    else:
        for l in range(1, m + 1):
            if a[l] <= a[l - 1]:
                mono_fail = f"a[{l}] = {a[l]} <= a[{l - 1}] = {a[l - 1]}"
                break
    monotonic = ClauseResult(mono_fail is None, mono_fail)

    viol = first_subadditive_violation(a, m)
    subadditive = ClauseResult(
        viol is None,
        None
        if viol is None
        else f"a[{viol[0] + viol[1]}] > a[{viol[0]}] + a[{viol[1]}]",
    )

    anchor_fail = None
    linear_fail = None
    if len(p) != baton.k:
        anchor_fail = f"p has {len(p)} entries for {baton.k} steps"
    else:
        total = sum(baton.steps)
        for value, coeffs in combinations_upto(baton.steps, extra=0):
            if value > total:
                continue
            index = sum(d * pi for d, pi in zip(coeffs, p))
            if anchor_fail is None and (index > m or a[index] != value):
                stated = a[index] if index <= m else "out of range"
                anchor_fail = (
                    f"combination {coeffs} (= {value}) anchors at index "
                    f"{index}, a[{index}] = {stated}"
                )
            if linear_fail is None and fraction_round(q, value) != index:
                linear_fail = (
                    f"round(q*gamma) = {fraction_round(q, value)} != "
                    f"sum d_i*p_i = {index} for {coeffs}"
                )
            if anchor_fail and linear_fail:
                break
    anchored = ClauseResult(anchor_fail is None, anchor_fail)
    index_linear = ClauseResult(linear_fail is None, linear_fail)

    incr_fail = None
    rounded = [fraction_round(q, g) for g in gammas.values]
    for i in range(1, len(rounded)):
        if rounded[i] <= rounded[i - 1]:
            incr_fail = (
                f"round(q*gamma) not increasing between {gammas.values[i - 1]} "
                f"and {gammas.values[i]}"
            )
            break
    index_increasing = ClauseResult(incr_fail is None, incr_fail)

    return VerificationReport(
        monotonic=monotonic,
        subadditive=subadditive,
        anchored=anchored,
        index_increasing=index_increasing,
        index_linear=index_linear,
    )
