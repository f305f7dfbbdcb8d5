"""Subadditive anchor sequences from simultaneous rational approximation.

Given positive rational steps a1..ak, we build integers p1..pk and a
strictly increasing sequence a_0 = 0 < a_1 < ... < a_m (m = sum p_i) that
is subadditive (a_{l+r} <= a_l + a_r) and anchored: every bounded
nonnegative combination gamma = sum d_i*a_i satisfies a_{sum d_i*p_i} =
gamma. The p_i come from a denominator q approximating all steps
simultaneously to within q^-(1+1/k); interior values interpolate each
anchor from below in increments of delta/(2m).

anchor_sequence_at is the construction for one given q; the builder
only chooses q, and the certificate validator rebuilds at the stated q
through the same function.

All arithmetic is exact. The only concession to speed is that the
all-pairs subadditivity sweep runs on scaled integers packed into the
lanes of one Python int, which loses nothing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import PreconditionError
from .extraction import AnchorSet
from .metric import Baton

_RETRY_LIMIT = 64

# The combination enumerations build Fractions at roughly 55,000 tuples a
# second on a 2-vCPU Xeon host, so this cap bounds each to about 2 s.
MAX_COMBINATIONS = 10**5


class GammaSet(NamedTuple):
    """All combinations sum d_i*steps_i <= sum steps_i, sorted, plus the
    least combination beyond them."""

    values: tuple[Fraction, ...]
    gamma_next: Fraction


def check_combination_count(steps) -> None:
    """Raise PreconditionError when gamma_set, the largest enumeration of
    the steps, would build more than MAX_COMBINATIONS coefficient tuples."""
    total = sum(steps)
    count = math.prod(int(total / s) + 2 for s in steps)
    if count > MAX_COMBINATIONS:
        raise PreconditionError(
            f"{count} coefficient combinations to enumerate, above {MAX_COMBINATIONS}"
        )


def _combinations_upto(steps, extra: int):
    """Yield (value, coeffs) over 0 <= d_i <= floor(total/steps_i) + extra."""
    check_combination_count(steps)
    total = sum(steps)
    bounds = [int(total / s) + extra for s in steps]
    for coeffs in itertools.product(*(range(b + 1) for b in bounds)):
        yield sum(d * s for d, s in zip(coeffs, steps)), coeffs


def gamma_set(baton: Baton) -> GammaSet:
    """Enumerate the bounded combination set of the baton's steps.

    The per-coordinate bound floor(total/step_i) is exhaustive below the
    total, and one extra step per coordinate suffices to find the least
    combination above it.
    """
    if baton.k < 1:
        raise PreconditionError("gamma_set needs at least one step")
    total = sum(baton.steps)
    values: set[Fraction] = set()
    beyond: Fraction | None = None
    for value, _ in _combinations_upto(baton.steps, extra=1):
        if value <= total:
            values.add(value)
        elif beyond is None or value < beyond:
            beyond = value
    assert beyond is not None
    return GammaSet(values=tuple(sorted(values)), gamma_next=beyond)


def scaled_round(q: int, gamma: Fraction) -> int:
    """The index a combination value anchors to: round(q*gamma), half up."""
    return math.floor(q * Fraction(gamma) + Fraction(1, 2))


def approximation_bound_holds(error: Fraction, q: int, k: int) -> bool:
    """Exact test of error < q^-(1+1/k), as error^k * q^(k+1) < 1."""
    return error**k * Fraction(q) ** (k + 1) < 1


def _numerators_at(steps: tuple[Fraction, ...], q: int) -> tuple[int, ...] | None:
    """The half-up numerators round(q*step_i), or None when one of them
    misses the simultaneous approximation bound."""
    numerators = tuple(scaled_round(q, s) for s in steps)
    k = len(steps)
    if all(
        approximation_bound_holds(abs(s - Fraction(p, q)), q, k)
        for s, p in zip(steps, numerators)
    ):
        return numerators
    return None


def dirichlet_approx(steps, q0: int) -> int:
    """Least q > q0 whose nearest-integer numerators satisfy the
    simultaneous approximation bound; a linear scan, checked exactly.
    anchor_sequence_at recomputes the numerators at that q.

    Rational steps make termination certain: any common-denominator
    multiple has zero error.
    """
    steps = tuple(Fraction(s) for s in steps)
    if not steps or any(s <= 0 for s in steps):
        raise PreconditionError("steps must be positive")
    q = q0 + 1
    while _numerators_at(steps, q) is None:
        q += 1
    return q


class AnchorSequence(NamedTuple):
    """The built sequence plus the data needed to audit it. Only
    anchor_sequence_at builds one, with m = sum(p) >= 1 and len(a) = m + 1;
    verify_anchor_sequence audits the values."""

    p: tuple[int, ...]
    m: int
    a: tuple[Fraction, ...]
    delta: Fraction
    theta: Fraction
    q0: int
    q: int

    @property
    def anchor_set(self) -> AnchorSet:
        """The values a, marked at the partial sums of p: the positions
        where the original steps are realized. This is what the general
        baton extractor reads."""
        return AnchorSet(self.a, tuple(itertools.accumulate(self.p, initial=0)))


def _threshold_q0(delta: Fraction, theta: Fraction, k: int) -> int:
    """Least integer with 1/q0 < delta and theta/q0^(1+1/k) < 1/(2q0).

    The second condition is equivalent to (2*theta)^k < q0, so both are
    exact rational comparisons.
    """
    inv = 1 / delta
    lhs = (2 * theta) ** k
    q0 = max(inv.numerator // inv.denominator, lhs.numerator // lhs.denominator)
    while not (Fraction(1, q0 + 1) < delta and lhs < q0 + 1):
        q0 += 1
    return q0 + 1


def _parameters(baton: Baton) -> tuple[GammaSet, Fraction, Fraction, int]:
    """The combination set, delta (least gap between consecutive
    combinations, gamma_next included), theta (largest over least positive
    combination) and the threshold q0 they give."""
    if baton.k < 1:
        raise PreconditionError("anchor sequences need at least one step")
    gammas = gamma_set(baton)
    with_next = gammas.values + (gammas.gamma_next,)
    delta = min(b - a for a, b in zip(with_next, with_next[1:]))
    theta = gammas.values[-1] / gammas.values[1]
    return gammas, delta, theta, _threshold_q0(delta, theta, baton.k)


def anchor_sequence_at(
    baton: Baton, q: int, max_m: int | None = None
) -> AnchorSequence:
    """The anchor sequence the construction assigns to denominator q.

    q = 1 with integer steps is the fast path: p_i = step_i, a_l = l,
    q0 = 0. Otherwise q must exceed the threshold q0, and the half-up
    numerators p_i = round(q*step_i) must satisfy the simultaneous
    approximation bound; then m = sum(p), each combination gamma anchors
    at index round(q*gamma), and the values below an anchor interpolate
    up to it in increments of delta/(2m). With max_m given, an m above it
    is refused before any of the m + 1 values is built. Raises
    PreconditionError saying which condition q fails. The result is not
    verified.
    """
    gammas, delta, theta, q0 = _parameters(baton)
    steps = baton.steps
    fast = q == 1 and all(s.denominator == 1 for s in steps)
    if fast:
        p, q0 = tuple(int(s) for s in steps), 0
    else:
        if q <= q0:
            raise PreconditionError(f"must exceed q0 = {q0}, got q = {q}")
        p = _numerators_at(steps, q)
        if p is None:
            raise PreconditionError(
                f"the half-up numerators at q = {q} miss the approximation bound"
            )
    m = sum(p)
    if max_m is not None and m > max_m:
        raise PreconditionError(
            f"at q = {q} the half-up numerators give m = {m}, above {max_m}"
        )
    if fast:
        a = [Fraction(l) for l in range(m + 1)]
    else:
        boundaries = [scaled_round(q, g) for g in gammas.values]
        if boundaries[-1] != m:
            raise PreconditionError(
                f"at q = {q} the top combination anchors at index "
                f"{boundaries[-1]}, not at sum(p) = {m}"
            )
        # a[l] = gamma - (boundary - l) * unit, each value over den: the
        # numerators are ints, and each value is one Fraction of two ints.
        unit = delta / (2 * m)
        den = math.lcm(unit.denominator, *(g.denominator for g in gammas.values))
        step = unit.numerator * (den // unit.denominator)
        a = [Fraction(0)] * (m + 1)
        for i in range(1, len(boundaries)):
            gamma = gammas.values[i]
            top = gamma.numerator * (den // gamma.denominator) - boundaries[i] * step
            for l in range(boundaries[i - 1] + 1, boundaries[i] + 1):
                a[l] = Fraction(top + l * step, den)
    return AnchorSequence(
        p=p, m=m, a=tuple(a), delta=delta, theta=theta, q0=q0, q=q
    )


def build_anchor_sequence(baton: Baton, faithful: bool = False) -> AnchorSequence:
    """Build an anchor sequence for the baton's steps.

    Integer steps short-circuit to the q = 1 fast path of
    anchor_sequence_at, which satisfies every clause directly and avoids
    enormous q. Pass faithful=True to force the full approximation
    construction on any input: the sequence at the least q > q0 that
    dirichlet_approx admits. The result is verified before being
    returned; a failing verification (possible only through rounding
    ties, which the theory excludes) retries with the next admissible q.
    """
    if not faithful and all(s.denominator == 1 for s in baton.steps):
        seq = anchor_sequence_at(baton, 1)
        report = verify_anchor_sequence(seq, baton)
        assert report.ok, f"integer fast path failed verification: {report}"
        return seq
    q = _parameters(baton)[3]
    for _ in range(_RETRY_LIMIT):
        q = dirichlet_approx(baton.steps, q)
        seq = anchor_sequence_at(baton, q)
        if verify_anchor_sequence(seq, baton).ok:
            return seq
    raise AssertionError("no admissible q passed verification")


class ClauseResult(NamedTuple):
    passed: bool
    counterexample: str | None = None

    def __bool__(self) -> bool:
        return self.passed


class VerificationReport(NamedTuple):
    monotonic: ClauseResult
    subadditive: ClauseResult
    anchored: ClauseResult
    index_increasing: ClauseResult
    index_linear: ClauseResult

    @property
    def ok(self) -> bool:
        return all(self)


def _first_subadditive_violation(a: tuple[Fraction, ...], m: int):
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


def verify_anchor_sequence(seq: AnchorSequence, baton: Baton) -> VerificationReport:
    """Check every clause the construction promises, exactly.

    Clauses: strict monotonicity from a_0 = 0; subadditivity over all
    index pairs; anchoring of every bounded combination under every
    coefficient representation; and the two index properties of
    gamma -> round(q*gamma): strictly increasing on the combination set,
    and agreeing with sum d_i*p_i for every representation.
    """
    a, m, p, q = seq.a, seq.m, seq.p, seq.q
    gammas = gamma_set(baton)

    mono_fail = None
    if a[0] != 0:
        mono_fail = f"a[0] = {a[0]} != 0"
    else:
        for l in range(1, m + 1):
            if a[l] <= a[l - 1]:
                mono_fail = f"a[{l}] = {a[l]} <= a[{l - 1}] = {a[l - 1]}"
                break
    monotonic = ClauseResult(mono_fail is None, mono_fail)

    viol = _first_subadditive_violation(a, m)
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
        for value, coeffs in _combinations_upto(baton.steps, extra=0):
            if value > total:
                continue
            index = sum(d * pi for d, pi in zip(coeffs, p))
            if anchor_fail is None and (index > m or a[index] != value):
                anchor_fail = (
                    f"combination {coeffs} (= {value}) anchors at index "
                    f"{index}, a[{index}] = {a[index] if index <= m else 'out of range'}"
                )
            if linear_fail is None and scaled_round(q, value) != index:
                linear_fail = (
                    f"round(q*gamma) = {scaled_round(q, value)} != "
                    f"sum d_i*p_i = {index} for {coeffs}"
                )
            if anchor_fail and linear_fail:
                break
    anchored = ClauseResult(anchor_fail is None, anchor_fail)
    index_linear = ClauseResult(linear_fail is None, linear_fail)

    incr_fail = None
    rounded = [scaled_round(q, g) for g in gammas.values]
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
