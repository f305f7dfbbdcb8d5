"""Subadditive anchor sequences from simultaneous rational approximation.

Given positive rational steps a1..ak, we build integers p1..pk and a
strictly increasing sequence a_0 = 0 < a_1 < ... < a_m (m = sum p_i) that
is subadditive (a_{l+r} <= a_l + a_r) and anchored: every bounded
nonnegative combination gamma = sum d_i*a_i satisfies a_{sum d_i*p_i} =
gamma. The p_i come from a denominator q approximating all steps
simultaneously to within q^-(1+1/k); interior values interpolate each
anchor from below in increments of delta/(2m).

anchor_sequence_at is the construction for one given q. The builder
only chooses q, the least one above q0 that meets the bound (or 1 for
integer steps), then builds and verifies once; the certificate
validator rebuilds at the stated q through the same function.

All arithmetic is exact and, inside, integer: combinations are scaled by
the lcm of the step denominators, and a sequence holds its values as
numerators over one common denominator, which its anchor_set hands on
to the baton extractor as they are. A built sequence is affine on
about one maximal run per combination, so subadditivity is decided on
triples of runs (I, J, K): on {l in I, r in J, l + r in K} the excess
a_{l+r} - a_l - a_r is affine and the vertices are integer points (the
constraint matrix is totally unimodular), so the vertices decide it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from operator import le, mul, ne, sub
from typing import NamedTuple

from .errors import PreconditionError
from .extraction import AnchorSet
from .metric import Baton

# The combination enumeration sums integer coefficient tuples at 2 to 3
# million tuples a second on a 2-vCPU Xeon host, so this cap bounds it to
# about 0.05 s.
MAX_COMBINATIONS = 10**5

# build_anchor_sequence refuses a sequence of more than MAX_M + 1 values
# before building any: steps 1, 1/2, 1/3, 1/5, 1/7 reach m = 57,124,543
# at their first admissible q, some GB of numerators. Steps 1, 1/1000
# (m = 4,013,009) stay within it.
MAX_M = 2**22


class TooManyValues(PreconditionError):
    """An m past the cap max_m, refused before any value is built; .m is m."""


def check_combination_count(steps) -> None:
    """Raise PreconditionError when the combination enumeration of the
    steps would visit more than MAX_COMBINATIONS coefficient tuples."""
    total = sum(steps)
    count = math.prod(int(total / s) + 2 for s in steps)
    if count > MAX_COMBINATIONS:
        raise PreconditionError(
            f"{count} coefficient combinations to enumerate, above {MAX_COMBINATIONS}"
        )


def _combinations(steps):
    """Enumerate 0 <= d_i <= floor(total/steps_i) + 1 in integers: each
    value is scaled by scale, the lcm of the step denominators. Returns
    scale; the (value, coefficients) of every combination of value at
    most the total, coefficients in lexicographic order; the distinct
    values among them, sorted; and the least value above the total.

    The per-coordinate bound floor(total/step_i) is exhaustive below the
    total, and one extra step per coordinate suffices to find the least
    combination above it.
    """
    if not steps:
        raise PreconditionError("anchor sequences need at least one step")
    check_combination_count(steps)
    scale = math.lcm(*(s.denominator for s in steps))
    ints = tuple(s.numerator * (scale // s.denominator) for s in steps)
    total = sum(ints)
    representations = []
    beyond = None
    for coeffs in itertools.product(*(range(total // s + 2) for s in ints)):
        value = sum(map(mul, coeffs, ints))
        if value <= total:
            representations.append((value, coeffs))
        elif beyond is None or value < beyond:
            beyond = value
    values = sorted({value for value, _ in representations})
    return scale, representations, values, beyond


def _rounded(num: int, den: int) -> int:
    """round(num/den), half up, for den > 0."""
    return (2 * num + den) // (2 * den)


def _numerators_at(steps: tuple[Fraction, ...], q: int) -> tuple[int, ...] | None:
    """The half-up numerators p_i = round(q*step_i), or None when one of
    them misses the simultaneous approximation bound
    |step_i - p_i/q| < q^-(1+1/k). For a step a/b the bound reads
    |q*a - p*b|^k * q < b^k, so it is tested in integers."""
    k = len(steps)
    numerators = tuple(_rounded(q * s.numerator, s.denominator) for s in steps)
    if all(
        abs(q * s.numerator - p * s.denominator) ** k * q < s.denominator**k
        for s, p in zip(steps, numerators)
    ):
        return numerators
    return None


class AnchorSequence(NamedTuple):
    """The built sequence plus the data needed to audit it. Only
    anchor_sequence_at builds one, with m = sum(p) >= 1 and the values
    a_l = num[l] / den, len(num) = m + 1 and den >= 1;
    verify_anchor_sequence audits the values."""

    p: tuple[int, ...]
    m: int
    num: tuple[int, ...]
    den: int
    delta: Fraction
    theta: Fraction
    q0: int
    q: int

    @property
    def anchor_set(self) -> AnchorSet:
        """The values num / den, marked at the partial sums of p: the
        positions where the original steps are realized. This is what the
        general baton extractor reads."""
        marks = tuple(itertools.accumulate(self.p, initial=0))
        return AnchorSet(self.num, self.den, marks)


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


def _parameters(baton: Baton):
    """The scale and scaled values of the combinations, delta (least gap
    between consecutive combinations, gamma_next included), theta
    (largest over least positive combination) and the threshold q0 they
    give."""
    scale, _, values, beyond = _combinations(baton.steps)
    delta = Fraction(min(map(sub, values[1:] + [beyond], values)), scale)
    theta = Fraction(values[-1], values[1])
    return scale, values, delta, theta, _threshold_q0(delta, theta, baton.k)


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
    is refused (TooManyValues) before any of its values is built. Raises
    PreconditionError saying which condition q fails. The result is not
    verified.
    """
    return _sequence_at(baton, _parameters(baton), q, max_m)


def _sequence_at(baton: Baton, params, q: int, max_m: int | None) -> AnchorSequence:
    scale, values, delta, theta, q0 = params
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
        refusal = TooManyValues(
            f"at q = {q} the half-up numerators give m = {m}, above {max_m}"
        )
        refusal.m = m
        raise refusal
    if fast:
        num, den = tuple(range(m + 1)), 1
    else:
        boundaries = [_rounded(q * v, scale) for v in values]
        if boundaries[-1] != m:
            raise PreconditionError(
                f"at q = {q} the top combination anchors at index "
                f"{boundaries[-1]}, not at sum(p) = {m}"
            )
        # a[l] = gamma - (boundary - l) * unit for l up to gamma's
        # boundary, past the one before: over den, top + l * step. The
        # boundaries never decrease, so the segments fill 1..m in order.
        unit = delta / (2 * m)
        den = math.lcm(unit.denominator, scale)
        step = unit.numerator * (den // unit.denominator)
        segments = [range(1)]
        for lo, hi, value in zip(boundaries, boundaries[1:], values[1:]):
            top = value * (den // scale) - hi * step
            segments.append(range(top + (lo + 1) * step, top + hi * step + 1, step))
        num = tuple(itertools.chain.from_iterable(segments))
    return AnchorSequence(
        p=p, m=m, num=num, den=den, delta=delta, theta=theta, q0=q0, q=q
    )


def build_anchor_sequence(baton: Baton, faithful: bool = False) -> AnchorSequence:
    """Build an anchor sequence for the baton's steps, in one pass.

    Integer steps take the q = 1 fast path of anchor_sequence_at, which
    satisfies every clause directly and avoids enormous q. Otherwise, or
    with faithful=True on any input, q is the least integer above q0
    whose half-up numerators meet the simultaneous approximation bound;
    rational steps make the scan end, since any common multiple of their
    denominators has zero error. The sequence at that q is verified once,
    and the construction guarantees that it passes. A sequence with m
    above MAX_M raises PreconditionError before any of its values is
    built.
    """
    params = _parameters(baton)
    q = 1
    if faithful or any(s.denominator != 1 for s in baton.steps):
        q = params[-1] + 1
        while _numerators_at(baton.steps, q) is None:
            q += 1
    seq = _sequence_at(baton, params, q, MAX_M)
    report = verify_anchor_sequence(seq, baton)
    assert report.ok, f"the sequence at q = {q} failed verification: {report}"
    return seq


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


def _affine_runs(s) -> list[tuple[int, int]]:
    """Split 0..m into maximal runs (x0, x1), left to right: each starts
    one past the last and is the longest stretch from there on which s
    has one constant difference."""
    m = len(s) - 1
    # The difference changes at these interior points and nowhere else.
    diffs = map(sub, itertools.islice(s, 1, None), s)
    changes = itertools.starmap(ne, itertools.pairwise(diffs))
    runs, x0 = [], 0
    for end in itertools.chain(itertools.compress(itertools.count(1), changes), [m]):
        if end > x0:
            runs.append((x0, end))
            x0 = end + 1
    if x0 == m:
        runs.append((m, m))
    return runs


def _subadditive_violation(s) -> tuple[int, int] | None:
    """A pair (l, r), 1 <= l <= r, with s[l+r] > s[l] + s[r], the first
    the run check meets, or None when s is subadditive on l, r >= 1.

    For runs I <= J and each run K meeting I + J, the excess is affine on
    the polygon {l in I, r in J, l + r in K}, whose vertices are integer
    points, so its largest value sits at one of them.
    """
    m = len(s) - 1
    runs = _affine_runs(s)
    starts = [x0 for x0, _ in runs]
    for index, (i0, i1) in enumerate(runs):
        i0 = max(i0, 1)
        if i0 > i1:
            continue
        for j0, j1 in runs[index:]:
            j0 = max(j0, 1)
            if j0 > j1:
                continue
            if i0 + j0 > m:
                break
            first = bisect_right(starts, i0 + j0) - 1
            for k0, k1 in runs[first : bisect_right(starts, i1 + j1)]:
                # The corners: the feasible points where two of the six
                # bounds l in I, r in J, l + r in K are tight.
                for l in (i0, i1):
                    for r in (j0, j1, k0 - l, k1 - l):
                        if j0 <= r <= j1 and k0 <= l + r <= k1:
                            if s[l + r] > s[l] + s[r]:
                                return min(l, r), max(l, r)
                for r in (j0, j1):
                    for l in (k0 - r, k1 - r):
                        if i0 <= l <= i1 and s[l + r] > s[l] + s[r]:
                            return min(l, r), max(l, r)
    return None


def verify_anchor_sequence(seq: AnchorSequence, baton: Baton) -> VerificationReport:
    """Check every clause the construction promises, exactly.

    Clauses: strict monotonicity from a_0 = 0; subadditivity over all
    index pairs; anchoring of every bounded combination under every
    coefficient representation; and the two index properties of
    gamma -> round(q*gamma): strictly increasing on the combination set,
    and agreeing with sum d_i*p_i for every representation.
    """
    num, den, m, p, q = seq.num, seq.den, seq.m, seq.p, seq.q
    scale, representations, values, _ = _combinations(baton.steps)

    def value(l: int) -> Fraction:
        return Fraction(num[l], den)

    mono_fail = None
    if num[0] != 0:
        mono_fail = f"a[0] = {value(0)} != 0"
    else:
        drops = itertools.compress(
            itertools.count(1), map(le, itertools.islice(num, 1, m + 1), num)
        )
        l = next(drops, None)
        if l is not None:
            mono_fail = f"a[{l}] = {value(l)} <= a[{l - 1}] = {value(l - 1)}"
    monotonic = ClauseResult(mono_fail is None, mono_fail)

    viol = _subadditive_violation(num)
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
        for combination, coeffs in representations:
            index = sum(map(mul, coeffs, p))
            # a[index] = combination/scale, cross-multiplied
            if anchor_fail is None and (
                index > m or num[index] * scale != combination * den
            ):
                anchor_fail = (
                    f"combination {coeffs} (= {Fraction(combination, scale)}) "
                    f"anchors at index {index}, "
                    f"a[{index}] = {value(index) if index <= m else 'out of range'}"
                )
            rounded = _rounded(q * combination, scale)
            if linear_fail is None and rounded != index:
                linear_fail = (
                    f"round(q*gamma) = {rounded} != "
                    f"sum d_i*p_i = {index} for {coeffs}"
                )
            if anchor_fail and linear_fail:
                break
    anchored = ClauseResult(anchor_fail is None, anchor_fail)
    index_linear = ClauseResult(linear_fail is None, linear_fail)

    incr_fail = None
    rounded = [_rounded(q * v, scale) for v in values]
    for i in range(1, len(rounded)):
        if rounded[i] <= rounded[i - 1]:
            incr_fail = (
                f"round(q*gamma) not increasing between "
                f"{Fraction(values[i - 1], scale)} and {Fraction(values[i], scale)}"
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
