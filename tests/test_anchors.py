"""Anchor sequences: combination sets, rational approximation, verification."""

import math
import re
from fractions import Fraction

import pytest
from anchor_oracles import (
    GammaSet,
    first_subadditive_violation,
    fraction_first_admissible_q,
    fraction_gamma_set,
    fraction_round,
    fraction_verify_anchor_sequence,
)
from anchor_sets import anchor_values, marked_steps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxram.anchors import (
    AnchorSequence,
    ClauseResult,
    _affine_runs,
    _combinations,
    _numerators_at,
    _rounded,
    _subadditive_violation,
    _threshold_q0,
    anchor_sequence_at,
    build_anchor_sequence,
    verify_anchor_sequence,
)
from maxram.errors import PreconditionError
from maxram.metric import Baton

F = Fraction


def small_batons():
    return st.lists(
        st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3),
        min_size=1,
        max_size=2,
    ).map(lambda steps: Baton(tuple(steps)))


def integer_batons():
    return st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda steps: Baton(tuple(F(v) for v in steps))
    )


# -- the gamma set --------------------------------------------------------


def gamma_set(baton):
    """The combination values of _combinations and the least one beyond
    them, unscaled."""
    scale, _, values, beyond = _combinations(baton.steps)
    return GammaSet(tuple(F(v, scale) for v in values), F(beyond, scale))


def test_gamma_set_enumerates_bounded_combinations():
    g = gamma_set(Baton((F(1), F(3, 2))))
    assert g.values == (F(0), F(1), F(3, 2), F(2), F(5, 2))
    assert g.gamma_next == 3


def test_gamma_set_lists_a_value_reached_twice_once():
    g = gamma_set(Baton((F(1), F(2))))
    # 2 = 2*1 = 1*2 and 3 = 3*1 = 1+2 are each listed once
    assert g.values == (F(0), F(1), F(2), F(3))
    assert g.gamma_next == 4


def test_gamma_set_single_step():
    g = gamma_set(Baton((F(2, 3),)))
    assert g.values == (F(0), F(2, 3))
    assert g.gamma_next == F(4, 3)


def test_gamma_set_rejects_empty_baton():
    for build in (
        lambda: build_anchor_sequence(Baton(()), faithful=True),
        lambda: anchor_sequence_at(Baton(()), 1),
    ):
        with pytest.raises(PreconditionError, match="at least one step"):
            build()
    with pytest.raises(PreconditionError):
        fraction_gamma_set(Baton(()))


@given(small_batons())
@settings(max_examples=60, deadline=None)
def test_gamma_set_values_are_sorted_and_bracketed(baton):
    g = gamma_set(baton)
    total = sum(baton.steps)
    assert g.values[0] == 0
    assert all(a < b for a, b in zip(g.values, g.values[1:]))
    assert g.values[-1] == total  # the all-ones combination is admissible
    assert g.gamma_next > total
    assert g == fraction_gamma_set(baton)


# -- rounding and the approximation bound --------------------------------


def test_round_half_up_breaks_ties_upward():
    assert _rounded(1, 2) == 1
    assert _rounded(-1, 2) == 0
    assert _rounded(3, 2) == 2
    assert _rounded(5, 4) == 1
    assert _rounded(7, 1) == 7
    assert _rounded(27 * 3, 2) == 41  # 40.5 rounds up
    for num, den in ((1, 2), (-1, 2), (3, 2), (-3, 2), (5, 4), (81, 2), (7, 1)):
        assert _rounded(num, den) == fraction_round(1, F(num, den))


def test_approximation_bound_is_exact():
    # |3/2 - 41/27| = 1/54, and (1/54)^2 * 27^3 = 27/4 >= 1
    assert _numerators_at((F(1), F(3, 2)), 27) is None
    assert _numerators_at((F(1), F(3, 2)), 28) == (28, 42)
    # |1/4 - 1/2| * 2^2 = 1 exactly: the bound is strict
    assert _numerators_at((F(1, 4),), 2) is None
    assert _numerators_at((F(1, 4),), 4) == (1,)
    # |1/2 - 2/3|^2 * 3^3 = 3/4 < 1
    assert _numerators_at((F(1, 2), F(1)), 3) == (2, 3)


@pytest.mark.parametrize(
    "steps, q0, q, numerators",
    [
        ((F(1, 2),), 3, 4, (2,)),
        ((F(1), F(2)), 5, 6, (6, 12)),
        ((F(1), F(3, 2)), 7, 8, (8, 12)),
        ((F(1), F(3, 2)), 26, 28, (28, 42)),
    ],
)
def test_dirichlet_scan_fixtures(steps, q0, q, numerators):
    assert fraction_first_admissible_q(steps, q0) == (q, numerators)
    assert _numerators_at(steps, q) == numerators
    assert all(_numerators_at(steps, r) is None for r in range(q0 + 1, q))


def test_dirichlet_rejects_q_27_for_the_half_integer_pair():
    """27 * 3/2 rounds to 41 at error 1/54, which fails the bound, so the
    scan from the threshold 26 must land on 28."""
    steps = (F(1), F(3, 2))
    err = tuple(abs(s - F(fraction_round(27, s), 27)) for s in steps)
    assert err == (F(0), F(1, 54))
    assert err[1] ** 2 * 27**3 >= 1
    assert _numerators_at(steps, 27) is None
    seq = build_anchor_sequence(Baton(steps), faithful=True)
    assert (seq.q0, seq.q, seq.p) == (26, 28, (28, 42))


def test_dirichlet_rejects_bad_steps():
    with pytest.raises(PreconditionError, match="at least one step"):
        build_anchor_sequence(Baton(()))
    for bad in (F(0), F(-1, 2)):
        with pytest.raises(PreconditionError, match="positive"):
            Baton((F(1), bad))


@given(st.one_of(integer_batons(), small_batons()))
@settings(max_examples=60, deadline=None)
def test_dirichlet_result_always_satisfies_its_own_bound(baton):
    """The built q exceeds q0 and meets the bound, checked in Fractions."""
    seq = build_anchor_sequence(baton, faithful=True)
    assert seq.q > seq.q0
    for s, p in zip(baton.steps, seq.p):
        assert abs(s - F(p, seq.q)) ** baton.k * F(seq.q) ** (baton.k + 1) < 1


@given(st.one_of(integer_batons(), small_batons()), st.integers(1, 200))
@settings(max_examples=80, deadline=None)
def test_first_admissible_q_matches_the_fraction_oracle(baton, q):
    """The builder's q and p are the Fraction scan's from q0, and at any
    q the integer bound test admits exactly what the Fraction one does."""
    seq = build_anchor_sequence(baton, faithful=True)
    assert (seq.q, seq.p) == fraction_first_admissible_q(baton.steps, seq.q0)
    found, numerators = fraction_first_admissible_q(baton.steps, q - 1)
    assert _numerators_at(baton.steps, q) == (numerators if found == q else None)


# -- threshold ------------------------------------------------------------


def test_threshold_fixture_for_the_half_integer_pair():
    assert _threshold_q0(F(1, 2), F(5, 2), 2) == 26


def test_threshold_conditions_hold_at_and_fail_below():
    q0 = _threshold_q0(F(1, 2), F(5, 2), 2)
    assert F(1, q0) < F(1, 2) and F(2 * F(5, 2)) ** 2 < q0
    assert not (F(2 * F(5, 2)) ** 2 < q0 - 1)


@given(
    st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8),
    st.fractions(min_value=1, max_value=6, max_denominator=4),
    st.integers(1, 3),
)
def test_threshold_is_least(delta, theta, k):
    q0 = _threshold_q0(delta, theta, k)

    def admissible(q):
        return F(1, q) < delta and (2 * theta) ** k < q

    assert admissible(q0)
    assert not admissible(q0 - 1)


# -- building sequences -----------------------------------------------------


@given(st.one_of(integer_batons(), small_batons()), st.booleans())
@settings(max_examples=60, deadline=None)
def test_anchor_sequence_at_returns_the_built_sequence_at_its_q(baton, faithful):
    seq = build_anchor_sequence(baton, faithful=faithful)
    fast = not faithful and all(s.denominator == 1 for s in baton.steps)
    assert (seq.q == 1) == fast
    assert anchor_sequence_at(baton, seq.q) == seq


@given(st.one_of(integer_batons(), small_batons()))
@settings(max_examples=40, deadline=None)
def test_anchor_sequence_at_rejects_inadmissible_q(baton):
    seq = build_anchor_sequence(baton, faithful=True)
    integral = all(s.denominator == 1 for s in baton.steps)
    for q in (seq.q0, seq.q0 // 2, 0):
        if q == 1 and integral:
            continue  # the fast path
        with pytest.raises(PreconditionError, match=f"must exceed q0 = {seq.q0}"):
            anchor_sequence_at(baton, q)
    # the builder takes the least admissible q > q0, so every q between
    # them misses the approximation bound
    for q in range(seq.q0 + 1, min(seq.q, seq.q0 + 20)):
        with pytest.raises(PreconditionError, match="approximation bound"):
            anchor_sequence_at(baton, q)


@given(small_batons(), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_anchor_values_match_the_fraction_formula(baton, later):
    """At an admissible q > q0, each value a_l below the anchor of gamma
    is gamma - (round(q*gamma) - l) * delta/(2m), in Fractions."""
    q = build_anchor_sequence(baton, faithful=True).q
    for _ in range(later):
        q, _ = fraction_first_admissible_q(baton.steps, q)
    try:
        seq = anchor_sequence_at(baton, q)
    except PreconditionError:  # the top combination misses index m
        return
    unit = seq.delta / (2 * seq.m)
    values = fraction_gamma_set(baton).values
    bounds = [fraction_round(q, gamma) for gamma in values]
    expected = [F(0)] * (seq.m + 1)
    for i in range(1, len(values)):
        for l in range(bounds[i - 1] + 1, bounds[i] + 1):
            expected[l] = values[i] - (bounds[i] - l) * unit
    assert seq.q0 < q and anchor_values(seq) == tuple(expected)
    assert all(type(v) is int for v in seq.num)


def test_anchor_sequence_at_rejects_q_27_for_the_half_integer_pair():
    baton = Baton((F(1), F(3, 2)))
    with pytest.raises(PreconditionError, match="at q = 27 miss the approximation"):
        anchor_sequence_at(baton, 27)
    assert anchor_sequence_at(baton, 28) == build_anchor_sequence(baton, faithful=True)



def test_integer_steps_take_the_fast_path():
    seq = build_anchor_sequence(Baton((F(2), F(3))))
    assert (seq.q, seq.q0) == (1, 0)
    assert seq.p == (2, 3)
    assert seq.m == 5
    assert anchor_values(seq) == tuple(F(l) for l in range(6))
    assert seq.delta == 1
    assert seq.theta == F(5, 2)
    assert seq.anchor_set.marks == (0, 2, 5)
    assert marked_steps(seq.anchor_set) == (F(2), F(3))


def test_faithful_single_unit_step():
    seq = build_anchor_sequence(Baton((F(1),)), faithful=True)
    assert (seq.q, seq.q0, seq.p, seq.m) == (4, 3, (4,), 4)
    assert anchor_values(seq) == (F(0), F(5, 8), F(3, 4), F(7, 8), F(1))
    assert verify_anchor_sequence(seq, Baton((F(1),))).ok


def test_faithful_half_integer_pair():
    baton = Baton((F(1), F(3, 2)))
    seq = build_anchor_sequence(baton, faithful=True)
    assert (seq.q, seq.q0) == (28, 26)
    assert seq.p == (28, 42)
    assert seq.m == 70
    assert (seq.delta, seq.theta) == (F(1, 2), F(5, 2))
    # every bounded combination sits at its rounded index
    for gamma, index in ((F(1), 28), (F(3, 2), 42), (F(2), 56), (F(5, 2), 70)):
        assert fraction_round(seq.q, gamma) == index
        assert anchor_values(seq)[index] == gamma
    assert marked_steps(seq.anchor_set) == baton.steps


def test_block_interpolation_gaps():
    """Inside a block consecutive values differ by delta/(2m); the first
    step into a block stays above delta/2."""
    seq = build_anchor_sequence(Baton((F(1), F(3, 2))), faithful=True)
    unit = seq.delta / (2 * seq.m)
    a = anchor_values(seq)
    boundaries = [0, 28, 42, 56, 70]
    for lo, hi in zip(boundaries, boundaries[1:]):
        for l in range(lo + 2, hi + 1):
            assert a[l] - a[l - 1] == unit
        assert a[lo + 1] - a[lo] > seq.delta / 2


def test_fractional_steps_force_the_slow_path_even_without_faithful():
    seq = build_anchor_sequence(Baton((F(3, 2),)))
    assert seq.q > 1
    assert verify_anchor_sequence(seq, Baton((F(3, 2),))).ok


def test_build_is_deterministic():
    a = build_anchor_sequence(Baton((F(1), F(3, 2))), faithful=True)
    b = build_anchor_sequence(Baton((F(1), F(3, 2))), faithful=True)
    assert a == b


def test_build_rejects_empty_baton():
    with pytest.raises(PreconditionError):
        build_anchor_sequence(Baton(()))


@given(small_batons())
@settings(max_examples=30, deadline=None)
def test_built_sequences_verify_and_realize_the_steps(baton):
    seq = build_anchor_sequence(baton)
    report = verify_anchor_sequence(seq, baton)
    assert report.ok
    assert marked_steps(seq.anchor_set) == baton.steps
    assert seq.anchor_set[:2] == (seq.num, seq.den)


# -- AnchorSequence validation ------------------------------------------------


@given(st.one_of(integer_batons(), small_batons()), st.booleans())
@settings(max_examples=30, deadline=None)
def test_anchor_sequence_field_validation(baton, faithful):
    """AnchorSequence checks nothing itself: the one construction gives
    positive integer p, m = sum(p), m + 1 values and q >= 1."""
    seq = build_anchor_sequence(baton, faithful=faithful)
    for built in (seq, anchor_sequence_at(baton, seq.q)):
        assert built.p and all(type(v) is int and v >= 1 for v in built.p)
        assert built.m == sum(built.p)
        assert len(built.num) == built.m + 1
        assert built.q >= 1


# -- verification clauses -----------------------------------------------------


def seq_for(baton, a, **overrides):
    """A hand-built sequence with the values a, over their least common
    denominator."""
    den = math.lcm(*(v.denominator for v in a))
    num = tuple(v.numerator * (den // v.denominator) for v in a)
    base = dict(num=num, den=den, delta=F(1), theta=F(1), q0=1)
    base.update(overrides)
    return AnchorSequence(**base)


def test_verify_reports_a_monotonicity_failure():
    seq = seq_for(None, p=(2,), m=2, a=(F(0), F(1), F(1)), q=2)
    report = verify_anchor_sequence(seq, Baton((F(1),)))
    assert not report.ok
    assert not report.monotonic
    assert "a[2]" in report.monotonic.counterexample
    assert report.anchored and report.subadditive


def test_verify_reports_a_subadditivity_failure():
    seq = seq_for(None, p=(2,), m=2, a=(F(0), F(1, 4), F(1)), q=2)
    report = verify_anchor_sequence(seq, Baton((F(1),)))
    assert report.monotonic and report.anchored
    assert not report.subadditive
    assert report.subadditive.counterexample == "a[2] > a[1] + a[1]"


def test_verify_reports_an_anchoring_failure():
    seq = seq_for(None, p=(2,), m=2, a=(F(0), F(1, 2), F(3, 4)), q=2)
    report = verify_anchor_sequence(seq, Baton((F(1),)))
    assert not report.anchored
    assert "anchors at index 2" in report.anchored.counterexample


def test_verify_reports_an_index_linearity_failure():
    # q disagrees with p: round(3*1) = 3 but the p-index of (1,) is 2
    seq = seq_for(None, p=(2,), m=2, a=(F(0), F(1, 2), F(1)), q=3)
    report = verify_anchor_sequence(seq, Baton((F(1),)))
    assert report.anchored and report.monotonic
    assert not report.index_linear
    assert "round(q*gamma)" in report.index_linear.counterexample


def test_verify_reports_an_index_increase_failure():
    # q = 1 rounds 3/2 and 2 to the same index
    seq = seq_for(None, p=(1, 2), m=3, a=(F(0), F(1), F(3, 2), F(5, 2)), q=1)
    report = verify_anchor_sequence(seq, Baton((F(1), F(3, 2))))
    assert not report.index_increasing
    assert "not increasing" in report.index_increasing.counterexample
    assert not report.ok


def test_verify_reports_wrong_p_arity_as_an_anchoring_failure():
    seq = seq_for(None, p=(2,), m=2, a=(F(0), F(1, 2), F(1)), q=2)
    report = verify_anchor_sequence(seq, Baton((F(1), F(1))))
    assert not report.anchored
    assert "entries" in report.anchored.counterexample


def test_clauses_mapping_matches_the_report():
    seq = build_anchor_sequence(Baton((F(1),)))
    report = verify_anchor_sequence(seq, Baton((F(1),)))
    clauses = report._asdict()
    assert set(clauses) == {
        "monotonic",
        "subadditive",
        "anchored",
        "index_increasing",
        "index_linear",
    }
    assert all(bool(c) for c in clauses.values())


# -- the lane sweep oracle ----------------------------------------------------


def naive_first_subadditive_violation(a, m):
    """The all-pairs loop: lexicographically first (l, r), l <= r, with
    a[l+r] > a[l] + a[r]."""
    for l in range(1, m // 2 + 1):
        for r in range(l, m - l + 1):
            if a[l + r] > a[l] + a[r]:
                return l, r
    return None


@given(
    st.lists(
        st.fractions(min_value=F(1, 4), max_value=3, max_denominator=8),
        min_size=1,
        max_size=12,
    ),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_sweep_agrees_with_brute_force(gaps, data):
    a = [F(0)]
    for g in gaps:
        a.append(a[-1] + g)
    # half the time, plant a violation by lifting one interior value
    if len(a) > 2 and data.draw(st.booleans()):
        idx = data.draw(st.integers(2, len(a) - 1))
        a[idx] += a[-1] * 2
    a = tuple(a)
    m = len(a) - 1
    assert first_subadditive_violation(a, m) == naive_first_subadditive_violation(a, m)


SWEEP_VALUES = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.integers(-(2**70), 2**70).map(F),
    st.integers(2**62, 2**66).map(F),
    st.fractions(min_value=-(2**64), max_value=2**64, max_denominator=7),
)


@st.composite
def sweep_sequences(draw):
    """Any values, or concave (so subadditive) ones with a few nudged,
    so that both None and a first violating pair come up."""
    m = draw(st.integers(0, 60))
    if draw(st.booleans()):
        return tuple(draw(st.lists(SWEEP_VALUES, min_size=m + 1, max_size=m + 1)))
    top = draw(st.sampled_from([60, 2**63, 3**50]))
    a = [F(l * (2 * top - l), draw(st.sampled_from([1, 3, 7]))) for l in range(m + 1)]
    for _ in range(draw(st.integers(0, 2))):
        if m:
            a[draw(st.integers(1, m))] += draw(SWEEP_VALUES)
    return tuple(a)


@given(sweep_sequences())
@settings(max_examples=400, deadline=None)
@example(tuple(F(l * (120 - l)) for l in range(61)))  # concave: no violation
@example((F(0), F(-1), F(-2)))  # negative values: a[2] > a[1] + a[1]
@example((F(0), F(2**65), F(2**66) + 1))  # past 2^62: violation at (1, 1)
def test_lane_sweep_matches_the_all_pairs_loop(a):
    m = len(a) - 1
    assert first_subadditive_violation(a, m) == naive_first_subadditive_violation(a, m)


def test_lane_sweep_sees_both_outcomes():
    concave = tuple(F(l * (120 - l), 7) for l in range(61))
    assert first_subadditive_violation(concave, 60) is None
    bumped = concave[:40] + (concave[40] + 20,) + concave[41:]
    assert first_subadditive_violation(bumped, 60) == (1, 39)
    assert naive_first_subadditive_violation(bumped, 60) == (1, 39)


def test_sweep_is_exact_above_int64():
    """Numerators past 2^63 sit in wider lanes; the result is unchanged."""
    big = F(2**63)
    a = (F(0), F(2**61), big)
    assert first_subadditive_violation(a, 2) == (1, 1)
    ok = (F(0), F(2**61), F(2**62))
    assert first_subadditive_violation(ok, 2) is None


# -- the integer verifier against the Fraction oracle --------------------------


def mutated(seq, data):
    """seq with one value raised or lowered by one unit 1/den, two values
    swapped, or one entry of p or q off by one."""
    kind = data.draw(st.sampled_from(["raise", "lower", "swap", "p", "q"]))
    num = list(seq.num)
    if kind in ("raise", "lower"):
        num[data.draw(st.integers(0, seq.m))] += 1 if kind == "raise" else -1
        return seq._replace(num=tuple(num))
    if kind == "swap":
        i, j = data.draw(st.integers(0, seq.m)), data.draw(st.integers(0, seq.m))
        num[i], num[j] = num[j], num[i]
        return seq._replace(num=tuple(num))
    off = data.draw(st.sampled_from([-1, 1]))
    if kind == "p":
        p = list(seq.p)
        p[data.draw(st.integers(0, len(p) - 1))] += off
        return seq._replace(p=tuple(p))
    return seq._replace(q=seq.q + off)


def assert_names_a_violation(clause: ClauseResult, a) -> None:
    """The clause fails, and its counterexample a[l+r] > a[l] + a[r], with
    1 <= l <= r and l + r within a, holds in Fractions."""
    assert not clause.passed
    pattern = r"a\[(\d+)\] > a\[(\d+)\] \+ a\[(\d+)\]"
    total, l, r = map(int, re.fullmatch(pattern, clause.counterexample).groups())
    assert 1 <= l <= r and total == l + r < len(a)
    assert F(a[total]) > F(a[l]) + F(a[r])


@given(st.one_of(integer_batons(), small_batons()), st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_integer_verifier_matches_the_fraction_oracle(baton, faithful, data):
    """On built sequences, fast path and faithful, and on mutated copies,
    every clause but subadditivity and its counterexample string is the
    Fraction verifier's. Subadditivity has the oracle's verdict, and a
    pair it names violates in Fractions."""
    seq = build_anchor_sequence(baton, faithful=faithful)
    for checked in (seq, mutated(seq, data)):
        want = fraction_verify_anchor_sequence(checked, baton)._asdict()
        got = verify_anchor_sequence(checked, baton)._asdict()
        subadditive = got.pop("subadditive")
        assert subadditive.passed == want.pop("subadditive").passed
        if not subadditive:
            assert_names_a_violation(subadditive, anchor_values(checked))
        assert got == want


# -- the run check ----------------------------------------------------------------


def naive_affine_runs(s):
    """Left to right, each run takes the longest stretch of one constant
    difference from one past the previous run."""
    m = len(s) - 1
    runs, x0 = [], 0
    while x0 <= m:
        x1 = min(x0 + 1, m)
        while x1 < m and s[x1 + 1] - s[x1] == s[x0 + 1] - s[x0]:
            x1 += 1
        runs.append((x0, x1))
        x0 = x1 + 1
    return runs


@st.composite
def piecewise_affine(draw):
    """1-8 affine runs, singletons among them, with negative and zero
    slopes; half of them concave from index 1 on (so subadditive on
    l, r >= 1, whatever s[0] is). A violation may be planted at a run end
    or inside a run."""
    count = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(1, 12), min_size=count, max_size=count))
    slopes = draw(st.lists(st.integers(-4, 6), min_size=count, max_size=count))
    if draw(st.booleans()):
        slopes.sort(reverse=True)
        jumps = [0] * count
        start = draw(st.integers(0, 5))
    else:
        jumps = draw(st.lists(st.integers(-6, 12), min_size=count, max_size=count))
        start = draw(st.integers(-5, 5))
    s = [start]
    for length, slope, jump in zip(lengths, slopes, jumps):
        s.append(s[-1] + slope + jump)
        for _ in range(length - 1):
            s.append(s[-1] + slope)
    s[0] = draw(st.integers(-5, 5))
    where = draw(st.sampled_from(["none", "end", "inside"]))
    runs = naive_affine_runs(s)
    if where == "end":
        x0, x1 = draw(st.sampled_from(runs))
        s[draw(st.sampled_from([x0, x1]))] += draw(st.integers(-20, 20))
    elif where == "inside" and any(x1 - x0 >= 2 for x0, x1 in runs):
        x0, x1 = draw(st.sampled_from([r for r in runs if r[1] - r[0] >= 2]))
        s[draw(st.integers(x0 + 1, x1 - 1))] += draw(st.integers(-20, 20))
    return tuple(s)


def subadditive_clause(s) -> ClauseResult:
    """verify_anchor_sequence's subadditivity clause on the values s,
    which the other clauses do not affect."""
    m = len(s) - 1
    seq = AnchorSequence(
        p=(m,), m=m, num=tuple(s), den=1, delta=F(1), theta=F(1), q0=0, q=1
    )
    return verify_anchor_sequence(seq, Baton((F(1),))).subadditive


def violated_at(l, r) -> ClauseResult:
    return ClauseResult(False, f"a[{l + r}] > a[{l}] + a[{r}]")


def check_run_check(s):
    """The run check's verdict is the all-pairs loop's, and the pair it
    names is the one the clause reports and violates."""
    m = len(s) - 1
    assert _affine_runs(s) == naive_affine_runs(s)
    pair = _subadditive_violation(s)
    assert (pair is None) == (naive_first_subadditive_violation(s, m) is None)
    clause = subadditive_clause(s)
    if pair is None:
        assert clause == ClauseResult(True)
    else:
        assert clause == violated_at(*pair)
        assert_names_a_violation(clause, s)


@given(piecewise_affine())
@settings(max_examples=500, deadline=None)
@example((0, 5, 10, 15, 21))  # a rise at the last run end: (2, 2)
@example((-3, 4, 8, 12))  # subadditive for l, r >= 1, with s[0] < 0
@example((0, 3, 3, 3, 7))  # zero slope, then a jump
def test_run_check_agrees_with_the_all_pairs_loop(s):
    check_run_check(s)


# Most violations show at several corners of their polygon. In each of
# these, found by random search, they show only at corners where the two
# named bounds are tight, so the run check misses them without that kind.
CORNER_CASES = {
    "l=i0,r=j0": (1, 0, -1, -3, -3, -4, -5, -6),
    "l=i1,r=j0": (0, 8, 10, 12, 20, 20, 20, 20, 19, 26, 29, 32, 35),
    "l=i0,r=j1": (
        1, 10, 12, 20, 21, 22, 23, 22, 21, 31, 34, 37, 40, 37, 31, 29, 25, 21, 17,
    ),
    "l=i1,r=j1": (2, -1, -4, -5, -7, -9),
    "l=i0,l+r=k0": (2, 14, 11, 13, 13, 13, 13, 25, 13, 13),
    "l=i0,l+r=k1": (
        5, 15, 19, 22, 27, 31, 29, 41, 43, 45, 47, 49, 51, 53, 67, 71, 75, 79, 83,
    ),
    "l=i1,l+r=k0": (-3, 12, 13, 13, 15, 16, 17, 18, 30, 30, 30, 30),
    "l=i1,l+r=k1": (
        -4, 11, 15, 14, 11, 9, 14, 15, 16, 17, 18, 19, 20, 21, 22, 24, 27, 30,
    ),
    "r=j0,l+r=k0": (
        -4, 7, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 29, 33, 37, 41, 46, 43,
        40, 37, 34,
    ),
    "r=j0,l+r=k1": (1, 3, 3, 3, 3, 3, 2, 3, 4, 5, 6),
    "r=j1,l+r=k0": (1, 9, 15, 21, 27, 31, 29, 27, 25, 23, 21, 19, 17, 25, 31, 39, 38),
    "r=j1,l+r=k1": (3, 11, 10, 9, 8, 7, 6, 5, 4, 3, -3, -6, -9, 0, 0, 0, 0),
}


@pytest.mark.parametrize("s", CORNER_CASES.values(), ids=CORNER_CASES.keys())
def test_run_check_reads_every_kind_of_corner(s):
    check_run_check(s)


def test_the_run_check_alone_decides_a_concave_sequence_of_many_runs():
    """Every difference differs, so the 31 runs give more than m = 60
    triples of runs; the run check still decides, both ways."""
    concave = tuple(l * (120 - l) for l in range(61))
    assert len(_affine_runs(concave)) == 31
    assert _subadditive_violation(concave) is None
    assert subadditive_clause(concave) == ClauseResult(True)
    bumped = concave[:40] + (concave[40] + 100,) + concave[41:]
    assert _subadditive_violation(bumped) == (1, 39)
    assert subadditive_clause(bumped) == violated_at(1, 39)
    assert naive_first_subadditive_violation(bumped, 60) == (1, 39)
