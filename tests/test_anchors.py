"""Anchor sequences: combination sets, rational approximation, verification."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxram.anchors import (
    AnchorSequence,
    DirichletWitness,
    _first_subadditive_violation,
    _threshold_q0,
    anchor_sequence_at,
    approximation_bound_holds,
    build_anchor_sequence,
    dirichlet_approx,
    gamma_set,
    scaled_round,
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


# -- gamma_set ----------------------------------------------------------


def test_gamma_set_enumerates_bounded_combinations():
    g = gamma_set(Baton((F(1), F(3, 2))))
    assert g.values == (F(0), F(1), F(3, 2), F(2), F(5, 2))
    assert g.witnesses == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))
    assert g.gamma_next == 3


def test_gamma_set_keeps_the_lexicographically_least_witness():
    g = gamma_set(Baton((F(1), F(2))))
    assert g.values == (F(0), F(1), F(2), F(3))
    # 2 = 2*1 = 1*2 and 3 = 3*1 = 1+2; the smaller coefficient tuple wins
    assert g.witnesses == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert g.gamma_next == 4


def test_gamma_set_single_step():
    g = gamma_set(Baton((F(2, 3),)))
    assert g.values == (F(0), F(2, 3))
    assert g.gamma_next == F(4, 3)


def test_gamma_set_rejects_empty_baton():
    with pytest.raises(PreconditionError):
        gamma_set(Baton(()))


@given(small_batons())
@settings(max_examples=60, deadline=None)
def test_gamma_set_values_are_sorted_and_bracketed(baton):
    g = gamma_set(baton)
    total = sum(baton.steps)
    assert g.values[0] == 0
    assert all(a < b for a, b in zip(g.values, g.values[1:]))
    assert g.values[-1] == total  # the all-ones combination is admissible
    assert g.gamma_next > total
    for value, coeffs in zip(g.values, g.witnesses):
        assert sum(d * s for d, s in zip(coeffs, baton.steps)) == value


# -- rounding and the approximation bound --------------------------------


def test_round_half_up_breaks_ties_upward():
    assert scaled_round(1, F(1, 2)) == 1
    assert scaled_round(1, F(-1, 2)) == 0
    assert scaled_round(1, F(3, 2)) == 2
    assert scaled_round(1, F(5, 4)) == 1
    assert scaled_round(1, F(7)) == 7
    assert scaled_round(27, F(3, 2)) == 41  # 40.5 rounds up


def test_approximation_bound_is_exact():
    # |3/2 - p/q| at q = 27 is 1/54, and (1/54)^2 * 27^3 = 27/4 >= 1
    assert not approximation_bound_holds(F(1, 54), 27, 2)
    assert approximation_bound_holds(F(0), 27, 2)
    assert approximation_bound_holds(F(1, 100), 4, 2)


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
    w = dirichlet_approx(steps, q0)
    assert (w.q, w.numerators) == (q, numerators)


def test_dirichlet_rejects_q_27_for_the_half_integer_pair():
    """27 * 3/2 rounds to 41 at error 1/54, which fails the bound, so the
    scan from 26 must land on 28."""
    w27 = DirichletWitness(27, tuple(scaled_round(27, s) for s in (F(1), F(3, 2))))
    err = w27.errors((F(1), F(3, 2)))
    assert err == (F(0), F(1, 54))
    assert not approximation_bound_holds(err[1], 27, 2)
    assert dirichlet_approx((F(1), F(3, 2)), 26).q == 28


def test_dirichlet_rejects_bad_steps():
    with pytest.raises(PreconditionError):
        dirichlet_approx((), 1)
    with pytest.raises(PreconditionError):
        dirichlet_approx((F(0),), 1)


@given(small_batons(), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_dirichlet_result_always_satisfies_its_own_bound(baton, q0):
    w = dirichlet_approx(baton.steps, q0)
    assert w.q > q0
    for e in w.errors(baton.steps):
        assert approximation_bound_holds(e, w.q, baton.k)


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


def integer_batons():
    return st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda steps: Baton(tuple(F(v) for v in steps))
    )


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
    assert seq.a == tuple(F(l) for l in range(6))
    assert seq.delta == 1
    assert seq.theta == F(5, 2)
    assert seq.anchor_set.marks == (0, 2, 5)
    assert seq.anchor_set.marked_steps() == (F(2), F(3))


def test_faithful_single_unit_step():
    seq = build_anchor_sequence(Baton((F(1),)), faithful=True)
    assert (seq.q, seq.q0, seq.p, seq.m) == (4, 3, (4,), 4)
    assert seq.a == (F(0), F(5, 8), F(3, 4), F(7, 8), F(1))
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
        assert scaled_round(seq.q, gamma) == index
        assert seq.a[index] == gamma
    assert seq.anchor_set.marked_steps() == baton.steps


def test_block_interpolation_gaps():
    """Inside a block consecutive values differ by delta/(2m); the first
    step into a block stays above delta/2."""
    seq = build_anchor_sequence(Baton((F(1), F(3, 2))), faithful=True)
    unit = seq.delta / (2 * seq.m)
    boundaries = [0, 28, 42, 56, 70]
    for lo, hi in zip(boundaries, boundaries[1:]):
        for l in range(lo + 2, hi + 1):
            assert seq.a[l] - seq.a[l - 1] == unit
        assert seq.a[lo + 1] - seq.a[lo] > seq.delta / 2


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
    assert seq.anchor_set.marked_steps() == baton.steps
    assert seq.anchor_set.values == seq.a


# -- AnchorSequence validation ------------------------------------------------


def test_anchor_sequence_field_validation():
    good = dict(
        p=(2,), m=2, a=(F(0), F(1, 2), F(1)), delta=F(1), theta=F(1), q0=1, q=2
    )
    AnchorSequence(**good)
    with pytest.raises(PreconditionError, match="positive integers"):
        AnchorSequence(**{**good, "p": (0,), "m": 0, "a": (F(0),)})
    with pytest.raises(PreconditionError, match="sum"):
        AnchorSequence(**{**good, "m": 3})
    with pytest.raises(PreconditionError, match="entries"):
        AnchorSequence(**{**good, "a": (F(0), F(1))})
    with pytest.raises(PreconditionError, match="q must"):
        AnchorSequence(**{**good, "q": 0})


# -- verification clauses -----------------------------------------------------


def seq_for(baton, **overrides):
    base = dict(delta=F(1), theta=F(1), q0=1)
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
    clauses = report.clauses()
    assert set(clauses) == {
        "monotonic",
        "subadditive",
        "anchored",
        "index_increasing",
        "index_linear",
    }
    assert all(bool(c) for c in clauses.values())


# -- the subadditivity sweep ---------------------------------------------------


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
    assert _first_subadditive_violation(a, m) == naive_first_subadditive_violation(a, m)


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
    assert _first_subadditive_violation(a, m) == naive_first_subadditive_violation(a, m)


def test_lane_sweep_sees_both_outcomes():
    concave = tuple(F(l * (120 - l), 7) for l in range(61))
    assert _first_subadditive_violation(concave, 60) is None
    bumped = concave[:40] + (concave[40] + 20,) + concave[41:]
    assert _first_subadditive_violation(bumped, 60) == (1, 39)
    assert naive_first_subadditive_violation(bumped, 60) == (1, 39)


def test_sweep_is_exact_above_int64():
    """Numerators past 2^63 sit in wider lanes; the result is unchanged."""
    big = F(2**63)
    a = (F(0), F(2**61), big)
    assert _first_subadditive_violation(a, 2) == (1, 1)
    ok = (F(0), F(2**61), F(2**62))
    assert _first_subadditive_violation(ok, 2) is None
