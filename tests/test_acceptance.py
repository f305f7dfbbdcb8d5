"""Acceptance gate: one end-to-end check per shipped guarantee.

Each test prints a single ``ACCEPTANCE C<i> <name>: PASS`` (or FAIL) line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them. The checks
exercise the library through its public surface only, at full precision,
with explicit runtime ceilings where responsiveness is part of the
contract.
"""

import copy
import functools
import itertools
import math
import random
import time
from fractions import Fraction

from cert_fixtures import (
    apply_mutation,
    canonical_certificates,
    leaf_paths,
    mutate_leaf,
)
from cover_oracles import counting_lower_bound, naive_minimum_cover
from metric_generators import random_metric_space
from metric_oracles import chebyshev_distance
from maxram.anchors import build_anchor_sequence, verify_anchor_sequence
from maxram.chromatic import grid_chromatic
from maxram.colorings import cube_tiling_coloring, pigeonhole_lower_bound
from maxram.cover import (
    CoverInstance,
    exact_cover,
    greedy_cover,
    random_cover_within_expectation,
    random_translates_cover,
    slice_lower_bound,
    torus_points,
)
from maxram.extraction import (
    GridSubset,
    anchor_set_one_alpha,
    extract_general_baton,
    extract_unit_baton,
)
from maxram.metric import Baton, PointSet, find_copies, frechet_embed
from maxram.rational import ceil_div
from maxram.validate import validate_certificate


def criterion(num: int, name: str):
    """Print the one-line verdict for a gate check, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE C{num} {name}: FAIL")
                raise
            print(f"ACCEPTANCE C{num} {name}: PASS")

        return wrapper

    return deco


def cells(k: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(k + 1), repeat=n))


@criterion(1, "unit-extraction-exhaustive-small-grid")
def test_c01_every_dense_plane_subset_yields_a_copy():
    """All 126 five-point subsets of {0..2}^2 produce a two-step unit
    baton copy, and every copy reappears in the full copy enumeration."""
    k, n = 2, 2
    started = time.perf_counter()
    baton_space = Baton.unit(k).as_metric_space()
    checked = 0
    for combo in itertools.combinations(cells(k, n), k**n + 1):
        subset = GridSubset(n=n, k=k, elems=frozenset(combo))
        emb = extract_unit_baton(subset)
        enumerated = set(find_copies(baton_space, emb.points))
        assert emb.indices in enumerated, combo
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 126
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "unit-extraction-randomized")
def test_c02_random_dense_subsets_yield_copies():
    """1000 random dense subsets per shape, all extractions succeed and
    the extracted points realize consecutive gaps of exactly 1."""
    rng = random.Random(20_42)
    started = time.perf_counter()
    failures = 0
    for k, n in [(2, 3), (3, 2), (2, 4)]:
        grid = cells(k, n)
        for _ in range(1000):
            elems = rng.sample(grid, k**n + 1)
            emb = extract_unit_baton(GridSubset(n=n, k=k, elems=frozenset(elems)))
            mapped = emb.mapped_points()
            for s, t in itertools.combinations(range(k + 1), 2):
                if chebyshev_distance(mapped[s], mapped[t]) != t - s:
                    failures += 1
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert elapsed < 30.0, f"took {elapsed:.3f}s"


@criterion(3, "full-grid-below-threshold-has-no-copies")
def test_c03_grid_of_exactly_k_to_the_n_points_has_no_copy():
    """{0..k-1}^n has k^n points, one short of the extraction threshold,
    and indeed contains no copy of the k-step unit baton."""
    for k in range(1, 4):
        baton_space = Baton.unit(k).as_metric_space()
        for n in range(1, 4):
            points = PointSet(
                n,
                tuple(
                    tuple(Fraction(c) for c in p)
                    for p in itertools.product(range(k), repeat=n)
                ),
            )
            assert find_copies(baton_space, points) == [], (k, n)


@criterion(4, "unit-distance-grid-chromatic")
def test_c04_unit_grid_needs_two_to_the_n_colors():
    """Forbidding one unit gap on {0,1}^n forces 2^n colors: the whole
    grid is a clique, and the solver certifies it as such."""
    started = time.perf_counter()
    for n in range(1, 4):
        report = grid_chromatic(1, n)
        cert = report.certificate
        assert cert.color_count == 2**n, n
        assert cert.optimal, n
        assert cert.lower_bound_witness == f"clique:{2**n}", n
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.3f}s"


@criterion(5, "cube-tiling-distance-one-audit")
def test_c05_cube_coloring_has_no_unit_distance_pair():
    """Exhaustive half-integer audit of the 2^n cube coloring: no probed
    pair at Chebyshev distance exactly 1 shares a color, for n <= 4.

    One period is [0,2)^n; colors are constant on half-open unit boxes,
    so probing box corners and centers (half-integer points) against all
    half-integer offsets of max-norm exactly 1 covers every relative
    position of two boxes that could realize the distance.
    """
    started = time.perf_counter()
    half = Fraction(1, 2)
    for n in range(1, 5):
        coloring = cube_tiling_coloring(n)
        assert len(coloring.classes) == 2**n
        probes = list(itertools.product([j * half for j in range(4)], repeat=n))
        offsets = [
            o
            for o in itertools.product(
                [-1, -half, Fraction(0), half, Fraction(1)], repeat=n
            )
            if max(abs(c) for c in o) == 1
        ]
        assert len(offsets) == 5**n - 3**n

        cache: dict[tuple, int] = {}

        def color(point) -> int:
            key = tuple(c % 2 for c in point)
            if key not in cache:
                cache[key] = coloring.color_of(key)
            return cache[key]

        for x in probes:
            cx = color(x)
            for o in offsets:
                y = tuple(a + b for a, b in zip(x, o))
                assert color(y) != cx, (n, x, o)
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0, f"took {elapsed:.3f}s"


@criterion(6, "anchor-sequence-clauses")
def test_c06_random_batons_build_verified_anchor_sequences():
    """50 random rational batons, up to three steps in (0, 4], all build
    anchor sequences that pass every verification clause.

    Step menus keep denominators small (<= 3, and <= 2 at three steps) so
    the faithful construction's index range stays in the tens of
    thousands; the approximation pipeline is exercised on every draw.
    """
    menu_two = [
        Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
        Fraction(4, 3), Fraction(3, 2), Fraction(5, 3), Fraction(2),
        Fraction(7, 3), Fraction(5, 2), Fraction(8, 3), Fraction(3),
        Fraction(10, 3), Fraction(7, 2), Fraction(11, 3), Fraction(4),
    ]
    menu_three = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
    rng = random.Random(66)
    failures = []
    for _ in range(50):
        k = rng.randint(1, 3)
        menu = menu_three if k == 3 else menu_two
        steps = tuple(rng.choice(menu) for _ in range(k))
        baton = Baton(steps)
        seq = build_anchor_sequence(baton, faithful=True)
        report = verify_anchor_sequence(seq, baton)
        if not report.ok:
            failures.append((steps, report))
    assert failures == []


@criterion(7, "one-alpha-anchor-extraction")
def test_c07_one_alpha_anchor_sets_are_tight_and_extract():
    """For alpha in {3/2, 2, 5/2}: the anchor set has ceil(alpha) + 2
    values; on the line the whole set yields a (1, alpha) copy, and in
    the plane 500 random subsets just past the threshold all do."""
    rng = random.Random(7_77)
    for alpha in [Fraction(3, 2), Fraction(2), Fraction(5, 2)]:
        anchors = anchor_set_one_alpha(alpha)
        ceil_alpha = ceil_div(alpha.numerator, alpha.denominator)
        assert len(anchors.values) == ceil_alpha + 2
        baton = Baton((Fraction(1), alpha))

        line = PointSet(1, tuple((v,) for v in anchors.values))
        emb = extract_general_baton(line, baton, anchors)
        assert len(emb.indices) == 3

        top = len(anchors.values) - 1
        plane = list(itertools.product(anchors.values, repeat=2))
        need = top**2 + 1
        failures = 0
        for _ in range(500):
            sample = rng.sample(plane, need)
            subset = PointSet(2, tuple(sample))
            emb = extract_general_baton(subset, baton, anchors)
            if len(emb.indices) != 3:
                failures += 1
        assert failures == 0, alpha


@criterion(8, "pigeonhole-bound-consistency")
def test_c08_pigeonhole_bound_formula_and_exact_runs():
    """pigeonhole_lower_bound matches ceil((k+1)^n / k^n) everywhere up
    to k, n = 6, and no completed exact run ever dips below it."""
    for k in range(1, 7):
        for n in range(1, 7):
            assert pigeonhole_lower_bound(k, n) == ceil_div((k + 1) ** n, k**n)
    for k, n in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
        report = grid_chromatic(k, n)
        bound = pigeonhole_lower_bound(k, n)
        assert report.pigeonhole == bound
        assert report.certificate.optimal, (k, n)
        assert report.certificate.color_count >= bound, (k, n)


@criterion(9, "random-cover-expectation")
def test_c09_random_covers_meet_the_expectation_bound():
    """Randomized covers of the mod-3 torus by 2-cubes land within the
    expectation guarantee floor(n ln2 (3/2)^n) + ceil((3/2)^n) inside
    1000 seed retries, and actually cover every point."""
    expected_bound = {2: 6, 3: 11, 4: 20}
    for n in [2, 3, 4]:
        inst = CoverInstance(3, 2, n)
        s = math.floor(n * math.log(2) * 1.5**n)
        allowance = ceil_div(3**n, 2**n)
        assert s + allowance == expected_bound[n]

        sol = None
        for seed in range(1000):
            candidate = random_translates_cover(inst, seed)
            assert candidate.s_random == s
            if candidate.size <= expected_bound[n]:
                sol = candidate
                break
        assert sol is not None, f"no seed met the bound at n={n}"

        wrapped, attempts, met = random_cover_within_expectation(inst, seed=0)
        assert met and attempts <= 1000 and wrapped.size <= expected_bound[n]

        translates = [tuple(t) for t in sol.translates]
        for p in torus_points(inst):
            assert any(
                all((p[i] - t[i]) % 3 in (0, 1) for i in range(n))
                for t in translates
            ), (n, p)


@criterion(10, "cover-solver-oracles")
def test_c10_cover_solver_against_its_oracles():
    """The exact cover solver against three oracles: the certified small
    torus values, the counting/greedy sandwich across every instance up
    to 81 points (with budgeted runs at 3^8 = 6561), and naive subset
    enumeration wherever that enumeration is feasible."""
    # Certified smallest cases: 2 cubes cover the 3-line, 3 the 3-torus.
    for n, value in [(1, 2), (2, 3)]:
        inst = CoverInstance(3, 2, n)
        sol = exact_cover(inst)
        assert sol.optimal and sol.size == value
        assert naive_minimum_cover(inst).size == value

    # Counting <= exact <= greedy on every instance with at most 81
    # points; the solve completes, (9,2,2) included, with no node cap.
    for n in range(1, 7):
        for m in range(2, 10):
            if m**n > 81:
                continue
            for d in range(1, m + 1):
                inst = CoverInstance(m, d, n)
                e = exact_cover(inst)
                g = greedy_cover(inst)
                assert counting_lower_bound(inst) <= e.size <= g.size, (m, d, n)
                assert e.optimal, (m, d, n)
                if d == 1:
                    assert e.size == m**n, (m, d, n)
    # (9,2,2): counting bound 21, greedy 25; the local search meets the
    # slice bound, 23.
    assert exact_cover(CoverInstance(9, 2, 2)).size == 23

    # The sandwich holds under a node budget too, up to 6561 points.
    for m, d, n, budget in [(9, 2, 2, 50_000), (3, 2, 8, 500)]:
        inst = CoverInstance(m, d, n)
        e = exact_cover(inst, budget=budget)
        g = greedy_cover(inst)
        lb = counting_lower_bound(inst)
        assert lb <= e.size <= g.size, (m, d, n)
        assert e.lower_bound >= lb

    # Exactly solvable boundary instances at and near 6561 points.
    for m, d, n in [(27, 9, 2), (81, 27, 2)]:
        inst = CoverInstance(m, d, n)
        e = exact_cover(inst)
        assert e.optimal and e.size == counting_lower_bound(inst) == 9

    # Naive enumeration agreement wherever enumeration is feasible
    # (minimum covers of size ~25+ make subset enumeration explode).
    feasible = (
        [(m, d, 1) for m in range(2, 9) for d in range(1, m + 1)]
        + [(m, d, 2) for m in (2, 3, 4) for d in range(1, m + 1)]
        + [(2, d, 3) for d in (1, 2)]
        + [(3, 2, 3), (3, 3, 3)]
    )
    for m, d, n in feasible:
        inst = CoverInstance(m, d, n)
        naive = naive_minimum_cover(inst).size
        assert exact_cover(inst).size == naive, (m, d, n)
        assert slice_lower_bound(inst) <= naive, (m, d, n)


@criterion(11, "row-embedding-exactness")
def test_c11_row_embedding_reproduces_every_distance():
    """200 random exact metric spaces on up to 8 points embed by matrix
    rows with zero distance error."""
    rng = random.Random(11)
    for _ in range(200):
        space = random_metric_space(rng, rng.randint(1, 8))
        emb = frechet_embed(space)
        mapped = emb.mapped_points()
        for a, b in itertools.combinations(range(space.size), 2):
            assert chebyshev_distance(mapped[a], mapped[b]) == space.dist[a][b]


@criterion(12, "certificate-mutation-audit")
def test_c12_every_single_field_mutation_is_rejected():
    """Walk every leaf of one canonical certificate per kind, apply the
    single-field mutation, and demand the validator reject all of them."""
    certs = canonical_certificates()
    assert set(certs) == {
        "copy_embedding",
        "copy_list",
        "anchor_sequence",
        "periodic_coloring",
        "chromatic",
        "torus_cover",
    }
    total = 0
    accepted = []
    for kind, cert in certs.items():
        assert validate_certificate(cert).ok, kind
        for path, value in leaf_paths(cert):
            mutant = mutate_leaf(value)
            if mutant is None:
                continue
            mutated = copy.deepcopy(cert)
            apply_mutation(mutated, path, mutant)
            report = validate_certificate(mutated)
            total += 1
            if report.ok:
                accepted.append((kind, path))
    assert total > 100
    assert accepted == [], accepted
