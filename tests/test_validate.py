"""Certificate validation: accepts the genuine, names what it rejects."""

import copy

import pytest

import maxram.validate
from maxram.chromatic import grid_chromatic
from maxram.colorings import avoidance_coloring
from maxram.cover import MAX_TORUS_POINTS, CoverInstance, exact_cover
from maxram.cover import random_translates_cover
from maxram.io import (
    chromatic_certificate,
    periodic_coloring_certificate,
    torus_cover_certificate,
    write_json,
)
from maxram.metric import Baton
from maxram.validate import validate_certificate

from cert_fixtures import canonical_certificates


@pytest.fixture(scope="module")
def certs():
    return canonical_certificates()


def failing(cert, mutate):
    """Apply mutate to a deep copy and return the validation failures."""
    mutant = copy.deepcopy(cert)
    mutate(mutant)
    report = validate_certificate(mutant)
    assert not report.ok, "mutant was accepted"
    return " | ".join(report.failures)


# -- acceptance of the genuine articles ---------------------------------------


def test_all_canonical_certificates_validate(certs):
    for kind, cert in certs.items():
        report = validate_certificate(cert)
        assert report.kind == kind
        assert report.ok, (kind, report.failures)


def test_validation_from_a_file(tmp_path, certs):
    path = tmp_path / "cover.json"
    write_json(path, certs["torus_cover"])
    assert validate_certificate(str(path)).ok


# -- malformed input ------------------------------------------------------------


def test_unknown_kind_is_rejected():
    report = validate_certificate({"kind": "mystery"})
    assert not report.ok
    assert "unknown" in report.failures[0]


def test_non_object_and_missing_kind(tmp_path):
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]\n")
    report = validate_certificate(str(listy))
    assert not report.ok and "kind" in report.failures[0]
    report = validate_certificate({"m": 3})
    assert not report.ok and "unknown" in report.failures[0]


def test_missing_fields_are_malformed_not_crashes(certs):
    for kind, cert in certs.items():
        mutant = copy.deepcopy(cert)
        for key in list(mutant):
            if key != "kind":
                del mutant[key]
                break
        report = validate_certificate(mutant)
        assert not report.ok, kind
        assert report.failures[0].startswith("malformed:"), (kind, report.failures)


def test_wrong_types_are_malformed(certs):
    mutant = copy.deepcopy(certs["anchor_sequence"])
    mutant["p"] = "28,42"
    assert not validate_certificate(mutant).ok
    mutant = copy.deepcopy(certs["torus_cover"])
    mutant["size"] = "3"
    report = validate_certificate(mutant)
    assert not report.ok and "integer" in report.failures[0]


# -- named rejections per kind ----------------------------------------------------


def test_copy_embedding_rejections(certs):
    cert = certs["copy_embedding"]

    def bump_point(c):
        c["points"][1][0] = "2"

    assert "pair" in failing(cert, bump_point)
    assert "distances_checked" in failing(
        cert, lambda c: c.update(distances_checked=False)
    )
    assert "count" in failing(cert, lambda c: c["points"].pop())


def test_copy_list_rejections(certs):
    cert = certs["copy_list"]
    assert "count" in failing(cert, lambda c: c.update(count=c["count"] + 1))
    assert "distinct_supports" in failing(
        cert, lambda c: c.update(distinct_supports=False)
    )

    def bump(c):
        c["copies"][0][0][0] = "7"

    assert "copies[0]" in failing(cert, bump)

    def duplicate(c):
        c["copies"].append(c["copies"][0])
        c["count"] += 1

    assert "distinct_supports" in failing(cert, duplicate)


def test_anchor_sequence_rejections(certs):
    cert = certs["anchor_sequence"]
    assert "delta" in failing(cert, lambda c: c.update(delta="1"))
    assert "theta" in failing(cert, lambda c: c.update(theta="2"))
    assert "m" in failing(cert, lambda c: c.update(m=71))
    assert "q0" in failing(cert, lambda c: c.update(q0=25))
    assert "q: must exceed" in failing(cert, lambda c: c.update(q=26, q0=26))

    def bump_a(c):
        c["a"][1] = "1"

    assert "a: rebuild" in failing(cert, bump_a)

    def flip_clause(c):
        c["verification"]["subadditive"] = False

    assert "verification" in failing(cert, flip_clause)

    def wrong_p(c):
        c["p"] = [29, 42]
        c["m"] = 71

    assert "p" in failing(cert, wrong_p)


def test_anchor_fast_path_rejections(certs):
    from fractions import Fraction

    from maxram.anchors import build_anchor_sequence
    from maxram.io import anchor_sequence_certificate

    baton = Baton((Fraction(2), Fraction(3)))
    seq = build_anchor_sequence(baton)
    cert = anchor_sequence_certificate(baton, seq)
    assert validate_certificate(cert).ok
    assert "q0" in failing(cert, lambda c: c.update(q0=1))

    def break_a(c):
        c["a"][2] = "3/2"

    assert "fast path" in failing(cert, break_a)


def test_periodic_coloring_rejections(certs):
    cert = certs["periodic_coloring"]
    assert "class_count" in failing(cert, lambda c: c.update(class_count=5))
    assert "window" in failing(cert, lambda c: c.update(window="2"))

    def stretch_period(c):
        c["period"] = "3"

    assert "classes" in failing(cert, stretch_period)

    def move_box(c):
        c["classes"][0][0][0] = "1"

    assert "twice" in failing(cert, move_box)

    def weaken_space(c):
        c["distance_matrix"] = [["0", "1/2"], ["1/2", "0"]]

    assert "window: exceeds" in failing(cert, weaken_space)


# Verdicts on malformed and non-canonical coloring certificates, as
# (id, path to the edited field, new value, expected). None means the
# certificate still validates; a string is part of the reported failure.
BOX = ("classes", 1, 0, 0)
COLORING_VERDICTS = [
    ("json int coordinate", BOX, 1, None),
    ("zero over five", ("classes", 0, 0, 0), "0/5", None),
    ("leading zero", ("anchors", 1, 0), "01", None),
    ("bool coordinate", BOX, True, "expected rational, got bool"),
    # True == 1 with the same hash: a bool read after the int 1 is still a bool
    ("bool after int one", ("classes", 1), [[1], [True]], "expected rational, got bool"),
    ("off the lattice", BOX, "1/2", "box lattice"),
    ("past the period", BOX, "2", "[0, period)"),
    ("zero box", ("box_size",), "0", "need 0 < box_size"),
    ("negative box", ("box_size",), "-1", "need 0 < box_size"),
    ("classes not a list", ("classes",), 5, "classes must be a list"),
    ("class is an int", ("classes", 0), 5, "malformed"),
    ("vector is a string", ("classes", 0, 0), "0", "expected a coordinate list"),
    ("bool dim", ("dim",), True, "dim must be an integer"),
    ("huge dim", ("dim",), 10**6, "offset dimension mismatch"),
    ("float period", ("period",), 2.0, "expected rational"),
]


@pytest.mark.parametrize(
    "path, value, expected", [v[1:] for v in COLORING_VERDICTS],
    ids=[v[0] for v in COLORING_VERDICTS],
)
def test_coloring_verdicts_on_odd_literals(path, value, expected):
    """The certificate `color --metric <unit pair> --n 1` writes, edited."""
    pair = Baton.unit(1).as_metric_space()
    cert = periodic_coloring_certificate(avoidance_coloring(pair, n=1), pair)
    assert validate_certificate(cert).ok
    mutant = copy.deepcopy(cert)
    target = mutant
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    report = validate_certificate(mutant)
    if expected is None:
        assert report.ok, report.failures
    else:
        assert not report.ok
        assert expected in " | ".join(report.failures)


def test_chromatic_rejections(certs):
    cert = certs["chromatic"]
    assert "optimal" in failing(cert, lambda c: c.update(optimal=False))
    assert "lower_bound" in failing(cert, lambda c: c.update(lower_bound=3))

    def merge_colors(c):
        c["colors"] = [0, 1, 2, 0]
        c["color_count"] = 3

    assert "monochromatic" in failing(cert, merge_colors)

    def skip_color(c):
        c["colors"] = [0, 1, 2, 4]

    assert "color_count" in failing(cert, skip_color)

    def enlarge_distance(c):
        c["distance_matrix"] = [["0", "2"], ["2", "0"]]

    # a valid but different source space changes the hypergraph; the
    # re-solve then exposes the stale optimality claim
    assert "disagrees" in failing(cert, enlarge_distance)


def test_torus_cover_rejections(certs):
    cert = certs["torus_cover"]
    assert "size" in failing(cert, lambda c: c.update(size=4))
    assert "optimal" in failing(cert, lambda c: c.update(optimal=False))

    def drop_translate(c):
        c["translates"] = c["translates"][:-1]
        c["size"] -= 1

    assert "not a cover" in failing(cert, drop_translate)

    def shift_translate(c):
        c["translates"][0] = [5, 0]

    assert "outside the torus" in failing(cert, shift_translate)

    def grow_cube(c):
        c["d"] = 3

    assert "disagrees" in failing(cert, grow_cube)


def test_torus_point_cap_is_exact_at_its_boundary(certs):
    """Z_2^24 has exactly MAX_TORUS_POINTS points and is checked (it is
    no cover without translates); Z_2^25 is refused unchecked."""
    assert MAX_TORUS_POINTS == 2**24

    def torus(n):
        return lambda c: c.update(m=2, d=2, n=n, translates=[], size=0)

    at_cap = failing(certs["torus_cover"], torus(24))
    assert "not a cover" in at_cap and "points" not in at_cap
    assert "m, n: the torus has more than" in failing(certs["torus_cover"], torus(25))


def test_a_64_point_chromatic_certificate_validates_without_the_hypergraph(monkeypatch):
    """`chi --grid 3,3` against the unit 2-baton with a budget of 1000: the
    coloring is checked one color class at a time, and only grids of at
    most 16 points build the whole copy hypergraph, for their re-solve."""
    report = grid_chromatic(3, 3, Baton.unit(2).as_metric_space(), budget=1000)
    assert report.hypergraph.vertex_count == 64
    cert = chromatic_certificate(report)

    def refuse(*args):
        raise AssertionError("copy_hypergraph was called")

    monkeypatch.setattr(maxram.validate, "copy_hypergraph", refuse)
    assert validate_certificate(cert).ok


def test_nonoptimal_covers_must_carry_the_slice_bound():
    inst = CoverInstance(9, 2, 2)
    sol = exact_cover(inst, budget=10)
    assert sol.budget_exhausted and sol.lower_bound == 23
    cert = torus_cover_certificate(inst, sol)
    assert validate_certificate(cert).ok
    mutant = copy.deepcopy(cert)
    mutant["lower_bound"] = 21  # the counting bound
    report = validate_certificate(mutant)
    assert not report.ok
    assert "slice bound" in report.failures[0]


def test_underclaiming_optimality_is_rejected_on_small_instances():
    """A cover whose size meets the slice bound is optimal, so a
    certificate that says otherwise is rejected rather than taken at its
    word. A budgeted solve no longer writes one: up to 30 points every
    optimum meets the slice bound, and meeting it ends the search."""
    inst = CoverInstance(3, 2, 3)
    sol = exact_cover(inst, budget=10)
    assert sol.optimal and sol.size == sol.lower_bound == 5
    sol.optimal = False  # the lower bound stays the slice bound, 5
    report = validate_certificate(torus_cover_certificate(inst, sol))
    assert not report.ok
    assert "disagrees" in report.failures[0]


def test_an_optimal_claim_above_the_slice_bound_is_resolved_or_refuted():
    """(3,2,4) has 81 points, past the re-solve limit, and a minimum of 8.
    The seed-1 random cover padded to 16 translates and claimed optimal
    has a translate to spare, so it is refuted; the greedy cover of 9
    has none, and is not re-solved there."""
    inst = CoverInstance(3, 2, 4)
    sol = random_translates_cover(inst, seed=1)
    assert sol.size == 15
    sol.translates.append((0, 0, 0, 0))
    sol.size = sol.lower_bound = 16
    sol.optimal = True
    report = validate_certificate(torus_cover_certificate(inst, sol))
    assert not report.ok
    assert report.failures[0].startswith("optimal: translates[")
    assert report.failures[0].endswith("] is redundant")

    small = CoverInstance(3, 2, 3)  # 27 points: re-solved
    sol = exact_cover(small)
    sol.translates.append((0, 0, 0))
    sol.size = sol.lower_bound = 6
    report = validate_certificate(torus_cover_certificate(small, sol))
    assert report.failures == ("optimal: disagrees with an independent solve",)
