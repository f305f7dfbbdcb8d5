"""Certificate validation: accepts the genuine, names what it rejects."""

import copy
import itertools
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import maxram.validate
from maxram.chromatic import grid_chromatic
from maxram.colorings import PeriodicColoring, avoidance_coloring
from maxram.cover import MAX_TORUS_POINTS, CoverInstance, exact_cover, is_cover
from maxram.cover import slice_lower_bound
from maxram.cover import random_translates_cover
from maxram.cli import main
from maxram.io import (
    chromatic_certificate,
    dump_json,
    periodic_coloring_certificate,
    torus_cover_certificate,
    write_json,
)
from maxram.metric import Baton, FiniteMetricSpace, PointSet
from maxram.errors import ParseError
from maxram.io import format_rational, parse_rational
from maxram.validate import validate_certificate

from cert_fixtures import apply_mutation, canonical_certificates
from coloring_oracles import check_periodic_coloring_naive
from coloring_oracles import periodic_coloring_certificate_naive
from metric_oracles import chebyshev_distance


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
    assert failing(cert, lambda c: c.update(copies=[5])) == (
        "copies[0]: must be a list of points"
    )
    assert failing(cert, lambda c: c["copies"].append(None)) == (
        "copies[2]: must be a list of points"
    )


def test_anchor_sequence_rejections(certs):
    cert = certs["anchor_sequence"]
    assert "delta" in failing(cert, lambda c: c.update(delta="1"))
    assert "theta" in failing(cert, lambda c: c.update(theta="2"))
    assert "m" in failing(cert, lambda c: c.update(m=71))
    assert "q0" in failing(cert, lambda c: c.update(q0=25))
    assert "q: must exceed" in failing(cert, lambda c: c.update(q=26, q0=26))

    def bump_a(c):
        c["a"][1] += 1

    assert "a: rebuild" in failing(cert, bump_a)

    def flip_clause(c):
        c["verification"]["subadditive"] = False

    assert "verification" in failing(cert, flip_clause)

    def wrong_p(c):
        c["p"] = [29, 42]
        c["m"] = 71

    assert "p" in failing(cert, wrong_p)


# The failure each anchor value field gives when it is not what the
# writer states: integer numerators a over one integer denominator den >= 1.
VALUE_FAILURES = {
    "a": "a: numerators must be integers",
    "den": "den: must be an integer of at least 1",
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("a", "257/280"),  # the rational string form of the same value
        ("a", "257"),
        ("a", "1/0"),
        ("a", "1e3"),
        ("a", "1/2/3"),
        ("a", 1.5),
        ("a", 257.0),
        ("a", True),
        ("a", [257]),
        ("a", None),
        ("den", 0),
        ("den", -280),
        ("den", 280.0),
        ("den", "280"),
        ("den", True),
        ("den", [280]),
    ],
)
def test_anchor_value_literals_are_refused_by_name(certs, field, value):
    def replace(c):
        if field == "a":
            c["a"][5] = value
        else:
            c["den"] = value

    assert failing(certs["anchor_sequence"], replace) == VALUE_FAILURES[field]


def test_anchor_values_need_not_be_reduced(certs):
    """Any common denominator is accepted: the numerators and den are
    compared cross-multiplied, so a common factor of 3 changes nothing."""
    cert = copy.deepcopy(certs["anchor_sequence"])
    assert (cert["a"][5:7], cert["den"]) == ([257, 258], 280)
    cert["a"] = [3 * n for n in cert["a"]]
    cert["den"] *= 3
    assert validate_certificate(cert).ok


def test_anchor_fast_path_rejections(certs):
    from fractions import Fraction

    from maxram.anchors import build_anchor_sequence
    from maxram.io import anchor_sequence_certificate

    baton = Baton((Fraction(2), Fraction(3)))
    seq = build_anchor_sequence(baton)
    cert = anchor_sequence_certificate(baton, seq)
    assert validate_certificate(cert).ok
    assert "q0" in failing(cert, lambda c: c.update(q0=1))

    assert cert["den"] == 1

    def break_a(c):
        c["a"][2] = 3

    assert "a: rebuild on the fast path differs" in failing(cert, break_a)


# -- malformed anchor sequences, fuzzed -------------------------------------

# An int past the int string-conversion limit of 4,300 digits. json cannot
# write it, so a file states it by its digits in place of a marker string.
HUGE, HUGE_TEXT = 10**4400 - 1, "9" * 4400
HUGE_MARK = "@huge@"
FIELD_LABEL = re.compile(
    r"(a|den|p|m|q|q0|delta|theta|steps|verification|malformed): \S"
)
junk = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.lists(st.integers(-3, 3), max_size=2), min_size=1, max_size=2),
    st.sampled_from(["257/280", "1/2", "1/0", "1e3", "0x1"]),  # "p/q" among them
    st.text(alphabet="xy/.- e", max_size=4),  # no digit: never a rational
    st.just(HUGE_MARK),
)
ANCHOR_MUTATIONS = {
    "a": ("whole", "entry", "short", "long"),
    "p": ("whole", "entry", "short", "long"),
    "steps": ("whole", "entry", "short", "long"),
    "verification": ("whole", "entry", "short", "long"),
    "q": ("whole",),
    "den": ("whole", "missing"),
}


def mutate_anchor_field(cert, field, how, value, index) -> None:
    """Replace the field, or one entry of it, by value; delete it; or
    make it one entry short or long."""
    if how == "missing":
        del cert[field]
    elif how == "whole":
        cert[field] = value
    else:
        target = cert[field]
        keys = list(target) if isinstance(target, dict) else range(len(target))
        key = keys[index % len(keys)]
        if how == "entry":
            target[key] = value
        elif how == "short":
            del target[key]
        elif isinstance(target, dict):
            target["extra"] = True
        else:
            target.append(target[key])


@given(
    st.sampled_from(sorted(ANCHOR_MUTATIONS)).flatmap(
        lambda field: st.tuples(
            st.just(field), st.sampled_from(ANCHOR_MUTATIONS[field])
        )
    ),
    junk | st.integers(max_value=0),
    st.integers(0, 100),
)
@example(("a", "whole"), [], 0)
@example(("den", "whole"), 0, 0)
@example(("den", "whole"), -280, 0)
@example(("den", "missing"), 0, 0)
@example(("q", "whole"), HUGE_MARK, 0)
@example(("a", "entry"), "257/280", 5)
@example(("verification", "entry"), 1.0, 0)
@settings(max_examples=300, deadline=None)
def test_malformed_anchor_sequences_are_invalid_by_name(
    certs, tmp_path_factory, mutation, value, index
):
    """Each mutation reads invalid, every failure line labelled by a field
    or as malformed, and `maxram validate` on the file exits 1 with the
    same lines. A file holding an int past the conversion limit is not
    read: it exits 2 as invalid JSON."""
    field, how = mutation
    if field != "den" and isinstance(value, int) and not isinstance(value, bool):
        value = HUGE_MARK  # ints are valid entries of p, so only huge ones
    marked = copy.deepcopy(certs["anchor_sequence"])
    mutate_anchor_field(marked, field, how, value, index)
    assume(dump_json(marked) != dump_json(certs["anchor_sequence"]))  # True for True
    mutant = copy.deepcopy(certs["anchor_sequence"])
    mutate_anchor_field(mutant, field, how, HUGE if value == HUGE_MARK else value, index)
    report = validate_certificate(mutant)
    assert report.ok is False
    assert report.failures and all(map(FIELD_LABEL.match, report.failures)), report

    path = tmp_path_factory.getbasetemp() / "anchor_mutant.json"
    path.write_text(dump_json(marked).replace(f'"{HUGE_MARK}"', HUGE_TEXT))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", str(path)])
    if value == HUGE_MARK and how in ("whole", "entry"):
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith(f"error: {path}: invalid JSON: ")
    else:
        lines = "".join(f"  {failure}\n" for failure in report.failures)
        assert (code, err.getvalue()) == (1, "")
        assert out.getvalue() == "invalid: anchor_sequence\n" + lines


# -- malformed torus covers, fuzzed --------------------------------------------

COVER_LABEL = re.compile(
    r"(m|d|n|translates|translates\[\d+\]|size|optimal|lower_bound|malformed): \S"
)
PYTHON_ERROR_TEXT = re.compile(
    r"object|not supported|unhashable|argument|int\(\)|NoneType|Fraction\("
)
cover_junk = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.none(),
    st.lists(st.lists(st.integers(-3, 3), max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
COVER_MUTATIONS = [
    *((field, how) for field in ("m", "d", "n", "size", "optimal", "lower_bound")
      for how in ("whole", "missing")),
    ("translates", "whole"),
    ("translates", "entry"),
    ("translates", "coordinate"),
]


def mutate_cover_field(cert, field, how, value, index) -> None:
    """Replace the field, one translate or one coordinate by value, or
    delete the field; also one entry or one cell of a chromatic
    certificate's colors or matrix."""
    if how == "missing":
        del cert[field]
    elif how == "whole":
        cert[field] = value
    else:
        rows = cert[field]
        row = index % len(rows)
        if how == "entry":
            rows[row] = value
        else:
            rows[row][index // len(rows) % len(rows[row])] = value


@given(st.sampled_from(COVER_MUTATIONS), cover_junk, st.integers(0, 100))
@example(("translates", "entry"), None, 0)
@example(("translates", "entry"), 5, 1)
@example(("translates", "coordinate"), True, 0)
@example(("m", "whole"), {"3": 3}, 0)
@example(("optimal", "whole"), False, 0)
@example(("lower_bound", "whole"), [[3]], 0)
@settings(max_examples=300, deadline=None)
def test_malformed_torus_covers_are_invalid_by_name(
    certs, tmp_path_factory, mutation, value, index
):
    """Each mutation of the (3, 2, 2) cover reads invalid, every failure
    line labelled by a field or as malformed and none a Python error
    text, and `maxram validate` on the file exits 1 with the same lines
    and nothing on stderr."""
    field, how = mutation
    mutant = copy.deepcopy(certs["torus_cover"])
    mutate_cover_field(mutant, field, how, value, index)
    assume(dump_json(mutant) != dump_json(certs["torus_cover"]))  # optimal: True
    report = validate_certificate(mutant)
    assert report.ok is False
    assert report.failures and all(map(COVER_LABEL.match, report.failures)), report
    assert not any(map(PYTHON_ERROR_TEXT.search, report.failures)), report

    path = tmp_path_factory.getbasetemp() / "cover_mutant.json"
    path.write_text(dump_json(mutant))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", str(path)])
    lines = "".join(f"  {failure}\n" for failure in report.failures)
    assert (code, err.getvalue()) == (1, "")
    assert out.getvalue() == "invalid: torus_cover\n" + lines


# -- malformed chromatic certificates, fuzzed ----------------------------------

CHROMATIC_LABEL = re.compile(
    r"(k|n|colors|color_count|optimal|lower_bound|distance_matrix|malformed): \S"
)
chromatic_junk = st.one_of(
    cover_junk,
    st.integers(-3, 6),
    st.lists(st.integers(-1, 4), max_size=5),
    st.sampled_from(["0", "1", "2", "1/2", "-1", "1/0"]),
    st.lists(
        st.lists(st.sampled_from(["0", "1", "2", "1/2", 0, 1]), min_size=2, max_size=3),
        min_size=2,
        max_size=3,
    ),
)
CHROMATIC_MUTATIONS = [
    *((field, how) for field in ("k", "n", "color_count", "optimal", "lower_bound")
      for how in ("whole", "missing")),
    *((field, how) for field in ("colors", "distance_matrix")
      for how in ("whole", "entry", "missing")),
    ("distance_matrix", "coordinate"),  # one cell of the matrix
]


def rational_rows(rows) -> list[list[Fraction]] | None:
    """rows read as lists of rationals, or None when they are not a list
    of lists of rational literals."""
    if not isinstance(rows, list):
        return None
    if not all(map(isinstance, rows, itertools.repeat(list))):
        return None
    try:
        return [list(map(parse_rational, row)) for row in rows]
    except ParseError:
        return None


def restates(mutant, cert, field) -> bool:
    """Whether the mutant makes the certificate's claim in other words:
    the same JSON; the four colors relabeled by a bijection, which stays
    proper since each pair of points of {0,1}^2 lies at distance 1; or a
    matrix of other literals for the same rationals."""
    if dump_json(mutant) == dump_json(cert):
        return True
    if field not in mutant:
        return False
    value = mutant[field]
    if field == "colors":
        ints = isinstance(value, list) and {*map(type, value)} <= {int}
        return ints and sorted(value) == sorted(cert["colors"])
    if field == "distance_matrix":
        return rational_rows(value) == rational_rows(cert["distance_matrix"])
    return False


@given(st.sampled_from(CHROMATIC_MUTATIONS), chromatic_junk, st.integers(0, 100))
@example(("colors", "whole"), [0, 1, 2], 0)  # one point short
@example(("colors", "entry"), 3, 0)  # two points share color 3
@example(("colors", "entry"), True, 1)
@example(("k", "whole"), 0, 0)
@example(("n", "whole"), 3, 0)  # 8 grid points, 4 colors
@example(("color_count", "whole"), 5, 0)
@example(("lower_bound", "whole"), 3, 0)
@example(("optimal", "whole"), False, 0)
@example(("distance_matrix", "whole"), [["0", "2"], ["2", "0"]], 0)
@example(("distance_matrix", "whole"), [["0"]], 0)
@example(("distance_matrix", "entry"), ["0", "1", "1"], 0)
@example(("distance_matrix", "coordinate"), "1/2", 1)
@example(("distance_matrix", "coordinate"), {"0": 0, "": 0}, 0)  # named, not echoed
@settings(max_examples=300, deadline=None)
def test_malformed_chromatic_certificates_are_invalid_by_name(
    certs, tmp_path_factory, mutation, value, index
):
    """Each mutation of the {0,1}^2 certificate that does not restate it
    reads invalid, every failure line labelled by a field or as
    malformed and none a Python error text, and `maxram validate` on the
    file exits 1 with the same lines and nothing on stderr."""
    field, how = mutation
    cert = certs["chromatic"]
    mutant = copy.deepcopy(cert)
    mutate_cover_field(mutant, field, how, value, index)
    assume(not restates(mutant, cert, field))
    report = validate_certificate(mutant)
    assert report.ok is False
    assert report.failures and all(map(CHROMATIC_LABEL.match, report.failures)), report
    assert not any(map(PYTHON_ERROR_TEXT.search, report.failures)), report

    path = tmp_path_factory.getbasetemp() / "chromatic_mutant.json"
    path.write_text(dump_json(mutant))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", str(path)])
    lines = "".join(f"  {failure}\n" for failure in report.failures)
    assert (code, err.getvalue()) == (1, "")
    assert out.getvalue() == "invalid: chromatic\n" + lines


# -- malformed copy and coloring certificates, fuzzed ---------------------------

FUZZED_FIELDS = {
    "copy_embedding": ("distance_matrix", "points", "distances_checked"),
    "copy_list": ("distance_matrix", "copies", "count", "distinct_supports"),
    "periodic_coloring": (
        "dim", "period", "box_size", "classes", "class_count", "window", "anchors",
        "distance_matrix",
    ),
}
FUZZED_LABEL = re.compile(
    r"(distance_matrix|points|distances_checked|copies|copies\[\d+\]|count"
    r"|distinct_supports|dim|period|box_size|classes|class_count|window|anchors"
    r"|coloring|malformed): \S"
)
fuzzed_junk = chromatic_junk | st.sampled_from(["1e3", "0x1", "x/2", "2/1", "1/-1"])


def node_paths(obj, path=()):
    """The path of obj and of every list entry or dict value inside it."""
    yield path
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            yield from node_paths(value, path + (key,))


def states_true_copies(cert) -> bool:
    """Whether a copy_embedding or copy_list certificate, read naively,
    states true copies: the matrix and each copy are lists of rational
    lists, each copy's points are distinct, share one dimension and
    realize the matrix in the max norm, and the flags and count agree."""
    matrix = rational_rows(cert.get("distance_matrix"))
    if cert["kind"] == "copy_embedding":
        stated = [cert.get("points")]
        flags = cert.get("distances_checked") is True
    else:
        stated = cert.get("copies")
        stated = stated if isinstance(stated, list) else [None]
        flags = type(cert.get("count")) is int and cert["count"] == len(stated)
    copies = [rational_rows(points) for points in stated]
    if not flags or not matrix or None in copies:
        return False
    for points in copies:
        points = list(map(tuple, points))
        if (
            len(points) != len(matrix)
            or len(set(points)) != len(points)
            or len({*map(len, points)}) != 1
            or any(len(row) != len(matrix) for row in matrix)
            or any(
                chebyshev_distance(x, y) != d
                for x, row in zip(points, matrix)
                for y, d in zip(points, row)
            )
        ):
            return False
    if cert["kind"] == "copy_list":
        supports = [frozenset(map(tuple, points)) for points in copies]
        return cert.get("distinct_supports") is (len(set(supports)) == len(supports))
    return True


def states_a_true_coloring(cert) -> bool:
    """Whether the per-box oracle accepts a periodic_coloring certificate."""
    return naive_failures(cert) == ()


STATES_A_TRUE_CLAIM = {
    "copy_embedding": states_true_copies,
    "copy_list": states_true_copies,
    "periodic_coloring": states_a_true_coloring,
}


@given(
    st.sampled_from(sorted(FUZZED_FIELDS)).flatmap(
        lambda kind: st.tuples(st.just(kind), st.sampled_from(FUZZED_FIELDS[kind]))
    ),
    st.booleans(),
    fuzzed_junk,
    st.integers(0, 100),
)
@example(("copy_embedding", "points"), False, "1e3", 2)  # a bad literal
@example(("copy_list", "copies"), False, "1/0", 3)  # a zero denominator
@example(("copy_embedding", "distance_matrix"), False, None, 1)  # a null row
@example(("copy_list", "copies"), False, None, 2)  # a null point
@example(("periodic_coloring", "distance_matrix"), False, [["0"]], 0)  # one point
@example(("periodic_coloring", "period"), False, "1e3", 0)
@example(("periodic_coloring", "classes"), True, None, 0)
@settings(max_examples=400, deadline=None)
def test_malformed_copy_and_coloring_certificates_are_invalid_by_name(
    certs, tmp_path_factory, mutation, missing, value, index
):
    """Each deletion of a field of a copy_embedding, copy_list or
    periodic_coloring certificate, and each replacement of the field or of
    one node inside it that does not state a true claim, reads invalid,
    every failure line labelled by a field or as malformed and none a
    Python error text, and `maxram validate` on the file exits 1 with the
    same lines and nothing on stderr."""
    kind, field = mutation
    mutant = copy.deepcopy(certs[kind])
    if missing:
        del mutant[field]
    else:
        paths = list(node_paths(mutant))
        paths = [path for path in paths if path[:1] == (field,)]
        apply_mutation(mutant, paths[index % len(paths)], value)
    assume(not STATES_A_TRUE_CLAIM[kind](mutant))
    report = validate_certificate(mutant)
    assert report.ok is False
    assert report.failures and all(map(FUZZED_LABEL.match, report.failures)), report
    assert not any(map(PYTHON_ERROR_TEXT.search, report.failures)), report

    path = tmp_path_factory.getbasetemp() / f"{kind}_mutant.json"
    path.write_text(dump_json(mutant))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", str(path)])
    lines = "".join(f"  {failure}\n" for failure in report.failures)
    assert (code, err.getvalue()) == (1, "")
    assert out.getvalue() == f"invalid: {kind}\n" + lines

def test_periodic_coloring_rejections(certs):
    cert = certs["periodic_coloring"]
    assert "class_count" in failing(cert, lambda c: c.update(class_count=5))
    assert "window" in failing(cert, lambda c: c.update(window="2"))

    def stretch_period(c):
        c["period"] = "3"

    assert "classes" in failing(cert, stretch_period)

    def move_box(c):
        c["classes"][0][0][0] = 1

    assert "twice" in failing(cert, move_box)

    def weaken_space(c):
        c["distance_matrix"] = [["0", "1/2"], ["1/2", "0"]]

    assert "window: exceeds" in failing(cert, weaken_space)
    assert failing(cert, lambda c: c.update(distance_matrix=[["0"]])) == (
        "distance_matrix: the avoided space needs at least 2 points"
    )


# Verdicts on malformed and non-canonical coloring certificates, as
# (id, path to the edited field, new value, expected). None means the
# certificate still validates; a string is part of the reported failure.
# Boxes and anchors are JSON integers: any other index, a rational string
# that states an integer included, is refused by its type.
BOX = ("classes", 1, 0, 0)
NOT_INT = "box indices must be integers"
COLORING_VERDICTS = [
    ("json int coordinate", BOX, 1, None),  # the form the writer uses
    ("zero over five", ("classes", 0, 0, 0), "0/5", NOT_INT),
    ("leading zero", ("anchors", 1, 0), "01", NOT_INT),
    ("corner string", BOX, "1", NOT_INT),
    ("bool coordinate", BOX, True, NOT_INT),
    # True == 1 with the same hash: a bool read after the int 1 is still a bool
    ("bool after int one", ("classes", 1), [[1], [True]], NOT_INT),
    ("off the lattice", BOX, "1/2", NOT_INT),
    ("float coordinate", BOX, 1.5, NOT_INT),
    ("integral float", BOX, 1.0, NOT_INT),
    ("list coordinate", BOX, [1], NOT_INT),
    ("past the period", BOX, 2, "box indices must lie in [0, 2)"),
    ("negative index", ("anchors", 0, 0), -1, "box indices must lie in [0, 2)"),
    ("zero box", ("box_size",), "0", "need 0 < box_size"),
    ("negative box", ("box_size",), "-1", "need 0 < box_size"),
    ("classes not a list", ("classes",), 5, "classes must be a list"),
    ("class is an int", ("classes", 0), 5, "malformed: classes[0] must be a list"),
    ("vector is a string", ("classes", 0, 0), "0", "classes[0] must be a list of index"),
    ("anchor is a string", ("anchors", 1), "1", "anchors must be a list of index"),
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


SPACES = (
    Baton.unit(1).as_metric_space(),
    Baton.unit(2).as_metric_space(),
    FiniteMetricSpace.from_points(PointSet(1, ((0,), (Fraction(3, 2),)))),
)


def random_coloring_certificate(rng: random.Random) -> dict:
    """The certificate of a random small coloring. Most boxes go to a class
    whose window holds them, the rest to any class; a class left empty
    goes with its anchor."""
    box = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    dim = rng.randint(1, 3)
    cells = rng.randint(1, 4 if dim < 3 else 3)
    reach = rng.randint(1, cells)
    anchors = [
        tuple(rng.randrange(cells) for _ in range(dim))
        for _ in range(rng.randint(1, 5))
    ]
    classes = [[] for _ in anchors]
    for vec in itertools.product(range(cells), repeat=dim):
        fits = [
            i for i, a in enumerate(anchors)
            if all((c - x) % cells < reach for c, x in zip(vec, a))
        ]
        if not fits or rng.random() < 0.1:
            fits = range(len(anchors))
        classes[rng.choice(fits)].append(vec)
    kept = [i for i, vecs in enumerate(classes) if vecs]
    coloring = PeriodicColoring(
        dim=dim,
        period=cells * box,
        box_size=box,
        window=box * reach,
        window_anchors=tuple(anchors[i] for i in kept),
    )
    return periodic_coloring_certificate_naive(
        coloring, [classes[i] for i in kept], rng.choice(SPACES)
    )


def literal_value(literal) -> Fraction:
    """The rational a literal states, or 0 for one that states none."""
    try:
        return parse_rational(literal)
    except ParseError:
        return Fraction(0)


def index_value(c) -> int:
    """The box index c states, or 0 for a value that is not an int."""
    return c if type(c) is int else 0


def mutate_coloring_certificate(rng: random.Random, cert: dict) -> None:
    """Apply one random edit of a box, a coordinate, a class or a field;
    earlier edits may have broken any of them."""
    classes, anchors = cert["classes"], cert.get("anchors")
    if not isinstance(anchors, list):
        anchors = []
    box = literal_value(cert.get("box_size"))
    cells = literal_value(cert.get("period")) / box if box else 0
    literals = [
        lambda c: format_rational(index_value(c) * box),  # its corner string
        lambda c: rng.randint(0, 3),  # maybe in range
        lambda c: rng.choice([True, False]),
        lambda c: [c],
        lambda c: -rng.randint(1, 2),
        lambda c: int(cells) + rng.randint(0, 1),  # at or past the end
        lambda c: index_value(c) + rng.choice([0.0, 0.5]),  # a JSON float
        lambda c: rng.choice(["x", "1/0", "0/5", "01", None, 1.5, {}]),
    ]
    lists = [i for i, vecs in enumerate(classes) if isinstance(vecs, list)]
    boxes = [(i, j) for i in lists for j, vec in enumerate(classes[i])]
    vecs = [vec for i, j in boxes for vec in [classes[i][j]] if isinstance(vec, list)]
    vecs += [vec for vec in anchors if isinstance(vec, list)]
    edit = rng.choices(range(11), weights=(6, 2, 3, 2, 3, 1, 1, 1, 1, 1, 1))[0]
    if edit == 0 and any(vecs):  # one coordinate of a box or an anchor
        vec = rng.choice([vec for vec in vecs if vec])
        x = rng.randrange(len(vec))
        vec[x] = rng.choice(literals)(vec[x])
    elif edit == 1 and vecs:  # wrong dimension
        vec = rng.choice(vecs)
        if vec and rng.random() < 0.5:
            vec.pop()
        else:
            vec.append(0)
    elif edit == 2 and boxes and lists:  # doubled
        i, j = rng.choice(boxes)
        classes[rng.choice(lists)].append(copy.deepcopy(classes[i][j]))
    elif edit == 3 and boxes:  # missing
        i, j = rng.choice(boxes)
        del classes[i][j]
    elif edit == 4 and boxes:  # moved to another class
        i, j = rng.choice(boxes)
        classes[rng.choice(lists)].append(classes[i].pop(j))
    elif edit == 5 and classes:
        classes[rng.randrange(len(classes))] = []
    elif edit == 6 and boxes:  # a box that is not a coordinate list
        i, j = rng.choice(boxes)
        classes[i][j] = rng.choice(["0", 0, {}, {"0": 1}, "01"])
    elif edit == 7 and classes:  # a class that is not a list of boxes
        classes[rng.randrange(len(classes))] = rng.choice([5, "ab", {}, "", None])
    elif edit == 8 and anchors:
        del anchors[rng.randrange(len(anchors))]
    elif edit == 9:
        cert["class_count"] += rng.choice([-1, 1])
    else:  # a field that is out of range, of the wrong type, or missing
        key = rng.choice(["dim", "period", "window", "box_size", "anchors"])
        if rng.random() < 0.2:
            cert.pop(key, None)
        else:
            cert[key] = rng.choice([0, 4, "1", True, "1/2", "3", "-1"])


def naive_failures(cert) -> tuple[str, ...]:
    """The failure lines validate_certificate gives with the per-box oracle
    in place of its column checks."""
    try:
        return tuple(check_periodic_coloring_naive(cert))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return (f"malformed: {exc}",)


def test_column_checks_match_the_per_box_oracle_on_random_certificates():
    """3,000 random certificates, each edited up to three times: the
    verdict and every failure line, in order, match the oracle."""
    rng = random.Random(19)
    labels = set()
    for _ in range(3000):
        cert = random_coloring_certificate(rng)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            mutate_coloring_certificate(rng, cert)
        report = validate_certificate(cert)
        assert report.failures == naive_failures(cert), cert
        labels.update(failure.split(":")[0] for failure in report.failures)
    # Every kind of failure came up.
    assert labels >= {"malformed", "coloring", "classes", "anchors", "class_count"}


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


def test_a_lower_bound_above_the_resolved_chromatic_number_is_rejected():
    """`chi --grid 3,2` proves chi = 3. Moving vertex 0 to a fourth color
    keeps the coloring proper, and a certificate that then claims 4 as a
    lower bound without claiming optimality is refuted by the re-solve."""
    space = Baton.unit(3).as_metric_space()
    cert = chromatic_certificate(3, 2, space, grid_chromatic(3, 2, space))
    assert (cert["color_count"], cert["optimal"]) == (3, True)
    cert["colors"][0] = 3
    cert.update(color_count=4, optimal=False, lower_bound=4)
    report = validate_certificate(cert)
    assert report.failures == ("lower_bound: exceeds the chromatic number 3",)


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
    assert failing(cert, lambda c: c.update(translates=[None, [2]])) == (
        "translates[0]: must be a list of integers | translates[1]: outside the torus"
    )

    def quote_coordinate(c):
        c["translates"][1][0] = "1"

    assert failing(cert, quote_coordinate) == "translates[1]: must be a list of integers"

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
    space = Baton.unit(2).as_metric_space()
    cert = chromatic_certificate(3, 3, space, grid_chromatic(3, 3, space, budget=1000))
    assert len(cert["colors"]) == 64

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


def test_every_torus_of_at_most_30_points_has_a_cover_of_the_slice_bound():
    """Why an optimal claim above the slice bound is refuted up to 30
    points: on each torus Z_m^n with m^n <= 30 (m = 1 only at n = 1) and
    every 1 <= d <= m, the exact solve finds a cover of that size."""
    tori = [
        CoverInstance(m, d, n)
        for m in range(1, 31)
        for n in range(1, 5)
        if m**n <= 30 and (m >= 2 or n == 1)
        for d in range(1, m + 1)
    ]
    assert len(tori) == 486
    for inst in tori:
        sol = exact_cover(inst)
        assert sol.size == slice_lower_bound(inst), (inst.m, inst.d, inst.n)
        assert is_cover(inst, sol.translates)


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

    small = CoverInstance(3, 2, 3)  # 27 points: held to the slice bound
    sol = exact_cover(small)
    sol.translates.append((0, 0, 0))
    sol.size = sol.lower_bound = 6
    report = validate_certificate(torus_cover_certificate(small, sol))
    assert report.failures == ("optimal: disagrees with the slice bound",)
