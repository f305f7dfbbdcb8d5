"""JSON artifact formats: canonical dumps, parsing, certificate shapes."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxram.cover import CoverInstance, exact_cover
from maxram.errors import ParseError, PreconditionError
from maxram.io import (
    copy_list_certificate,
    dump_json,
    matrix_to_obj,
    metric_space_from_obj,
    point_set_from_obj,
    read_json,
    torus_cover_certificate,
    vec_from_obj,
    vec_to_obj,
    write_json,
)
from maxram.metric import Baton, CopyEmbedding, PointSet, find_copies
from maxram.validate import validate_certificate

from cert_fixtures import canonical_certificates

F = Fraction


def test_vec_round_trip():
    vec = (F(0), F(-3, 2), F(7))
    assert vec_to_obj(vec) == ["0", "-3/2", "7"]
    assert vec_from_obj(vec_to_obj(vec), "vec") == vec
    with pytest.raises(ParseError, match=r"^vec: expected a list of rationals$"):
        vec_from_obj("not a list", "vec")
    with pytest.raises(ParseError, match=r"^vec: bad rational literal 'x'$"):
        vec_from_obj(["1", "x"], "vec")


def test_dump_json_is_canonical():
    a = dump_json({"b": 1, "a": [2, 3]})
    b = dump_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-2, 2)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(["", "é", "\u2603", "\U0001f600", "\\", '"', "\n\t\x00\x7f"])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.lists(st.text(max_size=3), max_size=3), max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=25,
)


STRING_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"')
NAN = object()


def comparable(value):
    """value as json.loads gives it back: tuples become lists, and every
    NaN becomes one marker, so that == holds after a round trip."""
    if isinstance(value, (list, tuple)):
        return [comparable(v) for v in value]
    if isinstance(value, dict):
        return {k: comparable(v) for k, v in value.items()}
    if isinstance(value, float) and value != value:
        return NAN
    return value


@given(JSON_VALUES)
@settings(max_examples=400, deadline=None)
@example({"b": [True, 1, 1.0, False, 0], "a": {"x": [], "y": {}, "z": [[]]}})
@example([["a", "b"], [], ["é"], [1]])
@example([["a"], ("b",)])
@example([[["1/2", "0"]], [["\u2603"]]])
@example("top-level string")
def test_dump_json_is_compact_sorted_json(value):
    text = dump_json(value)
    assert text == json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"
    assert comparable(json.loads(text)) == comparable(value)
    tokens = STRING_LITERAL.sub('""', text)
    assert tokens.endswith("\n")
    assert not any(c.isspace() for c in tokens[:-1]), text


def test_dump_json_rejects_what_json_cannot_write():
    with pytest.raises(TypeError):
        dump_json({"a": {1, 2}})
    with pytest.raises(TypeError):
        dump_json([Fraction(1, 2)])


def test_write_and_read_json(tmp_path):
    path = tmp_path / "artifact.json"
    write_json(path, {"kind": "demo", "x": ["1/2"]})
    assert read_json(path) == {"kind": "demo", "x": ["1/2"]}
    bad = tmp_path / "bad.json"
    for text in ("{nope", "[" * 100_000, "[" + "9" * 5000 + "]"):
        bad.write_text(text)
        with pytest.raises(ParseError, match="invalid JSON"):
            read_json(bad)


def test_metric_space_from_matrix_and_points():
    space = Baton.unit(2).as_metric_space()
    rebuilt = metric_space_from_obj({"distance_matrix": matrix_to_obj(space)})
    assert rebuilt == space
    from_points = metric_space_from_obj({"points": [["0"], ["1"], ["2"]]})
    assert from_points == space


def test_distance_matrix_wins_over_points():
    obj = {
        "distance_matrix": matrix_to_obj(Baton.unit(1).as_metric_space()),
        "points": [["0"], ["5"]],
    }
    assert metric_space_from_obj(obj).dist[0][1] == 1


def test_metric_space_parse_errors():
    with pytest.raises(ParseError):
        metric_space_from_obj([])
    with pytest.raises(ParseError):
        metric_space_from_obj({})
    with pytest.raises(ParseError):
        metric_space_from_obj({"distance_matrix": []})
    with pytest.raises(PreconditionError):
        metric_space_from_obj({"distance_matrix": [["0", "1"], ["2", "0"]]})


def test_point_set_parse_errors():
    assert point_set_from_obj({"points": [["0", "1"]]}).dim == 2
    with pytest.raises(ParseError):
        point_set_from_obj({})
    with pytest.raises(ParseError):
        point_set_from_obj({"points": []})


def test_certificates_carry_only_checkable_fields():
    certs = canonical_certificates()
    assert set(certs["copy_embedding"]) == {
        "kind",
        "distance_matrix",
        "points",
        "distances_checked",
    }
    assert set(certs["copy_list"]) == {
        "kind",
        "distance_matrix",
        "copies",
        "count",
        "distinct_supports",
    }
    assert set(certs["anchor_sequence"]) == {
        "kind",
        "steps",
        "p",
        "m",
        "q",
        "q0",
        "delta",
        "theta",
        "a",
        "den",
        "verification",
    }
    # advisory output (warnings, witnesses, budget flags) must stay out
    assert set(certs["periodic_coloring"]) == {
        "kind",
        "dim",
        "period",
        "box_size",
        "classes",
        "class_count",
        "window",
        "anchors",
        "distance_matrix",
    }
    assert set(certs["chromatic"]) == {
        "kind",
        "k",
        "n",
        "distance_matrix",
        "colors",
        "color_count",
        "optimal",
        "lower_bound",
    }
    assert set(certs["torus_cover"]) == {
        "kind",
        "m",
        "d",
        "n",
        "translates",
        "size",
        "optimal",
        "lower_bound",
    }


def test_copy_list_certificate_computes_support_distinctness():
    space = Baton.unit(1).as_metric_space()
    points = PointSet(1, ((F(0),), (F(1),)))
    both_orders = [CopyEmbedding(space, points, t) for t in find_copies(space, points)]
    assert len(both_orders) == 2
    cert = copy_list_certificate(space, both_orders)
    assert cert["distinct_supports"] is False
    one = copy_list_certificate(space, both_orders[:1])
    assert one["distinct_supports"] is True


def test_torus_cover_certificate_of_a_budgeted_solve_still_validates():
    """Instances too large to re-solve only need internal consistency."""
    inst = CoverInstance(9, 2, 2)
    sol = exact_cover(inst, budget=10)
    assert sol.budget_exhausted
    cert = torus_cover_certificate(inst, sol)
    assert "budget_exhausted" not in cert
    report = validate_certificate(cert)
    assert report.ok, report.failures


def test_certificate_dumps_are_byte_identical(tmp_path):
    certs = canonical_certificates()
    again = canonical_certificates()
    for kind, cert in certs.items():
        assert dump_json(cert) == dump_json(again[kind]), kind


def test_certificates_in_the_indented_layout_still_validate(tmp_path):
    """Certificates written before dumps became compact, with a two-space
    indent, validate as their compact dumps do."""
    for kind, cert in canonical_certificates().items():
        indented = tmp_path / f"{kind}-indented.json"
        indented.write_text(json.dumps(cert, indent=2, sort_keys=True) + "\n")
        compact = tmp_path / f"{kind}.json"
        write_json(compact, cert)
        report = validate_certificate(compact)
        assert report.ok, (kind, report.failures)
        assert validate_certificate(indented) == report, kind
