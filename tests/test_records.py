"""The record types' constructor contracts: each builds from keywords and
from positions in its field order, fills the same defaults, and the types
that hold outside input refuse a bad field with the same exception class.
The records that only the program builds check nothing themselves."""

from fractions import Fraction

import pytest

from maxram.anchors import AnchorSequence, ClauseResult, VerificationReport
from maxram.chromatic import ColoringCertificate, CopyHypergraph
from maxram.colorings import PeriodicColoring
from maxram.cover import CoverInstance, CoverSolution
from maxram.errors import DimensionMismatch, DomainError, PreconditionError
from maxram.extraction import AnchorSet, GridSubset
from maxram.metric import Baton, CopyEmbedding, FiniteMetricSpace, PointSet
from maxram.validate import ValidationReport

F = Fraction
PAIR = FiniteMetricSpace(((F(0), F(1)), (F(1), F(0))))
LINE = PointSet(1, ((F(0),), (F(1),)))
PASSED = ClauseResult(True)

# Each type's fields in their order, with one valid value each, and the
# defaults of the fields a caller may leave out.
RECORDS = {
    FiniteMetricSpace: ({"dist": ((F(0), F(1)), (F(1), F(0)))}, {}),
    PointSet: ({"dim": 1, "points": ((F(0),), (F(1),))}, {}),
    Baton: ({"steps": (F(1), F(2))}, {}),
    CopyEmbedding: ({"source": PAIR, "points": LINE, "indices": (1, 0)}, {}),
    GridSubset: ({"n": 1, "k": 1, "elems": frozenset({(0,), (1,)})}, {}),
    AnchorSet: ({"values": (F(0), F(1), F(3)), "marks": (0, 2)}, {}),
    AnchorSequence: (
        {"p": (1, 2), "m": 3, "num": (0, 1, 2, 3), "den": 1, "delta": F(1),
         "theta": F(3), "q0": 0, "q": 1},
        {},
    ),
    PeriodicColoring: (
        {"dim": 1, "period": F(2), "box_size": F(1), "window": F(1),
         "window_anchors": ((0,), (1,))},
        {"warnings": ()},
    ),
    CoverInstance: ({"m": 3, "d": 2, "n": 2}, {}),
    CoverSolution: (
        {"translates": [(0,), (1,)], "size": 2, "optimal": True, "lower_bound": 2},
        {"budget_exhausted": False},
    ),
    ClauseResult: ({"passed": False}, {"counterexample": None}),
    VerificationReport: (
        {"monotonic": PASSED, "subadditive": PASSED, "anchored": PASSED,
         "index_increasing": PASSED, "index_linear": PASSED},
        {},
    ),
    CopyHypergraph: ({"point_set": LINE, "edges": ((0, 1),)}, {}),
    ColoringCertificate: (
        {"colors": (0, 1), "color_count": 2, "optimal": True, "lower_bound": 2,
         "lower_bound_witness": "edge:2"},
        {"budget_exhausted": False},
    ),
    ValidationReport: ({"kind": "chromatic", "ok": True, "failures": ()}, {}),
}

# One bad field per type that checks its fields, and the exception it raises.
REFUSED = [
    (PointSet, {"dim": 2, "points": ((0,), (1,))}, DimensionMismatch),
    (Baton, {"steps": (1, 0)}, PreconditionError),
    (CopyEmbedding, {"source": PAIR, "points": LINE, "indices": (0, 0)},
     PreconditionError),
    (GridSubset, {"n": 1, "k": 1, "elems": {(2,)}}, PreconditionError),
    (CoverInstance, {"m": 3, "d": 2, "n": 30}, DomainError),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda t: t.__name__)
def test_record_builds_from_keywords_and_positions_with_its_defaults(record):
    given, defaults = RECORDS[record]
    expected = {**given, **defaults}
    for built in (record(**given), record(*given.values())):
        assert {name: getattr(built, name) for name in expected} == expected


@pytest.mark.parametrize(
    "record", [FiniteMetricSpace, AnchorSequence, CoverSolution, ColoringCertificate],
    ids=lambda t: t.__name__,
)
def test_compared_records_are_equal_field_by_field(record):
    given, _ = RECORDS[record]
    assert record(**given) == record(*given.values())


@pytest.mark.parametrize(
    "record, bad, error", REFUSED, ids=[t.__name__ for t, _, _ in REFUSED]
)
def test_checked_record_refuses_a_bad_field(record, bad, error):
    with pytest.raises(error) as exc:
        record(**bad)
    assert type(exc.value) is error


def test_a_cover_solution_stays_assignable():
    solution = CoverSolution([(0,), (1,)], 2, False, 1)
    solution.optimal, solution.lower_bound = True, 2
    assert solution == CoverSolution(**RECORDS[CoverSolution][0])
