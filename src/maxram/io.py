"""JSON artifacts: exact serialization, parsing, and certificate formats.

Rationals travel as "p" or "p/q" strings so artifacts stay exact, and
every dump is canonical (sorted keys, two-space indent, trailing newline)
so identical inputs give byte-identical files. Certificates carry only
fields a validator can recheck; advisory data such as warnings or search
statistics stays out of them.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .anchors import AnchorSequence, VerificationReport
from .chromatic import GridChromaticReport
from .colorings import PeriodicColoring
from .cover import CoverInstance, CoverSolution
from .errors import ParseError
from .metric import Baton, CopyEmbedding, FiniteMetricSpace, PointSet, Vec
from .rational import format_rational, parse_rational


def vec_to_obj(vec) -> list[str]:
    return [format_rational(c) for c in vec]


def vec_from_obj(items) -> Vec:
    if not isinstance(items, (list, tuple)):
        raise ParseError(f"expected a coordinate list, got {type(items).__name__}")
    return tuple(parse_rational(c) for c in items)


def matrix_to_obj(space: FiniteMetricSpace) -> list[list[str]]:
    return [vec_to_obj(row) for row in space.dist]


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj))


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def metric_space_from_obj(obj) -> FiniteMetricSpace:
    """Build a space from {"distance_matrix": ...} or {"points": ...}.

    A distance matrix wins when both keys are present, since it is the
    primary representation and the points may be a mere illustration.
    """
    if not isinstance(obj, dict):
        raise ParseError("metric space object must be a JSON object")
    if "distance_matrix" in obj:
        rows = obj["distance_matrix"]
        if not isinstance(rows, list) or not rows:
            raise ParseError("distance_matrix must be a non-empty list of rows")
        return FiniteMetricSpace(tuple(vec_from_obj(row) for row in rows))
    if "points" in obj:
        return FiniteMetricSpace.from_points(point_set_from_obj(obj))
    raise ParseError("need a distance_matrix or points key")


def point_set_from_obj(obj) -> PointSet:
    if not isinstance(obj, dict) or "points" not in obj:
        raise ParseError("need a points key")
    rows = obj["points"]
    if not isinstance(rows, list) or not rows:
        raise ParseError("points must be a non-empty list")
    points = tuple(vec_from_obj(row) for row in rows)
    return PointSet(dim=len(points[0]), points=points)


def copy_embedding_certificate(emb: CopyEmbedding) -> dict:
    """The copy as explicit points; construction already checked distances."""
    return {
        "kind": "copy_embedding",
        "distance_matrix": matrix_to_obj(emb.source),
        "points": [vec_to_obj(p) for p in emb.mapped_points()],
        "distances_checked": True,
    }


def copy_list_certificate(space: FiniteMetricSpace, embeddings) -> dict:
    """All listed copies as explicit points.

    distinct_supports records whether the listed copies use pairwise
    distinct point sets; it is computed here, not taken on trust.
    """
    supports = [frozenset(emb.indices) for emb in embeddings]
    return {
        "kind": "copy_list",
        "distance_matrix": matrix_to_obj(space),
        "copies": [[vec_to_obj(p) for p in emb.mapped_points()] for emb in embeddings],
        "count": len(embeddings),
        "distinct_supports": len(set(supports)) == len(supports),
    }


def anchor_sequence_certificate(baton: Baton, seq: AnchorSequence) -> dict:
    """build_anchor_sequence returns only sequences that pass every clause
    of verify_anchor_sequence, so each is recorded as passed; the
    validator recomputes them all."""
    return {
        "kind": "anchor_sequence",
        "steps": vec_to_obj(baton.steps),
        "p": list(seq.p),
        "m": seq.m,
        "q": seq.q,
        "q0": seq.q0,
        "delta": format_rational(seq.delta),
        "theta": format_rational(seq.theta),
        "a": vec_to_obj(seq.a),
        "verification": {clause.name: True for clause in fields(VerificationReport)},
    }


def periodic_coloring_certificate(
    coloring: PeriodicColoring, space: FiniteMetricSpace
) -> dict:
    return {
        "kind": "periodic_coloring",
        "dim": coloring.dim,
        "period": format_rational(coloring.period),
        "box_size": format_rational(coloring.box_size),
        "classes": [[vec_to_obj(v) for v in vecs] for vecs in coloring.classes],
        "class_count": coloring.class_count,
        "window": format_rational(coloring.window),
        "anchors": [vec_to_obj(a) for a in coloring.window_anchors],
        "distance_matrix": matrix_to_obj(space),
    }


def chromatic_certificate(report: GridChromaticReport) -> dict:
    cert = report.certificate
    return {
        "kind": "chromatic",
        "k": report.k,
        "n": report.n,
        "distance_matrix": matrix_to_obj(report.hypergraph.source),
        "colors": list(cert.colors),
        "color_count": cert.color_count,
        "optimal": cert.optimal,
        "lower_bound": cert.lower_bound,
    }


def torus_cover_certificate(inst: CoverInstance, sol: CoverSolution) -> dict:
    return {
        "kind": "torus_cover",
        "m": inst.m,
        "d": inst.d,
        "n": inst.n,
        "translates": [list(t) for t in sol.translates],
        "size": sol.size,
        "optimal": sol.optimal,
        "lower_bound": sol.lower_bound,
    }
