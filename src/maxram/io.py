"""JSON artifacts: exact serialization, parsing, and certificate formats.

Rationals travel as "p" or "p/q" strings, or as JSON integers over one
stated scale, so artifacts stay exact. This module owns the literal:
parse_ratio reads one as an integer pair, and parse_rational and
format_rational convert to and from Fraction, loading fractions only
when called. Every dump is compact canonical JSON (sorted keys, no
whitespace between tokens, trailing newline), so identical inputs give
byte-identical files.
Certificates carry only fields a validator can recheck; advisory data
such as warnings or search statistics stays out of them.
"""

from __future__ import annotations

import itertools
import json
from typing import TYPE_CHECKING

from .errors import ParseError

# Annotations only. A function that builds one of these objects, or
# reads or writes a rational, imports what it needs itself, so importing
# io loads no module its caller did not: a torus_cover certificate, all
# integers, loads no rational arithmetic.
if TYPE_CHECKING:
    from fractions import Fraction

    from .anchors import AnchorSequence
    from .chromatic import ColoringCertificate
    from .colorings import PeriodicColoring
    from .cover import CoverInstance, CoverSolution
    from .extraction import GridSubset
    from .metric import Baton, CopyEmbedding, FiniteMetricSpace, PointSet, Vec


def parse_ratio(value) -> tuple[int, int]:
    """Parse an int, or a string "p" / "p/q", into the integer pair (p, q),
    unreduced, with q != 0."""
    if isinstance(value, bool):
        raise ParseError(f"expected rational, got bool {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        parts = value.split("/")
        if len(parts) <= 2:
            try:
                num = int(parts[0])
                den = int(parts[1]) if len(parts) == 2 else 1
            except ValueError:
                raise ParseError(f"bad rational literal {value!r}") from None
            if den == 0:
                raise ParseError(f"bad rational literal {value!r}: zero denominator")
            return num, den
    if isinstance(value, (list, dict)):
        # Named, not echoed: a container's repr can be as long as the file,
        # and a dict's follows its key order.
        raise ParseError(f"expected rational, got a {type(value).__name__}")
    raise ParseError(f"expected rational, got {value!r}")


def parse_rational(value) -> Fraction:
    """Parse an int, or a string "p" / "p/q", into a Fraction."""
    from fractions import Fraction

    return Fraction(*parse_ratio(value))


def format_rational(x: Fraction) -> str:
    from fractions import Fraction

    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def vec_to_obj(vec) -> list[str]:
    return [format_rational(c) for c in vec]


def vec_from_obj(items, label: str) -> Vec:
    """The coordinate list items, each a rational literal; a failure
    names label."""
    if not isinstance(items, (list, tuple)):
        raise ParseError(f"{label}: expected a list of rationals")
    try:
        return tuple(map(parse_rational, items))
    except ParseError as exc:
        raise ParseError(f"{label}: {exc}") from None


def matrix_to_obj(space: FiniteMetricSpace) -> list[list[str]]:
    return [vec_to_obj(row) for row in space.dist]


def dump_json(obj) -> str:
    """obj as compact canonical JSON, written by json's C encoder: sorted
    keys, no whitespace between tokens (the whitespace rule of RFC 8785),
    ASCII escapes, and a trailing newline. Only the program builds what
    it writes, so nothing holds a cycle and the encoder skips that check."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), check_circular=False
    ) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj))


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # A JSONDecodeError, an integer literal past the int string-conversion
        # limit (both ValueErrors), or nesting past the recursion limit.
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_value(value, label) -> int:
    if not _is_int(value):
        raise ParseError(f"{label} must be an integer")
    return value


def _int_field(obj, key) -> int:
    return _int_value(obj[key], key)


def _bool_field(obj, key) -> bool:
    value = obj[key]
    if not isinstance(value, bool):
        raise ParseError(f"{key} must be a boolean")
    return value


def _list_field(obj, key) -> list:
    value = obj[key]
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a list")
    return value


def metric_space_from_obj(obj) -> FiniteMetricSpace:
    """Build a space from {"distance_matrix": ...} or {"points": ...}.

    A distance matrix wins when both keys are present, since it is the
    primary representation and the points may be a mere illustration.
    A matrix must pass check_metric; points give a metric by construction.
    """
    from .metric import FiniteMetricSpace, check_metric

    if not isinstance(obj, dict):
        raise ParseError("metric space object must be a JSON object")
    if "distance_matrix" in obj:
        rows = obj["distance_matrix"]
        if not isinstance(rows, list) or not rows:
            raise ParseError("distance_matrix must be a non-empty list of rows")
        dist = tuple(
            vec_from_obj(row, f"distance_matrix[{i}]") for i, row in enumerate(rows)
        )
        check_metric(dist)
        return FiniteMetricSpace(dist)
    if "points" in obj:
        return FiniteMetricSpace.from_points(point_set_from_obj(obj))
    raise ParseError("need a distance_matrix or points key")


def point_set_from_obj(obj) -> PointSet:
    from .metric import PointSet

    if not isinstance(obj, dict) or "points" not in obj:
        raise ParseError("need a points key")
    rows = obj["points"]
    if not isinstance(rows, list) or not rows:
        raise ParseError("points must be a non-empty list")
    points = tuple(vec_from_obj(row, f"points[{i}]") for i, row in enumerate(rows))
    return PointSet(dim=len(points[0]), points=points)


def grid_subset_from_obj(obj) -> GridSubset:
    """A subset of {0..k}^n from {"k": k, "n": n, "elements": [[int, ...], ...]}."""
    from .extraction import GridSubset

    if not isinstance(obj, dict) or not {"k", "n", "elements"} <= obj.keys():
        raise ParseError("subset file needs k, n and elements")
    if not (_is_int(obj["k"]) and _is_int(obj["n"])):
        raise ParseError("subset file: k and n must be integers")
    elements = obj["elements"]
    if not isinstance(elements, list) or not all(
        isinstance(e, list) and all(map(_is_int, e)) for e in elements
    ):
        raise ParseError("subset file: elements must be a list of integer lists")
    return GridSubset(n=obj["n"], k=obj["k"], elems=frozenset(map(tuple, elements)))


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
    """The values go out as held, integer numerators a over one den. Only
    sequences that pass every clause of verify_anchor_sequence are built,
    so each is recorded as passed; the validator recomputes them all."""
    from .anchors import VerificationReport

    return {
        "kind": "anchor_sequence",
        "steps": vec_to_obj(baton.steps),
        "p": list(seq.p),
        "m": seq.m,
        "q": seq.q,
        "q0": seq.q0,
        "delta": format_rational(seq.delta),
        "theta": format_rational(seq.theta),
        "a": list(seq.num),
        "den": seq.den,
        "verification": dict.fromkeys(VerificationReport._fields, True),
    }


def periodic_coloring_certificate(
    coloring: PeriodicColoring, space: FiniteMetricSpace
) -> dict:
    """Boxes and anchors go out as their box-lattice indices (corner /
    box_size), JSON integers in [0, cells_per_axis), one per axis. The
    torus cells are built once as index lists, and each class is its
    owned mask expanded over them."""
    from .bits import mask_cells

    # Lists, not tuples, so that the certificate equals the one read back.
    axis = range(coloring.cells_per_axis)
    cells = list(map(list, itertools.product(axis, repeat=coloring.dim)))
    return {
        "kind": "periodic_coloring",
        "dim": coloring.dim,
        "period": format_rational(coloring.period),
        "box_size": format_rational(coloring.box_size),
        "classes": [mask_cells(mask, cells) for mask in coloring.owned_masks()],
        "class_count": coloring.class_count,
        "window": format_rational(coloring.window),
        "anchors": [list(a) for a in coloring.window_anchors],
        "distance_matrix": matrix_to_obj(space),
    }


def chromatic_certificate(
    k: int, n: int, space: FiniteMetricSpace, cert: ColoringCertificate
) -> dict:
    return {
        "kind": "chromatic",
        "k": k,
        "n": n,
        "distance_matrix": matrix_to_obj(space),
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
