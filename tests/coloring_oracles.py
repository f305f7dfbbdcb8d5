"""Oracles for periodic colorings, shared by the test modules: a
Fraction-level color lookup, the per-box certificate writer, and the
box-by-box check of a stated coloring that validate's column checks must
match line for line.

A stated coloring is a PeriodicColoring for its fields with its classes
held beside it, as the validator reads one; a built coloring's classes
are its derived ones."""

from fractions import Fraction

from maxram.colorings import PeriodicColoring
from maxram.errors import DomainError, ParseError, PreconditionError
from maxram.io import _int_field, _list_field, matrix_to_obj, metric_space_from_obj
from maxram.metric import connectivity_threshold, diameter
from maxram.io import format_rational, parse_rational


def owner_table(classes) -> dict[tuple[int, ...], int]:
    """Box index vector -> owning color; a box owned twice is refused."""
    table = {}
    for color, vecs in enumerate(classes):
        for vec in vecs:
            if vec in table:
                raise DomainError(f"box {vec} owned twice")
            table[vec] = color
    return table


def color_of(coloring, point, classes=None) -> int:
    """Color of an arbitrary point of R^dim, by periodicity; classes
    defaults to the coloring's own."""
    if len(point) != coloring.dim:
        raise PreconditionError("point dimension mismatch")
    cell = tuple(
        int(Fraction(c) % coloring.period // coloring.box_size) for c in point
    )
    if classes is None:
        classes = coloring.classes
    owner = owner_table(classes).get(cell)
    if owner is None:
        raise DomainError(f"box {cell} has no color")
    return owner


def periodic_coloring_certificate_naive(coloring, classes, space) -> dict:
    """The certificate of the coloring with the given classes, written box
    by box: each index vector of each class as a list of its indices.
    Oracle for io.periodic_coloring_certificate, byte for byte."""
    return {
        "kind": "periodic_coloring",
        "dim": coloring.dim,
        "period": format_rational(coloring.period),
        "box_size": format_rational(coloring.box_size),
        "classes": [[list(v) for v in vecs] for vecs in classes],
        "class_count": len(classes),
        "window": format_rational(coloring.window),
        "anchors": [list(a) for a in coloring.window_anchors],
        "distance_matrix": matrix_to_obj(space),
    }


def index_vecs(vecs, label) -> tuple:
    """A stated list of boxes as index tuples, box by box; a value that is
    not a list, or a box that is not one, is refused under label."""
    if not isinstance(vecs, list):
        raise ParseError(f"{label} must be a list of index lists")
    boxes = []
    for vec in vecs:
        if not isinstance(vec, list):
            raise ParseError(f"{label} must be a list of index lists")
        boxes.append(tuple(vec))
    return tuple(boxes)


def check_coloring_naive(coloring, classes) -> list[str]:
    """Check a stated coloring: a malformed one fails once, under coloring:.
    Otherwise one pass over the boxes checks that every box of the
    fundamental domain is owned exactly once (classes:) and that each box
    lies in its class's window (anchors:).

    Box o sits in the window at a exactly when its offset (o - a) mod
    cells, counted in boxes, is below window // box_size: the box's far
    edge must not pass the window's.
    """
    dim, box_size, window = coloring.dim, coloring.box_size, coloring.window
    anchors = coloring.window_anchors
    if dim < 1:
        return ["coloring: coloring needs dim >= 1"]
    if not 0 < box_size <= window <= coloring.period:
        return ["coloring: need 0 < box_size <= window <= period"]
    if (coloring.period / box_size).denominator != 1:
        return ["coloring: period must be a whole number of boxes"]
    if len(anchors) != len(classes):
        return ["coloring: one window anchor per class"]
    if not classes:
        return ["coloring: coloring needs at least one class"]
    if not all(classes):
        return ["coloring: empty color class"]
    cells = coloring.cells_per_axis

    def malformed(vec) -> str | None:
        """The failure a malformed index vector gives, or None."""
        if len(vec) != dim:
            return "coloring: offset dimension mismatch"
        for c in vec:
            if type(c) is not int:
                return "coloring: box indices must be integers"
            if not 0 <= c < cells:
                return f"coloring: box indices must lie in [0, {cells})"
        return None

    for anchor in anchors:
        if failure := malformed(anchor):
            return [failure]
    reach = window // box_size
    failures = []
    total, expected = sum(map(len, classes)), cells**dim
    # Ownership is marked by row-major box index, and only when the count
    # is right: then the boxes partition the domain unless one repeats.
    owned = bytearray(total) if total == expected else None
    if owned is None:
        failures.append(f"classes: {total} owned boxes, expected {expected}")
    twice = stray = None
    for color, (vecs, anchor) in enumerate(zip(classes, anchors)):
        for vec in vecs:
            if len(vec) != dim:
                return [malformed(vec)]
            outside, key = False, 0
            for c, a in zip(vec, anchor):
                if type(c) is not int or not 0 <= c < cells:
                    return [malformed(vec)]
                outside = outside or (c - a) % cells >= reach
                key = key * cells + c
            if outside and stray is None:
                stray = f"anchors: class {color}: box {vec} outside window at {anchor}"
            if owned is not None:
                if owned[key] and twice is None:
                    twice = f"classes: box {vec} owned twice"
                owned[key] = 1
    if twice:
        failures.append(twice)
    if stray:
        failures.append(stray)
    return failures


def check_periodic_coloring_naive(obj) -> list[str]:
    failures: list[str] = []
    space = metric_space_from_obj({"distance_matrix": obj["distance_matrix"]})
    classes = tuple(
        index_vecs(vecs, f"classes[{i}]")
        for i, vecs in enumerate(_list_field(obj, "classes"))
    )
    if _int_field(obj, "class_count") != len(classes):
        failures.append("class_count: does not match the classes")
    try:
        coloring = PeriodicColoring(
            dim=_int_field(obj, "dim"),
            period=parse_rational(obj["period"]),
            box_size=parse_rational(obj["box_size"]),
            window=parse_rational(obj["window"]),
            window_anchors=index_vecs(obj["anchors"], "anchors"),
        )
    except ValueError as exc:
        failures.append(f"coloring: {exc}")
        return failures
    found = check_coloring_naive(coloring, classes)
    failures += found
    if any(failure.startswith("coloring:") for failure in found):
        return failures
    if space.size < 2:
        failures.append("distance_matrix: the avoided space needs at least 2 points")
        return failures
    if coloring.window > diameter(space):
        failures.append("window: exceeds the diameter of the avoided space")
    if coloring.period - coloring.window < connectivity_threshold(space):
        failures.append("period: gap below the connectivity threshold")
    return failures
