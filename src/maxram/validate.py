"""Independent rechecking of JSON certificates.

Every certificate kind gets a policy that rebuilds whatever the artifact
claims from its own stated inputs and compares field by field. A policy
trusts nothing it can recompute: a stated copy is checked pair by pair by
CopyEmbedding, a chromatic coloring one color class at a time (it is
proper when no class holds a copy), anchor sequences are rebuilt from
their witness and their integer numerators compared cross-multiplied,
coverings are held to the slice bound, which every torus of at most 30
points meets. Failures name the offending field or pair.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat
from operator import add, mul
from typing import NamedTuple

from .anchors import TooManyValues, anchor_sequence_at, check_combination_count
from .anchors import verify_anchor_sequence
from .chromatic import copy_hypergraph, exact_chromatic
from .colorings import PeriodicColoring
from .cover import CoverInstance, is_cover, redundant_translate, slice_lower_bound
from .errors import DomainError, ParseError, PreconditionError
from .io import _bool_field, _int_field, _int_value, _list_field
from .io import metric_space_from_obj, read_json, vec_from_obj
from .metric import Baton, CopyEmbedding, PointSet, find_copies, grid_points
from .metric import connectivity_threshold, diameter
from .rational import parse_rational

# Node budget of the independent chromatic solve behind `optimal` claims;
# a solve that runs out of it leaves the claim unchecked.
_RESOLVE_BUDGET = 10**6


class ValidationReport(NamedTuple):
    kind: str
    ok: bool
    failures: tuple[str, ...]


def _check_copy(space, points, label, failures) -> None:
    """Check stated points as a copy of the (non-empty) space, under label."""
    if len(points) != space.size:
        failures.append(f"{label}: count does not match the distance matrix")
        return
    try:
        CopyEmbedding(space, PointSet(len(points[0]), points), range(space.size))
    except PreconditionError as exc:
        failures.append(f"{label}: {exc}")


def _check_copy_embedding(obj) -> list[str]:
    failures: list[str] = []
    space = metric_space_from_obj({"distance_matrix": obj["distance_matrix"]})
    if obj.get("distances_checked") is not True:
        failures.append("distances_checked: must be true")
    points = [vec_from_obj(p) for p in _list_field(obj, "points")]
    _check_copy(space, points, "points", failures)
    return failures


def _check_copy_list(obj) -> list[str]:
    failures: list[str] = []
    space = metric_space_from_obj({"distance_matrix": obj["distance_matrix"]})
    copies = []
    for idx, copy in enumerate(_list_field(obj, "copies")):
        if not isinstance(copy, list):
            return [f"copies[{idx}]: must be a list of points"]
        copies.append([vec_from_obj(p) for p in copy])
    if _int_field(obj, "count") != len(copies):
        failures.append("count: does not match the number of copies")
    for idx, points in enumerate(copies):
        _check_copy(space, points, f"copies[{idx}]", failures)
    supports = [frozenset(points) for points in copies]
    if _bool_field(obj, "distinct_supports") != (len(set(supports)) == len(supports)):
        failures.append("distinct_supports: does not match the listed copies")
    return failures


def _check_anchor_sequence(obj) -> list[str]:
    """Rebuild the sequence at the stated q and compare field by field;
    a[l]/den, over any common den >= 1, is compared cross-multiplied."""
    failures: list[str] = []
    try:
        baton = Baton(steps=vec_from_obj(obj["steps"]))
        if baton.k < 1:
            raise ParseError("must be non-empty")
        check_combination_count(baton.steps)
    except ValueError as exc:  # also an int too long to print in the message
        return [f"steps: {exc}"]
    q = _int_field(obj, "q")
    stated = {
        "p": tuple(_int_value(v, "p") for v in _list_field(obj, "p")),
        "m": _int_field(obj, "m"),
        "q0": _int_field(obj, "q0"),
        "delta": parse_rational(obj["delta"]),
        "theta": parse_rational(obj["theta"]),
    }
    a = _list_field(obj, "a")
    if not {*map(type, a)} <= {int}:
        return ["a: numerators must be integers"]
    if type(den := obj["den"]) is not int or den < 1:
        return ["den: must be an integer of at least 1"]
    try:
        # The stated values bound the rebuild: a q whose numerators sum
        # past them is refused before its m + 1 values are built.
        seq = anchor_sequence_at(baton, q, max_m=len(a) - 1)
    except ValueError as exc:  # also an int too long to print in the message
        if isinstance(exc, TooManyValues) and exc.m == stated["m"]:  # a falls short
            return [f"a: {len(a)} values stated, the rebuild at q = {q} has {exc.m + 1}"]
        return [f"q: {exc}"]
    where = "on the fast path" if seq.q0 == 0 else f"at q = {q}"
    for name, value in stated.items():
        if value != getattr(seq, name):
            failures.append(f"{name}: rebuild {where} differs")
    if list(map(mul, a, repeat(seq.den))) != list(map(mul, seq.num, repeat(den))):
        failures.append(f"a: rebuild {where} differs")
    if failures:
        return failures
    report = verify_anchor_sequence(seq, baton)
    expected = {name: bool(result) for name, result in report._asdict().items()}
    stored = obj["verification"]  # each a bool: 1 and 1.0 equal True
    types = isinstance(stored, dict) and {*map(type, stored.values())}
    if types != {bool} or stored != expected:
        failures.append("verification: recomputed clause results differ")
    return failures


def _box_list(vecs, label) -> list:
    """vecs, stated as a list of boxes, each a list of box indices; what
    is not is refused under label. _check_coloring checks the indices."""
    if not isinstance(vecs, list) or not all(map(isinstance, vecs, repeat(list))):
        raise ParseError(f"{label} must be a list of index lists")
    return vecs


def _columns(vecs, dim: int) -> list[list]:
    """The axis-x indices of the boxes vecs, for each axis x: strided
    slices of their concatenation, exact when every box has dim entries."""
    flat = list(chain.from_iterable(vecs))
    return [flat[x::dim] for x in range(dim)]


def _check_coloring(coloring: PeriodicColoring, classes) -> list[str]:
    """Check a stated coloring: a malformed one fails once, under coloring:.
    Otherwise every box of the fundamental domain must be owned exactly
    once (classes:) and each box must lie in its class's window (anchors:).

    classes[i] lists the boxes stated for class i, each a sequence of
    box-lattice indices. The checks run per class and axis, on the
    class's index columns. Only a class that fails one is scanned box by
    box, so each failure names the first box, in class and box order,
    that fails it. An index is tested for its type before its range, so
    a value that is not an int, a bool among them, fails as one.

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
    total, expected = sum(map(len, classes)), cells**dim
    # Ownership is marked by row-major box index, and only when the count
    # is right: then the boxes partition the domain unless one repeats,
    # and a repeat leaves some box unmarked.
    owned = bytearray(expected) if total == expected else None
    stray = None
    for color, (vecs, anchor) in enumerate(zip(classes, anchors)):
        cols = _columns(vecs, dim)
        if not all(map(dim.__eq__, map(len, vecs))) or not all(
            {*map(type, col)} == {int} and 0 <= min(col) and max(col) < cells
            for col in cols
        ):
            for vec in vecs:
                if failure := malformed(vec):
                    return [failure]
        # Each distinct index of a column is tested once.
        if stray is None and not all(
            (c - a) % cells < reach for col, a in zip(cols, anchor) for c in set(col)
        ):
            box = next(
                b for b in zip(*cols)
                if any((c - a) % cells >= reach for c, a in zip(b, anchor))
            )
            stray = f"anchors: class {color}: box {box} outside window at {anchor}"
        if owned is not None:
            deque(map(owned.__setitem__, _row_major(cols, cells), repeat(1)), maxlen=0)
    failures = []
    if owned is None:
        failures.append(f"classes: {total} owned boxes, expected {expected}")
    elif owned.count(0):  # name the first box that repeats
        seen = bytearray(expected)
        for key in chain.from_iterable(
            _row_major(_columns(vecs, dim), cells) for vecs in classes
        ):
            if seen[key]:
                break
            seen[key] = 1
        box = tuple(key // cells**x % cells for x in reversed(range(dim)))
        failures.append(f"classes: box {box} owned twice")
    if stray:
        failures.append(stray)
    return failures


def _row_major(cols, cells: int):
    """The row-major indices of the boxes whose axis-x indices are cols[x]."""
    keys = cols[0]
    for col in cols[1:]:
        keys = map(add, map(mul, keys, repeat(cells)), col)
    return keys


def _check_periodic_coloring(obj) -> list[str]:
    """Boxes and anchors are stated as box-lattice indices, JSON integers
    in [0, cells_per_axis), one per axis."""
    failures: list[str] = []
    space = metric_space_from_obj({"distance_matrix": obj["distance_matrix"]})
    classes = [
        _box_list(vecs, f"classes[{i}]")
        for i, vecs in enumerate(_list_field(obj, "classes"))
    ]
    if _int_field(obj, "class_count") != len(classes):
        failures.append("class_count: does not match the classes")
    try:
        coloring = PeriodicColoring(
            dim=_int_field(obj, "dim"),
            period=parse_rational(obj["period"]),
            box_size=parse_rational(obj["box_size"]),
            window=parse_rational(obj["window"]),
            window_anchors=tuple(map(tuple, _box_list(obj["anchors"], "anchors"))),
        )
    except ValueError as exc:
        failures.append(f"coloring: {exc}")
        return failures
    found = _check_coloring(coloring, classes)
    failures += found
    if any(failure.startswith("coloring:") for failure in found):
        return failures
    if coloring.window > diameter(space):
        failures.append("window: exceeds the diameter of the avoided space")
    if coloring.period - coloring.window < connectivity_threshold(space):
        failures.append("period: gap below the connectivity threshold")
    return failures


def _check_chromatic(obj) -> list[str]:
    failures: list[str] = []
    k = _int_field(obj, "k")
    n = _int_field(obj, "n")
    space = metric_space_from_obj({"distance_matrix": obj["distance_matrix"]})
    colors = tuple(_int_value(v, "colors") for v in _list_field(obj, "colors"))
    color_count = _int_field(obj, "color_count")
    optimal = _bool_field(obj, "optimal")
    lower_bound = _int_field(obj, "lower_bound")

    # The count comes first, so a stated grid larger than the color list
    # is refused without building its points; (k+1)^n >= 2^n bounds n.
    if k < 1 or n < 1:
        raise PreconditionError("grid needs k >= 1 and n >= 1")
    if n > len(colors).bit_length() or (k + 1) ** n != len(colors):
        failures.append("colors: one color per grid point required")
        return failures
    if space.size < 2:
        raise PreconditionError("forbidden space needs at least 2 points")
    grid = grid_points(k, n)
    classes: dict[int, list] = {}
    for point, color in zip(grid.points, colors):
        classes.setdefault(color, []).append(point)
    if any(find_copies(space, PointSet(n, c), limit=1) for c in classes.values()):
        failures.append("colors: a copy is monochromatic")
    # len(classes) <= len(colors) bounds the range before it is built.
    if color_count != len(classes) or set(classes) != set(range(color_count)):
        failures.append("color_count: colors must use exactly 0..count-1")
    if not 1 <= lower_bound <= color_count:
        failures.append("lower_bound: outside [1, color_count]")
    if len(colors) <= 16:
        resolved = exact_chromatic(copy_hypergraph(grid, space), budget=_RESOLVE_BUDGET)
        if not resolved.budget_exhausted:
            chi = resolved.color_count
            if optimal != (color_count == chi):
                failures.append("optimal: disagrees with an independent solve")
            elif optimal and lower_bound != color_count:
                failures.append("lower_bound: optimal certificates must match")
            elif lower_bound > chi:
                failures.append(f"lower_bound: exceeds the chromatic number {chi}")
    return failures


def _check_torus_cover(obj) -> list[str]:
    failures: list[str] = []
    try:
        inst = CoverInstance(
            m=_int_field(obj, "m"), d=_int_field(obj, "d"), n=_int_field(obj, "n")
        )
    except DomainError as exc:  # past the point cap
        return [f"m, n: {exc}"]
    translates = []
    for idx, row in enumerate(_list_field(obj, "translates")):
        if not isinstance(row, list) or not {*map(type, row)} <= {int}:
            failures.append(f"translates[{idx}]: must be a list of integers")
            continue
        vec = tuple(row)
        if len(vec) != inst.n or not all(0 <= c < inst.m for c in vec):
            failures.append(f"translates[{idx}]: outside the torus")
        translates.append(vec)
    if failures:
        return failures
    size = _int_field(obj, "size")
    optimal = _bool_field(obj, "optimal")
    lower_bound = _int_field(obj, "lower_bound")
    if size != len(translates):
        failures.append("size: does not match the translate list")
    if not is_cover(inst, translates):
        failures.append("translates: not a cover")
    lower = slice_lower_bound(inst)
    if optimal:
        if lower_bound != size:
            failures.append("lower_bound: optimal covers must match their size")
    elif lower_bound != lower:
        failures.append("lower_bound: non-optimal covers carry the slice bound")
    if failures:
        return failures
    if size == lower or inst.point_count <= 30:
        # Every torus of at most 30 points has a cover of the slice bound.
        if optimal != (size == lower):
            failures.append("optimal: disagrees with the slice bound")
    elif optimal:
        # Past 30 points a claim above the slice bound is refuted only
        # when a translate can go.
        spare = redundant_translate(inst, translates)
        if spare is not None:
            failures.append(f"optimal: translates[{spare}] is redundant")
    return failures


_POLICIES = {
    "copy_embedding": _check_copy_embedding,
    "copy_list": _check_copy_list,
    "anchor_sequence": _check_anchor_sequence,
    "periodic_coloring": _check_periodic_coloring,
    "chromatic": _check_chromatic,
    "torus_cover": _check_torus_cover,
}


def validate_certificate(source) -> ValidationReport:
    """Validate a certificate given as a dict or a path to a JSON file."""
    obj = source if isinstance(source, dict) else read_json(source)
    if not isinstance(obj, dict):
        return ValidationReport(kind="", ok=False, failures=("kind: missing",))
    kind = obj.get("kind")
    # A list or dict kind is unhashable; it names no policy either.
    policy = _POLICIES.get(kind) if isinstance(kind, str) else None
    if policy is None:
        return ValidationReport(
            kind=str(kind), ok=False, failures=(f"kind: unknown {kind!r}",)
        )
    try:
        failures = policy(obj)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        failures = [f"malformed: {exc}"]
    return ValidationReport(kind=kind, ok=not failures, failures=tuple(failures))
