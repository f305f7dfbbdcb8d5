"""Independent rechecking of JSON certificates.

Every certificate kind gets a policy that rebuilds whatever the artifact
claims from its own stated inputs and compares field by field. A policy
trusts nothing it can recompute: a stated copy is checked pair by pair by
CopyEmbedding, a chromatic coloring one color class at a time (it is
proper when no class holds a copy), anchor sequences are rebuilt from
their witness, coverings are held to the slice bound and re-solved when
small enough. Failures name the offending field or pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .anchors import anchor_sequence_at, check_combination_count, verify_anchor_sequence
from .chromatic import copy_hypergraph, exact_chromatic
from .colorings import PeriodicColoring
from .cover import CoverInstance, exact_cover, is_cover, redundant_translate
from .cover import slice_lower_bound
from .errors import DomainError, ParseError, PreconditionError
from .io import _bool_field, _int_field, _int_value, _list_field
from .io import metric_space_from_obj, read_json, vec_from_obj
from .metric import Baton, CopyEmbedding, PointSet, find_copies, grid_points
from .metric import connectivity_threshold, diameter
from .rational import parse_rational

# Node budget of the independent solves behind `optimal` claims; a solve
# that runs out of it leaves the claim unchecked.
_RESOLVE_BUDGET = 10**6


@dataclass(frozen=True)
class ValidationReport:
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
    copies = [
        [vec_from_obj(p) for p in copy] for copy in _list_field(obj, "copies")
    ]
    if _int_field(obj, "count") != len(copies):
        failures.append("count: does not match the number of copies")
    for idx, points in enumerate(copies):
        _check_copy(space, points, f"copies[{idx}]", failures)
    supports = [frozenset(points) for points in copies]
    if _bool_field(obj, "distinct_supports") != (len(set(supports)) == len(supports)):
        failures.append("distinct_supports: does not match the listed copies")
    return failures


def _check_anchor_sequence(obj) -> list[str]:
    """Rebuild the sequence at the stated q and compare field by field."""
    failures: list[str] = []
    baton = Baton(steps=vec_from_obj(obj["steps"]))
    if baton.k < 1:
        raise ParseError("steps must be non-empty")
    try:
        check_combination_count(baton.steps)
    except PreconditionError as exc:
        return [f"steps: {exc}"]
    q = _int_field(obj, "q")
    stated = {
        "p": tuple(_int_value(v, "p") for v in _list_field(obj, "p")),
        "m": _int_field(obj, "m"),
        "q0": _int_field(obj, "q0"),
        "delta": parse_rational(obj["delta"]),
        "theta": parse_rational(obj["theta"]),
        "a": vec_from_obj(obj["a"]),
    }
    try:
        # The stated values bound the rebuild: a q whose numerators sum
        # past them is refused before its m + 1 values are built.
        seq = anchor_sequence_at(baton, q, max_m=len(stated["a"]) - 1)
    except PreconditionError as exc:
        return [f"q: {exc}"]
    where = "on the fast path" if seq.q0 == 0 else f"at q = {q}"
    for name, value in stated.items():
        if value != getattr(seq, name):
            failures.append(f"{name}: rebuild {where} differs")
    if failures:
        return failures
    report = verify_anchor_sequence(seq, baton)
    expected = {name: bool(result) for name, result in report.clauses().items()}
    stored = obj["verification"]
    if not isinstance(stored, dict) or stored != expected:
        failures.append("verification: recomputed clause results differ")
    return failures


def _lattice_index(box_size):
    """Read a coordinate as its box-lattice index, value / box_size.

    Each distinct string literal is parsed once. Only str keys are
    stored, so other values, such as a bool that parse_rational must
    reject, miss the memo and are parsed every time. An off-lattice value
    stays a Fraction and a non-positive box_size scales nothing, so
    PeriodicColoring rejects either with its own message.
    """
    scale = box_size if box_size > 0 else 1
    memo: dict[str, object] = {}

    def index(value):
        try:
            return memo[value]
        except (KeyError, TypeError):  # TypeError: an unhashable list
            pass
        q = parse_rational(value) / scale
        found = q.numerator if q.denominator == 1 else q
        if isinstance(value, str):
            memo[value] = found
        return found

    return index


def _check_periodic_coloring(obj) -> list[str]:
    failures: list[str] = []
    space = metric_space_from_obj({"distance_matrix": obj["distance_matrix"]})
    box_size = parse_rational(obj["box_size"])
    index = _lattice_index(box_size)
    classes = tuple(
        tuple(vec_from_obj(v, index) for v in vecs)
        for vecs in _list_field(obj, "classes")
    )
    if _int_field(obj, "class_count") != len(classes):
        failures.append("class_count: does not match the classes")
    try:
        coloring = PeriodicColoring(
            dim=_int_field(obj, "dim"),
            period=parse_rational(obj["period"]),
            box_size=box_size,
            classes=classes,
            window=parse_rational(obj["window"]),
            window_anchors=tuple(
                vec_from_obj(v, index) for v in _list_field(obj, "anchors")
            ),
        )
    except ValueError as exc:
        failures.append(f"coloring: {exc}")
        return failures
    try:
        coloring.check_partition()
    except ValueError as exc:
        failures.append(f"classes: {exc}")
    try:
        coloring.check_windows()
    except ValueError as exc:
        failures.append(f"anchors: {exc}")
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
    if k < 0 or n < 1:
        raise PreconditionError("grid needs k >= 0 and n >= 1")
    if (k > 0 and n > len(colors).bit_length()) or (k + 1) ** n != len(colors):
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
            if optimal != (color_count == resolved.color_count):
                failures.append("optimal: disagrees with an independent solve")
            elif optimal and lower_bound != color_count:
                failures.append("lower_bound: optimal certificates must match")
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
        vec = tuple(_int_value(v, "translates") for v in row)
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
    if size == lower:
        if not optimal:
            failures.append("optimal: disagrees with the slice bound")
    elif inst.point_count <= 30:
        resolved = exact_cover(inst, budget=_RESOLVE_BUDGET)
        if not resolved.budget_exhausted and optimal != (size == resolved.size):
            failures.append("optimal: disagrees with an independent solve")
    elif optimal:
        # Past 30 points a claim above the slice bound is not re-solved;
        # it is refuted only when a translate can go.
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
