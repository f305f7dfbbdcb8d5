"""Canonical certificates used by the validator tests and the final gate.

The instances are chosen rigid on purpose: every single-field mutation of
any of them is genuinely invalid, so a validator that accepts a mutant
has a real hole. One-dimensional point data matters here, since in
higher dimension a coordinate bump can leave every pairwise max-norm
distance unchanged.
"""

from fractions import Fraction

from maxram.anchors import build_anchor_sequence
from maxram.chromatic import grid_chromatic
from maxram.colorings import avoidance_coloring
from maxram.cover import CoverInstance, exact_cover
from maxram.io import (
    anchor_sequence_certificate,
    chromatic_certificate,
    copy_embedding_certificate,
    copy_list_certificate,
    periodic_coloring_certificate,
    torus_cover_certificate,
)
from maxram.metric import Baton, CopyEmbedding, PointSet, find_copies


def line_points(*coords) -> PointSet:
    return tuple((Fraction(c),) for c in coords)


def canonical_certificates() -> dict[str, dict]:
    certs = {}

    two_step = Baton(steps=(Fraction(1), Fraction(2))).as_metric_space()
    line = PointSet(dim=1, points=line_points(0, 1, 3))
    emb = CopyEmbedding(two_step, line, find_copies(two_step, line, limit=1)[0])
    certs["copy_embedding"] = copy_embedding_certificate(emb)

    unit_pair = Baton.unit(1).as_metric_space()
    line3 = PointSet(dim=1, points=line_points(0, 1, 2))
    found = find_copies(unit_pair, line3, distinct_supports=True)
    embeddings = [CopyEmbedding(unit_pair, line3, t) for t in found]
    certs["copy_list"] = copy_list_certificate(unit_pair, embeddings)

    baton = Baton(steps=(Fraction(1), Fraction(3, 2)))
    seq = build_anchor_sequence(baton, faithful=True)
    certs["anchor_sequence"] = anchor_sequence_certificate(baton, seq)

    certs["periodic_coloring"] = periodic_coloring_certificate(
        avoidance_coloring(unit_pair, 2), unit_pair  # the cube tiling
    )

    cert = grid_chromatic(1, 2, unit_pair)
    certs["chromatic"] = chromatic_certificate(1, 2, unit_pair, cert)

    inst = CoverInstance(m=3, d=2, n=2)
    certs["torus_cover"] = torus_cover_certificate(inst, exact_cover(inst))

    return certs


def mutate_leaf(value):
    """The single-field mutation operators: int +1, bool flip, rational +1,
    string garble. Returns None for unmutatable values."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, str):
        try:
            num, _, den = value.partition("/")
            frac = Fraction(int(num), int(den) if den else 1) + 1
            return str(frac.numerator) if frac.denominator == 1 else str(frac)
        except ValueError:
            return value + "x"
    return None


def leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(obj, list):
        for idx, value in enumerate(obj):
            yield from leaf_paths(value, path + (idx,))
    else:
        yield path, obj


def apply_mutation(obj, path, new_value):
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new_value
