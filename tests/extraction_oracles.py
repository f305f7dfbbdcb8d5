"""The Fraction form of the general baton extractor, kept as the oracle
for the integer one in maxram.extraction: the anchor values become
Fractions, each point's anchor indices are looked up by value, and each
marked copy point is found in the subset by a linear scan."""

from anchor_sets import anchor_values, marked_steps
from maxram.errors import DomainError, PreconditionError
from maxram.extraction import AnchorSet, _extract, _require_dense
from maxram.metric import Baton, CopyEmbedding, PointSet


def fraction_extract_general_baton(
    subset: PointSet, baton: Baton, anchors: AnchorSet
) -> CopyEmbedding:
    """extract_general_baton on Fraction values, refusing what it refuses
    with the same messages."""
    values, marks = anchor_values(anchors), anchors.marks
    if baton.k + 1 != len(marks):
        raise PreconditionError("anchor marks do not match the baton length")
    if marked_steps(anchors) != baton.steps:
        raise PreconditionError("anchor marked gaps do not match the baton steps")
    index_of_value = {v: i for i, v in enumerate(values)}
    top = len(values) - 1
    n = subset.dim
    _require_dense(len(subset), top, n)

    grid_elems = set()
    for p in subset.points:
        try:
            grid_elems.add(tuple(index_of_value[c] for c in p))
        except KeyError:
            raise DomainError(
                f"point ({', '.join(map(str, p))}) has a coordinate outside the anchors"
            )
    chain = _extract(grid_elems, n, top)
    mapped = [tuple(values[c] for c in chain[i]) for i in marks]
    indices = tuple(subset.points.index(p) for p in mapped)
    return CopyEmbedding(baton.as_metric_space(), subset, indices)
