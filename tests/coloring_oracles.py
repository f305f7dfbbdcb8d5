"""A Fraction-level color lookup for periodic colorings, shared by the
test modules."""

from fractions import Fraction

from maxram.errors import DomainError, PreconditionError


def owner_table(coloring) -> dict[tuple[int, ...], int]:
    """Box index vector -> owning color; a box owned twice is refused."""
    table = {}
    for color, vecs in enumerate(coloring.classes):
        for vec in vecs:
            if vec in table:
                raise DomainError(f"box {vec} owned twice")
            table[vec] = color
    return table


def color_of(coloring, point) -> int:
    """Color of an arbitrary point of R^dim, by periodicity."""
    if len(point) != coloring.dim:
        raise PreconditionError("point dimension mismatch")
    cell = tuple(
        int(Fraction(c) % coloring.period // coloring.box_size) for c in point
    )
    owner = owner_table(coloring).get(cell)
    if owner is None:
        raise DomainError(f"box {cell} has no color")
    return owner
