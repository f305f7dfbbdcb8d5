"""Exact machinery for max-norm Ramsey-type geometry.

Core objects: finite metric spaces and their isometric copies under the
Chebyshev distance, baton extraction from dense grid subsets, verified
anchor sequences, periodic avoidance colorings, exact small-case
chromatic numbers, and cube coverings of discrete tori.

Import each name from the module that defines it, for example
`from maxram.cover import exact_cover`. The root keeps only the three
names the benchmark's tests import from it, and resolves them on first
use (PEP 562), so importing the package loads no submodule.
"""


def __getattr__(name):
    if name in ("CoverInstance", "greedy_cover"):
        from . import cover as home
    elif name == "validate_certificate":
        from . import validate as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)
