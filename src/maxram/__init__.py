"""Exact machinery for max-norm Ramsey-type geometry.

Core objects: finite metric spaces and their isometric copies under the
Chebyshev distance, baton extraction from dense grid subsets, verified
anchor sequences, periodic avoidance colorings, exact small-case
chromatic numbers, and cube coverings of discrete tori.

Import each name from the module that defines it, for example
`from maxram.cover import exact_cover`. The root keeps only the three
names the benchmark's tests import from it.
"""

from .cover import CoverInstance, greedy_cover
from .validate import validate_certificate
