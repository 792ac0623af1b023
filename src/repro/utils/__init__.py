"""Small shared utilities used across the reproduction.

The utilities live in their own package so that substrate packages
(``repro.nn``, ``repro.graph`` etc.) do not depend on each other for
incidental helpers such as seeded random number generation or timing.
"""

from repro.utils.cores import usable_cores
from repro.utils.rng import SeededRNG, temp_seed
from repro.utils.text import (
    camel_and_snake_split,
    normalise_whitespace,
    truncate,
)
from repro.utils.timing import Stopwatch, timed

__all__ = [
    "SeededRNG",
    "temp_seed",
    "Stopwatch",
    "timed",
    "usable_cores",
    "camel_and_snake_split",
    "normalise_whitespace",
    "truncate",
]
