"""Seeded trials, run in order in the calling thread.

Every randomized study derives one PRNG stream per trial from
``(seed, trial_index)`` and reduces the trial results in trial order, so a
run reproduces bit-for-bit.

``map_indexed`` is a plain list comprehension.  It serves the Sidon phase
search and the discretization scan, whose trials run one after another;
the Khinchin trials step together instead (see ``analysis``).  It stays a
named function because the benchmark harness (``bench/tracing.py``) wraps
it to count the trials and time each one as a span.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trial."""
    return np.random.default_rng([int(seed), int(index)])


def map_indexed(fn: Callable[[int], T], count: int) -> list[T]:
    """[fn(0), .., fn(count-1)]."""
    return [fn(i) for i in range(count)]
