"""Seeded op streams for the benchmark workloads.

Each workload is a fixed schedule of op slots.  A slot fixes the command,
the degree and a band of group sizes; the seed picks everything else: the
concrete group inside the band, the characters, and the config seed the
library uses for its own randomness.  Fixing the schedule keeps the cost of
a run nearly independent of the seed, so run-to-run spread measures the
program rather than the draw.

This module does its own exponent arithmetic and never imports lacuna: the
systems are built so that what the benchmark knows about them (their group,
their characters, that they are dissociated) holds by construction.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

# lacuna.groups.NAIVE_TRANSFORM_CUTOFF when the mixes were chosen; the
# extract mix puts ops on both sides of it.
NAIVE_CUTOFF = 1024


@dataclass(frozen=True)
class Op:
    """One CLI run: its config and what the benchmark knows about its answer."""

    command: str
    config: dict
    expected_rc: int
    orders: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]
    transforms: bool
    # the schedule class the op was drawn from, for the input-mix report
    slot: str

    @property
    def group_size(self) -> int:
        return math.prod(self.orders)

    @property
    def system_key(self) -> tuple:
        return (self.orders, self.exponents)


@dataclass(frozen=True)
class Workload:
    threads: int
    # ops per pass through the workload's schedule: every cycle has the same mix
    cycle: int
    # ops run by the traced run, each once untraced and once traced
    trace_ops: int
    # schedule slots of the untimed ops that set-up runs
    warm_slots: tuple[int, ...]


# -- extract: extract-verify on nondegenerate systems ------------------------------------

# |G| bands.  Naive cost grows as |G|^2, so the naive bands are narrow, or
# a run's cost would depend on the draw; "big" is the tail, just below the
# cutoff.  Above the cutoff, "fft" is narrow too because its ops are where
# the median falls, and "fft_top" reaches |G| = 4096.
_EXTRACT_BANDS = {
    "small": (121, 169),
    "mid": (480, 512),
    "big": (940, 1024),
    "fft": (2048, 2600),
    "fft_top": (3500, 4096),
}
# (band, d, construction) per op, cycled; every op has two characters.
# Sorted by cost, a cycle runs three d = 1 small ops, eight d = 2 FFT ops,
# then the dearer ones: the median falls in the middle of the FFT class,
# not at an edge where two classes meet.  The big naive ops cost about
# 0.8 s at d = 1, twice or thrice that at d = 2 or 3, and about twice as
# much on two coordinates as on one; keeping them cyclic at d = 1 makes the
# tail one class, and there are enough of them for the tail percentile to
# fall inside it.
_EXTRACT_SLOTS = (
    ("big", 1, "lacunary"), ("fft", 2, "lacunary"), ("small", 1, "lacunary"),
    ("fft", 2, "staircase"), ("small", 1, "staircase"), ("fft", 2, "lacunary"),
    ("mid", 2, "lacunary"), ("fft", 2, "staircase"), ("small", 3, "staircase"),
    ("fft", 2, "lacunary"), ("big", 1, "lacunary"), ("fft_top", 3, "lacunary"),
    ("small", 1, "lacunary"), ("fft", 2, "staircase"), ("fft", 2, "lacunary"),
    ("fft", 2, "staircase"),
)
EXTRACT_CHARACTERS = 2


def _coprime_units(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _dilated_lacunary(rng: random.Random, lo: int, hi: int, d: int, m: int):
    """Frequencies u * r^k mod n, k = 1..m, on Z_n with n drawn from [lo, hi].

    With r > 2d and 2d * (r + ... + r^m) < n, no relation with coefficients
    in [-2d, 2d] holds over the integers, so none holds mod n either, and
    multiplying by a unit u preserves that: the system is 2d-dissociated and
    every character has order n.
    """
    ratios = [r for r in range(2 * d + 1, 2 * d + 4) if 2 * d * sum(r**k for k in range(1, m + 1)) < lo]
    r = rng.choice(ratios)
    n = rng.choice([n for n in range(lo, hi + 1) if math.gcd(n, r) == 1])
    u = rng.choice(_coprime_units(n))
    exponents = tuple((u * r**k % n,) for k in range(1, m + 1))
    return (n,), exponents


@lru_cache(maxsize=None)
def _factor_pairs(lo: int, hi: int, least: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (a, b)
        for a in range(least, hi // least + 1)
        for b in range(max(least, -(-lo // a)), hi // a + 1)
    )


def _staircase(rng: random.Random, lo: int, hi: int, d: int, m: int):
    """Staircase system on Z_a x Z_b, a * b in [lo, hi], every order above 2d.

    Character i owns coordinate i and has a unit digit there; it has random
    digits on the coordinates of the characters before it and zeros on those
    of the characters after it.  In a relation with coefficients in [-2d, 2d],
    the last character with a nonzero coefficient is alone on its own
    coordinate, where its coefficient times a unit digit is not 0 modulo an
    order above 2d.  So the system is 2d-dissociated, and each character's
    order is at least that of its own coordinate.
    """
    if m != 2:
        raise ValueError("staircase systems here have two characters")
    orders = rng.choice(_factor_pairs(lo, hi, 2 * d + 1))
    first = (rng.choice(_coprime_units(orders[0])), 0)
    second = (rng.randrange(orders[0]), rng.choice(_coprime_units(orders[1])))
    return orders, (first, second)


def _extract_op(rng: random.Random, index: int) -> Op:
    band, d, construction = _EXTRACT_SLOTS[index % len(_EXTRACT_SLOTS)]
    lo, hi = _EXTRACT_BANDS[band]
    build = _dilated_lacunary if construction == "lacunary" else _staircase
    orders, exponents = build(rng, lo, hi, d, EXTRACT_CHARACTERS)
    config = {
        "command": "extract-verify",
        "system": {"exponents": [list(e) for e in exponents], "orders": list(orders)},
        "d": d,
        "trials": 1,
        "y_samples": 10,
        "seed": rng.randrange(2**31),
    }
    return Op("extract-verify", config, 0, orders, exponents, transforms=True, slot=band)


# -- estimate: Khinchin, Sidon and discretization on Rademacher hosts --------------------

_ESTIMATE_KINDS = ("khinchin4", "sidon", "khinchin6", "discretize")
# m = 8 twice: its ops form the cluster of similar cost where the median falls
_ESTIMATE_HOSTS = (7, 8, 9, 8, 10)


def _estimate_op(rng: random.Random, index: int) -> Op:
    kind = _ESTIMATE_KINDS[index % len(_ESTIMATE_KINDS)]
    m = _ESTIMATE_HOSTS[(index // len(_ESTIMATE_KINDS)) % len(_ESTIMATE_HOSTS)]
    config = {
        "system": {"rademacher": {"count": m}},
        "d": 2,
        "chaos": "tetrahedral",
        "trials": 8,
        "seed": rng.randrange(2**31),
    }
    if kind.startswith("khinchin"):
        config.update(command="khinchin", q=int(kind[-1]), kappa_model=10.0)
    elif kind == "sidon":
        # five trials bring a Sidon op to the cost of an eight-trial Khinchin op
        # at the same m, so the m = 10 ops that form the tail are one class
        config.update(command="sidon", c_model=1.0, trials=5)
    else:
        n = m * (m - 1) // 2
        config.update(command="discretize-scan", q=4, m_grid=[n, 2 * n, n * n, 2 * n * n])
    exponents = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    return Op(config["command"], config, 0, (2,) * m, exponents, transforms=False, slot=f"m={m}")


_MAKERS = {"extract": _extract_op, "estimate": _estimate_op}

WORKLOADS = {
    # warm-up: a cheap FFT op and a cheap naive op
    "extract": Workload(threads=1, cycle=len(_EXTRACT_SLOTS), trace_ops=48, warm_slots=(1, 2)),
    # warm-up: each command once, on the smallest host
    "estimate": Workload(
        threads=2,
        cycle=len(_ESTIMATE_KINDS) * len(_ESTIMATE_HOSTS),
        trace_ops=40,
        warm_slots=(0, 1, 2, 3),
    ),
}


def stream(workload: str, seed: int) -> Iterator[Op]:
    """The workload's endless op stream; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    make = _MAKERS[workload]
    return (make(rng, i) for i in itertools.count())


def generate(workload: str, seed: int, count: int) -> list[Op]:
    """The first ``count`` ops of the workload's stream."""
    return list(itertools.islice(stream(workload, seed), count))


def warmup_ops(workload: str) -> list[Op]:
    """Ops from the workload's own schedule, run untimed in set-up.

    They are the same for every seed, so that set-up time does not depend
    on the draw, and no seed's stream yields them.
    """
    rng = random.Random(f"{workload}:warm-up")
    return [_MAKERS[workload](rng, i) for i in WORKLOADS[workload].warm_slots]
