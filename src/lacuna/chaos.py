"""Tetrahedral and polynomial chaoses over a character system.

A degree-d chaos polynomial is a linear combination of d-fold products of
system characters,

    Q(x) = sum_{0 <= k_1 <= ... <= k_d <= N} A_{k_1..k_d}
           * gamma_{k_1}(x) * ... * gamma_{k_d}(x),

with complex coefficients.  Indices come in two equivalent shapes: the full
nondecreasing tuple (k_1 .. k_d) and the compressed form (distinct bases
k_1 < ... < k_s with multiplicities alpha_1 .. alpha_s summing to d).
Tetrahedral chaoses are the special case of strictly increasing tuples.

Coefficients are stored sparsely, keyed by compressed index; dense index
enumerations are materialized only on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dissociation import CharacterSystem
from .errors import DegreeExceedsSystem
from .groups import DensityMeasure, char_pow

FullIndex = tuple[int, ...]


@dataclass(frozen=True)
class CompressedIndex:
    """Distinct bases with multiplicities; bijective with full sorted tuples."""

    bases: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.bases) != len(self.exponents):
            raise ValueError("bases and exponents must have equal length")
        if any(e < 1 for e in self.exponents):
            raise ValueError("multiplicities must be >= 1")
        if any(b < 0 for b in self.bases):
            raise ValueError("bases must be >= 0")
        if any(a >= b for a, b in zip(self.bases, self.bases[1:])):
            raise ValueError("bases must be strictly increasing")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def distinct_count(self) -> int:
        return len(self.bases)

    def expand(self) -> FullIndex:
        return tuple(
            b for b, e in zip(self.bases, self.exponents) for _ in range(e)
        )

    @classmethod
    def from_full(cls, index: Sequence[int]) -> "CompressedIndex":
        ordered = tuple(sorted(int(k) for k in index))
        bases = []
        exponents = []
        for k, run in itertools.groupby(ordered):
            bases.append(k)
            exponents.append(len(tuple(run)))
        return cls(tuple(bases), tuple(exponents))


def compress(index) -> CompressedIndex:
    """Full tuple -> compressed form; compressed input passes through."""
    if isinstance(index, CompressedIndex):
        return index
    return CompressedIndex.from_full(tuple(index))


def enumerate_tetrahedral(m: int, d: int) -> list[FullIndex]:
    """All strictly increasing d-tuples from {0..m-1}; count C(m, d)."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if d > m:
        raise DegreeExceedsSystem(
            f"a tetrahedral chaos of degree {d} needs at least {d} characters, got {m}"
        )
    return list(itertools.combinations(range(m), d))


def enumerate_polynomial(m: int, d: int) -> list[FullIndex]:
    """All nondecreasing d-tuples from {0..m-1}; count C(m+d-1, d)."""
    if m < 1:
        raise ValueError(f"system size must be >= 1, got {m}")
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    return list(itertools.combinations_with_replacement(range(m), d))


def term_values(system: CharacterSystem, index: CompressedIndex) -> np.ndarray:
    """Value table of gamma_{k_1}^{a_1} * ... * gamma_{k_s}^{a_s} over the group."""
    out = np.ones(system.group.size, dtype=np.complex128)
    for b, e in zip(index.bases, index.exponents):
        out = out * char_pow(system.characters[b], e).values
    return out


def _validate_terms(system, degree, coefficients):
    m = len(system)
    cleaned: dict[CompressedIndex, complex] = {}
    for key, value in coefficients.items():
        ci = compress(key)
        if ci.degree != degree:
            raise ValueError(f"index {ci} has degree {ci.degree}, expected {degree}")
        if ci.bases[-1] >= m:
            raise ValueError(f"index {ci} references character {ci.bases[-1]} >= m={m}")
        if ci in cleaned:
            raise ValueError(f"duplicate index {ci}")
        cleaned[ci] = complex(value)
    return cleaned


@dataclass(eq=False)
class ChaosPolynomial:
    """Sparse chaos polynomial: coefficient map on compressed indices.

    Keys may be given as full tuples or CompressedIndex; they are stored
    compressed.
    """

    system: CharacterSystem
    degree: int
    coefficients: dict[CompressedIndex, complex]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        self.coefficients = _validate_terms(self.system, self.degree, self.coefficients)

    def terms(self) -> list[tuple[CompressedIndex, complex]]:
        """Terms in canonical order (sorted by expanded tuple)."""
        return sorted(self.coefficients.items(), key=lambda kv: kv[0].expand())

    def coefficient_vector(self) -> np.ndarray:
        return np.array([c for _, c in self.terms()], dtype=np.complex128)

    def values(self) -> np.ndarray:
        """Value table over the whole group in element enumeration order."""
        out = np.zeros(self.system.group.size, dtype=np.complex128)
        for index, coeff in self.coefficients.items():
            if coeff:
                out += coeff * term_values(self.system, index)
        return out

    def as_density(self) -> DensityMeasure:
        return DensityMeasure(self.system.group, self.values())


def decompose(polynomial: ChaosPolynomial) -> list[ChaosPolynomial]:
    """Split Q into homogeneous parts Q^(1) .. Q^(d) by distinct-base count.

    Part s is itself a degree-d chaos polynomial, holding the terms of Q
    whose indices have exactly s distinct bases.  The coefficient of a part
    is the coefficient of the full polynomial under the repetition-pattern
    relabeling, so the parts sum back to Q pointwise and term multisets
    are preserved exactly.
    """
    buckets: list[dict[CompressedIndex, complex]] = [
        {} for _ in range(polynomial.degree)
    ]
    for index, coeff in polynomial.coefficients.items():
        buckets[index.distinct_count - 1][index] = coeff
    return [ChaosPolynomial(polynomial.system, polynomial.degree, bucket) for bucket in buckets]


def random_chaos_polynomial(
    system: CharacterSystem, degree: int, rng: np.random.Generator
) -> ChaosPolynomial:
    """Unit-norm standard complex Gaussian coefficients on the full index set."""
    indices = enumerate_polynomial(len(system), degree)
    coeffs = rng.standard_normal(len(indices)) + 1j * rng.standard_normal(len(indices))
    coeffs = coeffs / np.linalg.norm(coeffs)
    return ChaosPolynomial(system, degree, dict(zip(indices, coeffs)))
