"""Tetrahedral and polynomial chaoses over a character system.

A degree-d chaos polynomial is a linear combination of d-fold products of
system characters,

    Q(x) = sum_{0 <= k_1 <= ... <= k_d <= N} A_{k_1..k_d}
           * gamma_{k_1}(x) * ... * gamma_{k_d}(x),

with complex coefficients.  A term is indexed by its nondecreasing tuple
(k_1 .. k_d); the paper's compressed form (distinct bases k_1 < ... < k_s
with multiplicities alpha_1 .. alpha_s summing to d) is the tuple's runs of
equal entries.  Tetrahedral chaoses are the special case of strictly
increasing tuples.

A polynomial stores its terms sparsely: the sorted index tuples in
increasing order, and one coefficient vector aligned with them.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from .dissociation import CharacterSystem
from .errors import DegreeExceedsSystem
from .groups import DensityMeasure, char_pow

FullIndex = tuple[int, ...]


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


def term_values(system: CharacterSystem, index: Sequence[int]) -> np.ndarray:
    """Value table of prod_b gamma_b^(multiplicity of b in the index), bases increasing."""
    out = np.ones(system.group.size, dtype=np.complex128)
    for b, run in itertools.groupby(sorted(index)):
        out = out * char_pow(system.characters[b], len(list(run))).values
    return out


class ChaosPolynomial:
    """Sparse chaos polynomial: sorted index tuples and an aligned coefficient vector.

    The constructor takes a mapping from index tuples, entries in any order,
    to numbers.  ``indices`` holds the sorted tuples in increasing order and
    ``coefficients`` the read-only complex128 vector aligned with them.  A
    wrong degree, a base outside the system, or two keys that sort to the
    same tuple raise ValueError.
    """

    def __init__(self, system: CharacterSystem, degree: int, coefficients: Mapping):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.system, self.degree, m = system, degree, len(system)
        terms = sorted(
            ((tuple(sorted(map(int, key))), complex(c)) for key, c in coefficients.items()),
            key=lambda term: term[0],
        )
        self.indices: tuple[FullIndex, ...] = tuple(index for index, _ in terms)
        for t, index in enumerate(self.indices):
            if len(index) != degree:
                raise ValueError(f"index {index} has degree {len(index)}, expected {degree}")
            if not 0 <= index[0] <= index[-1] < m:
                raise ValueError(f"index {index} references a character outside 0..{m - 1}")
            if t and index == self.indices[t - 1]:
                raise ValueError(f"duplicate index {index}")
        self.coefficients = np.array([c for _, c in terms], dtype=np.complex128)
        self.coefficients.flags.writeable = False

    def values(self) -> np.ndarray:
        """Value table over the whole group in element enumeration order."""
        out = np.zeros(self.system.group.size, dtype=np.complex128)
        for index, coeff in zip(self.indices, self.coefficients.tolist()):
            if coeff:
                out += coeff * term_values(self.system, index)
        return out

    def as_density(self) -> DensityMeasure:
        return DensityMeasure(self.system.group, self.values())


def decompose(polynomial: ChaosPolynomial) -> list[ChaosPolynomial]:
    """Split Q into homogeneous parts Q^(1) .. Q^(d) by distinct-base count.

    Part s is itself a degree-d chaos polynomial, holding the terms of Q
    whose indices have exactly s distinct bases, with their coefficients
    unchanged, so the parts sum back to Q pointwise and term multisets are
    preserved exactly.
    """
    terms = [
        (len(set(index)), index, coeff)
        for index, coeff in zip(polynomial.indices, polynomial.coefficients.tolist())
    ]
    return [
        ChaosPolynomial(
            polynomial.system, polynomial.degree, {index: c for k, index, c in terms if k == s}
        )
        for s in range(1, polynomial.degree + 1)
    ]


def random_chaos_polynomial(
    system: CharacterSystem, degree: int, rng: np.random.Generator
) -> ChaosPolynomial:
    """Unit-norm standard complex Gaussian coefficients on the full index set."""
    indices = enumerate_polynomial(len(system), degree)
    coeffs = rng.standard_normal(len(indices)) + 1j * rng.standard_normal(len(indices))
    coeffs = coeffs / np.linalg.norm(coeffs)
    return ChaosPolynomial(system, degree, dict(zip(indices, coeffs)))
