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

Every term is one character, the product of its bases' powers, so it has
a position in the dual group: its summed exponent row, reduced modulo the
orders, read as a mixed-radix code in the dual-group enumeration.  Two
terms are the same character exactly when their positions are equal (on
base-2 Rademacher systems every r_i^2 is the trivial character), and the
Fourier table of a polynomial is its coefficients added up at the
positions of their terms.

One rule gives a term's value table: it is the table of the character at
the term's position, built by the one builder that also serves
``Character.values``.  ``values_matrix``, ``ChaosPolynomial.values`` and
both extraction routes take their term tables this way, one at a time.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .dissociation import CharacterSystem
from .errors import DegreeExceedsSystem
from .groups import _character_table, _scatter

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


def require_indices(m: int, indices: Sequence, degree: int | None = None):
    """ValueError unless the list names at least one term of an m-character system:
    bases in 0..m-1, no two tuples alike once sorted, each of length ``degree`` if given."""
    if not len(indices):
        raise ValueError("indices must name at least one term")
    seen: set[FullIndex] = set()
    for index in indices:
        index = tuple(sorted(map(int, index)))
        if degree is not None and len(index) != degree:
            raise ValueError(f"index {index} has degree {len(index)}, expected {degree}")
        if index and not 0 <= index[0] <= index[-1] < m:
            raise ValueError(f"index {index} references a character outside 0..{m - 1}")
        if index in seen:
            raise ValueError(f"duplicate index {index}")
        seen.add(index)


def _term_tables(system: CharacterSystem, indices: Sequence) -> Iterator[np.ndarray]:
    """``term_values`` of each index in turn: the table of the character at its position.

    Each table is built when it is asked for, so the generator holds none.
    """
    group = system.group
    rows = np.unravel_index(term_positions(system, indices), group.orders)
    for row in zip(*(axis.tolist() for axis in rows)):
        yield _character_table(group, row)


def term_values(system: CharacterSystem, index: Sequence[int]) -> np.ndarray:
    """Value table of prod_b gamma_b^(multiplicity of b in the index)."""
    return next(_term_tables(system, [index]))


def _synthesize(polynomial: ChaosPolynomial, rows, out: np.ndarray) -> np.ndarray:
    """Write sum_t rows[r][t] * (term t's value table) over ``out[r]``, for each row r.

    Term t's table is built once and added into every row, in term order,
    through one |G| scratch table; it is dropped before the next term's is
    built, so no more than one term table is held at a time.
    """
    out.fill(0)
    scratch = np.empty(polynomial.system.group.size, dtype=np.complex128)
    # next() rather than enumerate, which would hold the last table while the next is built
    tables = _term_tables(polynomial.system, polynomial.indices)
    for t in range(len(polynomial.indices)):
        table = next(tables)
        for row, coefficients in zip(out, rows):
            np.multiply(table, coefficients[t], out=scratch)
            row += scratch
        del table
    return out


def term_positions(system: CharacterSystem, indices: Sequence[Sequence[int]]) -> np.ndarray:
    """Dual-group position of every term, as one int64 mixed-radix code per index.

    The code is that of the summed exponent row of the index's bases, taken
    modulo the orders, in the dual-group enumeration, so it indexes a
    Fourier table directly.  Only exponent arithmetic is done, no |G| work;
    an empty index list gives an empty array.
    """
    if not len(indices):
        return np.zeros(0, dtype=np.int64)
    rows = system.exponent_matrix[np.asarray(indices, dtype=np.int64)].sum(axis=1)
    orders = system.group.orders
    return np.ravel_multi_index(tuple((rows % orders).T), orders).astype(np.int64, copy=False)


class ChaosPolynomial:
    """Sparse chaos polynomial: sorted index tuples and an aligned coefficient vector.

    The constructor takes a mapping from index tuples, entries in any order,
    to numbers.  ``indices`` holds the sorted tuples in increasing order and
    ``coefficients`` the read-only complex128 vector aligned with them.
    Keys that break ``require_indices`` at this degree raise ValueError.
    """

    def __init__(self, system: CharacterSystem, degree: int, coefficients: Mapping):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.system, self.degree = system, degree
        terms = sorted(
            ((tuple(sorted(map(int, key))), complex(c)) for key, c in coefficients.items()),
            key=lambda term: term[0],
        )
        self.indices: tuple[FullIndex, ...] = tuple(index for index, _ in terms)
        if self.indices:  # a polynomial with no terms is zero
            require_indices(len(system), self.indices, degree)
        self.coefficients = np.array([c for _, c in terms], dtype=np.complex128)
        self.coefficients.flags.writeable = False

    def values(self) -> np.ndarray:
        """Value table over the whole group in element enumeration order."""
        out = np.empty((1, self.system.group.size), dtype=np.complex128)
        return _synthesize(self, [self.coefficients], out)[0]

    @cached_property
    def positions(self) -> np.ndarray:
        """``term_positions`` of the indices, read-only and aligned with ``coefficients``."""
        positions = term_positions(self.system, self.indices)
        positions.flags.writeable = False
        return positions

    def spectrum(self) -> np.ndarray:
        """The exact Fourier table: every coefficient added at its term's position.

        Terms that are the same character add up.  It is the Fourier table
        of ``values()``, made with no transform and no value table.
        """
        return _scatter(self.positions, self.coefficients, self.system.group.size)


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
