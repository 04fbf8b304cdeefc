"""Finite abelian groups, their characters, and exact Fourier analysis.

The ambient group is always a finite direct product ``Z_{m_1} x ... x Z_{m_r}``
with every factor order at least 2.  Elements are digit vectors, characters
are exponent vectors, and both are enumerated in lexicographic digit order
(first digit most significant).  A character acts by

    chi_a(g) = prod_i exp(2*pi*i * a_i * g_i / m_i),

so the dual group is again ``Z_{m_1} x ... x Z_{m_r}`` and shares the
element enumeration.  Measures are stored as densities against normalized
Haar measure: a vector of complex values, one per element, where every
point carries mass ``1/|G|``.

Conventions fixed once for the whole package:

* ``fhat(chi) = (1/|G|) * sum_g f(g) * conj(chi(g))``, so a density of mass
  one has ``fhat(trivial) = 1``.
* ``(f * h)(x) = (1/|G|) * sum_z f(x - z) * h(z)``, which makes the
  convolution theorem ``(f * h)^ = fhat * hhat`` hold with no stray
  constants.

Every transform, at every group size, runs as a per-coordinate
mixed-radix FFT (Cooley and Tukey, 1965) over the factor grid, and
convolution goes through the transform pair.  The FFT is trusted because
the test suite pins it against a naive O(|G|^2) DFT and a direct spatial
convolution kept there as oracles.  Roots of unity for pointwise character
evaluation are precomputed once per cyclic factor, so repeated evaluation
does not accumulate phase drift.

All types are immutable values and every operation is a pure function, so
concurrent callers need no locking.  The only state filled in later is a
group's size and its per-factor root tables, O(m_1 + ... + m_r) numbers.
A value table belongs to the call that builds it; no character keeps one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import GroupMismatch, OrderTooSmall, SizeLimitExceeded

DEFAULT_SIZE_LIMIT = 1 << 20

# cells of one complex table (|G| x basis size, or points x probes) a computation may allocate
TABLE_CELL_LIMIT = 64 * DEFAULT_SIZE_LIMIT

# every transform is an FFT; bench/tracing.py still reads this name, nothing in lacuna does
NAIVE_TRANSFORM_CUTOFF = 0


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups, identified by its factor orders."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders:
            raise OrderTooSmall("a group needs at least one cyclic factor")
        if any(int(m) < 2 for m in self.orders):
            raise OrderTooSmall(f"every factor order must be >= 2, got {self.orders}")
        object.__setattr__(self, "orders", tuple(int(m) for m in self.orders))

    @cached_property
    def size(self) -> int:
        return math.prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def roots(self) -> tuple[np.ndarray, ...]:
        """Per-factor tables of the m_i-th roots of unity.

        Quarter-turn roots are stored exactly (1, i, -1, -i), so groups of
        order 2 and 4 evaluate without rounding noise.
        """
        quarter = np.array([1, 1j, -1, -1j], dtype=np.complex128)
        tables = []
        for m in self.orders:
            t = np.exp(2j * np.pi * np.arange(m) / m)
            exact = np.arange(0, m, m // math.gcd(m, 4))  # every k with 4k = 0 mod m
            t[exact] = quarter[4 * exact // m]
            t.flags.writeable = False
            tables.append(t)
        return tuple(tables)

    def character(self, exponents: Sequence[int]) -> "Character":
        return Character(self, tuple(int(a) for a in exponents))


def make_group(orders: Sequence[int]) -> FiniteAbelianGroup:
    """Build Z_{m_1} x ... x Z_{m_r}; elements enumerate in lexicographic digit order.

    The size limit bounds the value tables, and it also keeps the int64
    exponent sums of the dissociation check exact: they reach about
    m * 2 * lcm(orders) * max(order), which wraps once a cyclic modulus
    passes about 2^30.  A larger limit needs its own bound on those sums.
    """
    group = FiniteAbelianGroup(tuple(int(m) for m in orders))
    if group.size > DEFAULT_SIZE_LIMIT:
        raise SizeLimitExceeded(
            f"group size {group.size} exceeds the limit {DEFAULT_SIZE_LIMIT}"
        )
    return group


@dataclass(frozen=True)
class Character:
    """Exponent vector a = (a_1 .. a_r); evaluates to a product of unit roots."""

    group: FiniteAbelianGroup
    exponents: tuple[int, ...]
    # least t >= 1 with chi^t trivial; always divides |G|
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.exponents) != self.group.rank:
            raise ValueError(
                f"expected {self.group.rank} exponents, got {len(self.exponents)}"
            )
        orders = self.group.orders
        exponents = tuple(int(a) % m for a, m in zip(self.exponents, orders))
        object.__setattr__(self, "exponents", exponents)
        order = math.lcm(*(m // math.gcd(a, m) for a, m in zip(exponents, orders)))
        object.__setattr__(self, "order", order)

    @property
    def is_trivial(self) -> bool:
        return all(a == 0 for a in self.exponents)

    def values(self) -> np.ndarray:
        """A fresh read-only |G| value table, in element enumeration order, on each call."""
        out = _character_table(self.group, self.exponents)
        out.flags.writeable = False
        return out


def _character_table(group: FiniteAbelianGroup, exponents: Sequence[int]) -> np.ndarray:
    """A fresh |G| value table, in element order, of the character with these reduced exponents.

    The one place a character's table is built.  Coordinate i's roots
    multiply one flat table in place through its (-1, m_i, inner) view,
    axis by axis, as a broadcast over the factor grid would; a zero
    exponent is skipped.
    """
    out = np.ones(group.size, dtype=np.complex128)
    inner = group.size
    for a, m, roots in zip(exponents, group.orders, group.roots):
        inner //= m
        if a:
            view = out.reshape(-1, m, inner)
            view *= roots[(a * np.arange(m)) % m][:, None]
    return out


def _scatter(positions: np.ndarray, values: np.ndarray, size: int, out=None) -> np.ndarray:
    """A |G| table holding the sum of the values at each position, added in the order given.

    A 2-D ``values`` gives one table per row; ``out``, when given, is added
    into.  One ``np.add.at`` at the flat indices ``row * size + position``
    of the raveled table adds each cell's values in their order, as one
    scatter per row would; a row slice in the index is ten times slower.
    """
    if out is None:
        out = np.zeros(values.shape[:-1] + (size,), dtype=np.result_type(values, 0.0))
    flat = np.arange(0, out.size, size)[:, None] + positions
    np.add.at(out.reshape(-1), flat.reshape(-1), values.reshape(-1))
    return out


@dataclass(eq=False)
class DensityMeasure:
    """Measure on G given by its density against normalized Haar measure.

    ``values[i]`` is the density at the i-th element; each point carries
    mass 1/|G|, so the total mass is the mean of the values and the total
    variation is the mean of their moduli.
    """

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.group.size,):
            raise ValueError(
                f"density needs {self.group.size} values, got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        self.values = vals

    @property
    def mass(self) -> complex:
        return complex(self.values.mean())

    @property
    def total_variation(self) -> float:
        return float(np.abs(self.values).mean())

    def is_probability(self) -> bool:
        """Real within 1e-10, bounded below by -1e-10, and mass within 1e-10 of 1."""
        tol = 1e-10
        return (
            float(np.abs(self.values.imag).max()) <= tol
            and float(self.values.real.min()) >= -tol
            and abs(self.mass - 1) <= tol
        )


@dataclass(eq=False)
class FourierTable:
    """Fourier coefficients indexed by the dual-group enumeration."""

    group: FiniteAbelianGroup
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if arr.shape != (self.group.size,):
            raise ValueError("coefficient table must cover the full dual group")
        arr.flags.writeable = False
        self.coeffs = arr


def fourier(f: DensityMeasure) -> FourierTable:
    """Full Fourier table fhat(chi) = <f, chi> under normalized Haar."""
    group = f.group
    coeffs = np.fft.fftn(f.values.reshape(group.orders)).ravel() / group.size
    return FourierTable(group, coeffs)


def inverse_fourier(table: FourierTable) -> DensityMeasure:
    """Pointwise synthesis f(g) = sum_chi fhat(chi) chi(g)."""
    group = table.group
    vals = np.fft.ifftn(table.coeffs.reshape(group.orders)).ravel() * group.size
    return DensityMeasure(group, vals)


def convolve(f: DensityMeasure, h: DensityMeasure) -> DensityMeasure:
    """(f * h)(x) = (1/|G|) sum_z f(x - z) h(z), through the transform pair."""
    if f.group != h.group:
        raise GroupMismatch("densities live on different groups")
    product = FourierTable(f.group, fourier(f).coeffs * fourier(h).coeffs)
    return inverse_fourier(product)
