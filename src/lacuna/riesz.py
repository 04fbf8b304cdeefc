"""Riesz-product densities, modulated variants, and extraction measures.

For a character system {gamma_1 .. gamma_m} the degree-d Riesz product
is the pointwise product of one factor per character,

    rho(x) = prod_i [ 1 + (1/2d) * ( sum_{k=1..d} gamma_i^k(x)
                                     + sum_{k in S'_i} gamma_i^{-k}(x) ) ],

where S'_i keeps exactly the inverse powers gamma_i^{-k} that do not
coincide with any forward power gamma_i^j, j = 1..d.  Every factor is a
real trigonometric expression bounded below by 0.  When the system is
d-dissociated and every order exceeds d, only the all-zero exponent tuple
of the expanded product gives the trivial character, so the mass is 1 and
rho is a probability density.  Both densities are built for any system,
but without dissociation the mass may leave 1: on Z_5 with the characters
1 and 2 at d = 2 it is 1.25.

The modulated variant attaches a unimodular weight to every power.  With
w = exp(2*pi*i/(2d+1)) and a digit vector y (one digit per character), the
weight on gamma_i^{+-k} is w^{+-k*y_i}, mimicking an evaluation of
generalized Rademacher functions with base 2d+1 at y:

    rho_y(x) = prod_i [ 1 + (1/2d) * sum_{k in S''_i}
                        ( w^{k*y_i} gamma_i^k(x) + w^{-k*y_i} gamma_i^{-k}(x) ) ],

where S''_i drops a power k as soon as gamma_i^{-k} equals gamma_i^j for
some j < k.  Each factor is again real and nonnegative.  Both are lists
of (weight, power) pairs, w * gamma_i^k / (2d) per weighted power; rho
weights gamma_i^k by its count in 1..d, and each inverse by 1.

rho and rho_y are built once, in the dual group.  Factor i's Fourier
table is 1 at the trivial character plus w / (2d) at the dual-group
position of each gamma_i^k, so the product's table is the convolution of
m short factor tables, nonzero on at most (2d+1)^m characters (Rudin,
1960).  ``_riesz_spectrum`` walks it one factor at a time, and each
density is one inverse transform of that exact table, so it is real and
nonnegative up to the round-off of that transform.  That support does
not depend on the weights, so one walk builds rho_y's table for a whole
batch of points y, each weight a column of one value per point; rho is
a batch of one.

Both sets, and the flipped powers 2d+1-alpha of the weighted polynomial
below, come from one closed-form rule: gamma^{-k} = gamma^j exactly when
ord(gamma) divides j + k.  So gamma^{-k} meets some gamma^j with j in 1..J
exactly when a multiple of ord(gamma) lies in k+1 .. k+J, that is when
(k + J) // ord(gamma) > k // ord(gamma).  S'_i applies it with J = d and
S''_i with J = k - 1.

Exact Fourier laws hold in the *nondegenerate regime*: every character
order exceeds 2d and the system is 2d-dissociated.  That combination makes
the representation of a product gamma_{k_1}^{e_1} ... (|e_i| <= d) unique,
which is what forces

    rho^(s-fold product)   = (2d)^{-s},
    rho_y^(s-fold product) = (product of weights) * (2d)^{-s},

zero off the product spectrum, and the two convolution identities below.
Plain d-dissociation is not enough: exponent differences of two bounded
representations reach 2d.  Operations that promise an exact law check the
regime and raise DegenerateOrder / NotDissociated otherwise; the densities
themselves can always be constructed.

The extraction measure nu_s = c_1 rho + c_2 rho*rho + ... + c_d rho^{*d}
solves a d x d power system in the nodes (2d)^{-i} so that its Fourier
coefficients are 1 on s-fold products and 0 on j-fold products for
j <= d, j != s.  Every nu_s is a function of the one Fourier table of rho,
so ``extract_homogeneous(Q)`` reads rho's table off its factor terms once
and returns all d parts: row s-1 is Q * nu_s = Q^(s).
``extract_homogeneous_modulated`` takes the part itself and a batch of
points: for each point y the weighted Q^(s) convolved with rho_y is
Q^(s) / (2d)^s, and one walk reads rho_y's tables off their factor terms
for the whole batch.  A convolution's Fourier table is the product of
the two, and Q's is zero off its terms' dual-group positions, so each
row is synthesized over Q's terms: A_t times the measure's coefficient
at term t's position, times term t's value table, added up one term
table at a time.  No transform runs on either extraction route.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .chaos import ChaosPolynomial, FullIndex, _synthesize
from .dissociation import CharacterSystem, require_dissociated
from .errors import DegenerateOrder, SizeLimitExceeded
from .groups import (
    Character,
    DensityMeasure,
    FourierTable,
    _scatter,
    inverse_fourier,
)

_COPY_CELLS = 1 << 16  # values of the last factor's copies ``_riesz_spectrum`` scatters at once

def _inverse_meets_forward(gamma: Character, k: int, top: int) -> bool:
    """Whether gamma^{-k} = gamma^j for some j in 1..top, i.e. ord(gamma) divides some j + k."""
    return (k + top) // gamma.order > k // gamma.order


def riesz_inverse_powers(gamma: Character, d: int) -> set[int]:
    """Powers k in 1..d with gamma^{-k} different from every gamma^j, j = 1..d."""
    if d >= gamma.order:
        # k + 1 .. k + d holds a multiple of the order for every k
        return set()
    return {k for k in range(1, d + 1) if not _inverse_meets_forward(gamma, k, d)}


def riesz_modulated_powers(gamma: Character, d: int) -> set[int]:
    """Powers k in 1..d kept in the modulated factor.

    k is dropped as soon as gamma^{-k} equals gamma^j for some j < k, so
    each self-paired power appears exactly once.  No k past ord(gamma) is
    kept: k + 1 .. 2k - 1 then holds a multiple of the order, so a d far
    past the order costs no more than d = ord(gamma).
    """
    top = min(d, gamma.order)
    return {k for k in range(1, top + 1) if not _inverse_meets_forward(gamma, k, k - 1)}


def require_nondegenerate(system: CharacterSystem, d: int):
    """Guard for the exact coefficient laws.

    Raises DegenerateOrder when some character order is <= 2d, and
    NotDissociated when the system is not 2d-dissociated; both conditions
    together make bounded product representations unique.
    """
    bad = [i for i, chi in enumerate(system.characters) if chi.order <= 2 * d]
    if bad:
        orders = [system.characters[i].order for i in bad]
        raise DegenerateOrder(
            f"characters at positions {bad} have orders {orders} <= 2d = {2 * d}; "
            "no closed-form coefficient law, use the transform directly"
        )
    require_dissociated(system, 2 * d)


def _riesz_terms(system: CharacterSystem, d: int) -> list[list[tuple[tuple[int], int]]]:
    """rho's (weight column, power) pairs, one list per character: a batch of one.

    The powers of gamma are summed by residue class: gamma^k depends only
    on k mod ord(gamma), so each distinct power comes once with its count in
    1..d, and a d far past the orders costs no more than d = ord(gamma).
    """
    return [
        [(((d - k) // gamma.order + 1,), k) for k in range(1, min(d, gamma.order) + 1)]
        + [((1,), -k) for k in riesz_inverse_powers(gamma, d)]
        for gamma in system.characters
    ]


def _modulated_reads(system: CharacterSystem, d: int) -> list[tuple[int, int]]:
    """(i, +-k) for each weighted power gamma_i^{+-k} of rho_y, factor by factor."""
    return [
        (i, sign * k)
        for i, gamma in enumerate(system.characters)
        for k in riesz_modulated_powers(gamma, d)
        for sign in (1, -1)
    ]


def _root_columns(
    ys: Sequence[ModulationPoint], reads: Sequence[tuple[int, int]]
) -> list[list[complex]]:
    """w^{k * y_i} for each read (i, k), one Python complex per point of ``ys``.

    w = exp(2*pi*i/base).  One ``np.exp`` covers the distinct k * y_i mod
    base that the batch reads, so no table of all base roots is built, at
    any base.  numpy's loops, not cmath: each value is bit-identical to
    np.exp(2j*np.pi*np.arange(base)/base)[k * y_i % base].
    """
    base = ys[0].base
    digits = np.array([y.digits for y in ys], dtype=np.int64)
    index, power = np.array(reads, dtype=np.int64).reshape(-1, 2).T
    exponents = power[:, None] * digits[:, index].T % base
    distinct, inverse = np.unique(exponents, return_inverse=True)
    roots = np.exp(2j * np.pi * distinct / base)
    return roots[inverse.reshape(exponents.shape)].tolist()


def _modulated_terms(
    system: CharacterSystem,
    d: int,
    ys: Sequence[ModulationPoint],
    columns: Sequence[list[complex]] | None = None,
) -> list[list[tuple[list[complex], int]]]:
    """rho_y's (weight column, power) pairs, one list per character: w^{+-k*y_i} on gamma_i^{+-k}.

    A column holds one weight per point of ``ys``.  ``columns``, when
    given, are the columns ``_root_columns`` read for ``_modulated_reads``.
    """
    reads = _modulated_reads(system, d)
    if columns is None:
        columns = _root_columns(ys, reads)
    terms = [[] for _ in system.characters]
    for (i, k), column in zip(reads, columns):
        terms[i].append((column, k))
    return terms


def _riesz_spectrum(system: CharacterSystem, d: int, terms, points: int = 1) -> np.ndarray:
    """Fourier tables of prod_i [ 1 + sum_{(w, k) in terms[i]} w * gamma_i^k / (2d) ], one per point.

    Each weight w is a column of ``points`` values, and row r of the
    (points, |G|) result uses entry r of every column.  Factor i's table
    is 1 at the trivial character plus w / (2d) at the position of
    gamma_i^k for each pair (w, k) of ``terms[i]``, the pairs whose powers
    agree modulo ord(gamma_i) added up, so the product's table is the
    convolution of the m factor tables.  The support does not depend on
    the weights, so one walk serves every point: it keeps the positions
    reached so far, repeats allowed, with one value per point at each, and
    adds one factor at a time: each power in the factor's table
    contributes a copy of them, positions shifted by that power of
    gamma_i's exponent row and values scaled by its entry.  Repeats are
    merged, by one scatter into a |G| table per point, only when a
    factor's copies would pass |G| entries; the positions nonzero at any
    point are kept, and that factor's copies are then scattered a chunk
    of powers at a time, each chunk at most |G| entries; the last factor's
    go straight into the result, a block of points at a time.  So no block
    passes |G| cells per point at any d, and no transform is run.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    group = system.group
    orders = np.array(group.orders, dtype=np.int64)
    strides = np.array([math.prod(group.orders[j + 1 :]) for j in range(group.rank)])
    positions = np.zeros(1, dtype=np.int64)
    values = np.ones((points, 1))
    for i, (gamma, pairs) in enumerate(zip(system.characters, terms)):
        # the factor's own table first: powers equal modulo the order are one position
        powers, slot = np.unique([0] + [k % gamma.order for _, k in pairs], return_inverse=True)
        # divided as Python numbers: numpy's complex division multiplies by the reciprocal
        entries = [[1] * points] + [[w / (2 * d) for w in column] for column, _ in pairs]
        weights = _scatter(slot, np.array(entries).T, len(powers))

        def shifted(lo: int, hi: int) -> np.ndarray:
            """Positions of the copies for powers lo .. hi-1, flattened power by power."""
            at = np.repeat(positions[None, :], hi - lo, axis=0)
            for c in np.flatnonzero(gamma.exponents):
                digit = positions // strides[c] % orders[c]
                moved = (digit + powers[lo:hi, None] * gamma.exponents[c]) % orders[c]
                at += (moved - digit) * strides[c]
            return at.ravel()

        def scaled(lo: int, hi: int, rows: slice = slice(None)) -> np.ndarray:
            """Values of those copies at the points ``rows``, one row per point."""
            block = weights[rows, lo:hi, None] * values[rows, None, :]
            return block.reshape(len(block), -1)

        n = len(powers)
        if len(positions) * n > group.size:
            chunk = group.size // len(positions)
            spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
            table = sum(_scatter(shifted(*span), scaled(*span), group.size) for span in spans)
            positions = np.flatnonzero(table.any(axis=0))
            values = table[:, positions]
        elif i < len(terms) - 1:
            positions, values = shifted(0, n), scaled(0, n)
        else:
            at = shifted(0, n)
            out = np.zeros((points, group.size), dtype=np.result_type(weights, values))
            block = max(1, _COPY_CELLS // len(at))
            for r in range(0, points, block):
                _scatter(at, scaled(0, n, slice(r, r + block)), group.size, out[r : r + block])
            return out.astype(np.complex128, copy=False)
    return _scatter(positions, values, group.size).astype(np.complex128, copy=False)


def _riesz_hat(system: CharacterSystem, d: int, check: bool) -> np.ndarray:
    """Fourier table of rho, after the nondegenerate regime is checked if asked."""
    if check:
        require_nondegenerate(system, d)
    return _riesz_spectrum(system, d, _riesz_terms(system, d))[0]


def riesz_spectrum(system: CharacterSystem, d: int) -> FourierTable:
    """rho's exact Fourier table, read off its factor terms: 0 off the product's support."""
    return FourierTable(system.group, _riesz_hat(system, d, check=False))


def riesz_density(system: CharacterSystem, d: int) -> DensityMeasure:
    """The degree-d Riesz product density over the full finite system.

    It is built for any system, as one inverse transform of
    ``riesz_spectrum``.  For d-dissociated systems whose character orders
    all exceed d the result is a probability density: real, nonnegative
    and of mass one, up to the round-off of that transform.
    """
    return inverse_fourier(riesz_spectrum(system, d))


@dataclass(frozen=True)
class ModulationPoint:
    """Digit vector over Z_{2d+1}, one digit per system character.

    At this point a base-(2d+1) generalized Rademacher function of
    character i, raised to the k-th power, takes the value w^{k * digits[i]}
    with w = exp(2*pi*i/base); ``_root_columns`` reads those values for a
    batch of points.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if any(not 0 <= y < self.base for y in self.digits):
            raise ValueError(f"digits must lie in 0..{self.base - 1}")

    @classmethod
    def random_batch(cls, rng, base: int, count: int, points: int) -> list["ModulationPoint"]:
        """``points`` points of ``count`` digits each, drawn from ``rng`` as one block."""
        rows = rng.integers(0, base, size=(points, count)).tolist()
        return [cls(base, tuple(row)) for row in rows]


def _require_modulation_point(system: CharacterSystem, d: int, y: ModulationPoint):
    if y.base != 2 * d + 1:
        raise ValueError(f"modulation base {y.base} must equal 2d+1 = {2 * d + 1}")
    if len(y.digits) != len(system):
        raise ValueError("one modulation digit per system character is required")


def modulated_riesz_density(
    system: CharacterSystem, d: int, y: ModulationPoint
) -> DensityMeasure:
    """Riesz product with unimodular weights w^{+-k*y_i} on the powers.

    Every factor is real and nonnegative pointwise, so the total variation
    equals the mass; for d-dissociated systems with all orders > d both
    equal 1.  It is one inverse transform of rho_y's exact Fourier table,
    so these hold up to the round-off of that transform.
    """
    _require_modulation_point(system, d, y)
    rho_y_hat = _riesz_spectrum(system, d, _modulated_terms(system, d, [y]))[0]
    return inverse_fourier(FourierTable(system.group, rho_y_hat))


def modulation_exponents(
    system: CharacterSystem, index: FullIndex, d: int
) -> tuple[int, ...]:
    """Adjusted power per distinct base of a chaos index, for the modulated weights.

    Base k_i with multiplicity alpha_i contributes one entry, in increasing
    base order.  The power alpha_i stays unless gamma^{-alpha_i} = gamma^j
    for some j < alpha_i, in which case it flips to 2d+1-alpha_i.  For
    character orders > 2d no flip ever happens.
    """
    adjusted = []
    for b in sorted(set(index)):
        a = index.count(b)
        if not 1 <= a <= d:
            raise ValueError(f"power {a} outside 1..{d}")
        flips = _inverse_meets_forward(system.characters[b], a, a - 1)
        adjusted.append(2 * d + 1 - a if flips else a)
    return tuple(adjusted)


@dataclass(frozen=True)
class ExtractionSpec:
    """Mixing coefficients for the s-fold extraction measure.

    ``coefficients[j]`` multiplies the j-fold convolution power of rho
    (j = 0 is the point mass at the identity and always carries weight 0);
    ``variation_bound`` is the resulting bound sum |c_j| on the total
    variation of the measure.
    """

    d: int
    s: int
    coefficients: tuple[float, ...]
    variation_bound: float

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "s": self.s,
            "coefficients": list(self.coefficients),
            "variation_bound": self.variation_bound,
        }


@functools.cache  # solved once per (d, s) and shared: a tuple of Fractions is immutable
def extraction_coefficients_exact(d: int, s: int) -> tuple[Fraction, ...]:
    """Exact rational mixing coefficients (c_0 .. c_d); c_0 is always 0.

    They are the coefficients of the degree-d polynomial P with P(0) = 0
    and P(x_i) = [i == s] at the nodes x_i = (2d)^{-i}, i = 1..d, so
    sum_j c_j x_i^j = [i == s] holds exactly.  In Lagrange form

        P(x) = (x / x_s) prod_{i != s} (x - x_i) / (x_s - x_i).
    """
    if not 1 <= s <= d:
        raise ValueError(f"s must lie in 1..{d}, got {s}")
    nodes = [Fraction(1, (2 * d) ** i) for i in range(1, d + 1)]
    x_s = nodes[s - 1]
    poly = [Fraction(0), 1 / x_s]  # coefficients of x / x_s, lowest power first
    for i, x_i in enumerate(nodes, start=1):
        if i != s:
            # multiply by (x - x_i) / (x_s - x_i)
            scale = x_s - x_i
            poly = [(lo - x_i * hi) / scale for lo, hi in zip([0, *poly], [*poly, 0])]
    return tuple(poly)


def extraction_coefficients(d: int, s: int) -> ExtractionSpec:
    """Solve the d x d power system with nodes (2d)^{-i} for the unit row s.

    Solving exactly over the rationals sidesteps the severe conditioning of
    the small Vandermonde nodes; the returned floats are correctly rounded
    images of the exact solution.  c_0 is pinned to zero, which only
    affects the trivial character and chaos polynomials have no constant
    term.  The largest coefficient grows like (2d)^{d(d+1)/2} (2^997 at
    d = 19), so a d past the float range raises SizeLimitExceeded before
    anything is solved.
    """
    bits = d * (d + 1) / 2 * math.log2(2 * d)
    if bits > sys.float_info.max_exp:
        raise SizeLimitExceeded(
            f"extraction coefficients at d = {d} reach about 2^{bits:.4g}, past the float "
            f"range 2^{sys.float_info.max_exp}"
        )
    exact = extraction_coefficients_exact(d, s)
    coefficients = tuple(float(c) for c in exact)
    bound = float(sum(abs(c) for c in exact))
    return ExtractionSpec(d=d, s=s, coefficients=coefficients, variation_bound=bound)


def _extraction_hat(rho_hat: np.ndarray, spec: ExtractionSpec) -> np.ndarray:
    """Fourier table of nu_s: sum_j c_j rho_hat^j, the powers taken pointwise."""
    nu_hat = np.full(rho_hat.shape, spec.coefficients[0], dtype=np.complex128)
    power = np.ones_like(rho_hat)
    for j in range(1, spec.d + 1):
        power = power * rho_hat
        nu_hat += spec.coefficients[j] * power
    return nu_hat


def extraction_measure(
    system: CharacterSystem, d: int, s: int, check: bool = True
) -> DensityMeasure:
    """The measure whose Fourier coefficients indicate s-fold products.

    Built as the c_j-weighted sum of convolution powers of rho: the powers
    are taken pointwise on the Fourier table of rho, read off its factor
    terms, so the whole measure costs one inverse transform.  With
    ``check`` the nondegenerate regime is enforced, which is what
    guarantees the indicator law.
    """
    spec = extraction_coefficients(d, s)
    nu_hat = _extraction_hat(_riesz_hat(system, d, check), spec)
    return inverse_fourier(FourierTable(system.group, nu_hat))


def extract_homogeneous(polynomial: ChaosPolynomial, check: bool = True) -> np.ndarray:
    """Convolve Q with every extraction measure nu_1 .. nu_d; returns a (d, |G|) table.

    Row s-1 holds Q * nu_s.  The Fourier table of that convolution is Q's
    times nu_s's, and Q's is zero off its term positions, so row s-1 is
    sum_t A_t * nu_s_hat(position of t) * (term t's value table): rho's
    table is read off its factor terms, nu_s's is taken from it at Q's
    positions only, and no transform is run.  In the nondegenerate regime
    row s-1 equals the s-homogeneous part Q^(s) pointwise.  A d past the
    float range of the mixing coefficients raises SizeLimitExceeded
    before the regime check.
    """
    system, d = polynomial.system, polynomial.degree
    specs = [extraction_coefficients(d, s) for s in range(1, d + 1)]
    rho_at = _riesz_hat(system, d, check)[polynomial.positions]
    rows = [polynomial.coefficients * _extraction_hat(rho_at, spec) for spec in specs]
    out = np.empty((d, system.group.size), dtype=np.complex128)
    return _synthesize(polynomial, rows, out)


def extract_homogeneous_modulated(
    part: ChaosPolynomial, ys: Sequence[ModulationPoint], check: bool = True
) -> np.ndarray:
    """Weight the polynomial given and convolve it with rho_y, per point y; returns (len(ys), |G|).

    Row r is the value table for point ys[r].  Each term, an index with
    distinct bases k_i of multiplicities alpha_i, carries the extra factor
    prod_i w^{-alpha'_i * y_{k_i}}.  The weighted polynomial's Fourier
    table is zero off its term positions, so row r is
    sum_t A_t * w_t(y_r) * rho_y_hat(position of t) * (term t's value
    table), and no transform is run.  One walk of rho_y's spectrum serves
    the whole batch, its rows are read at the term positions and then
    overwritten by the result, and every root of unity the batch reads is
    computed once.  In the nondegenerate regime the weights cancel against
    the coefficients of rho_y, for every y: an s-homogeneous part Q^(s)
    gives Q^(s) / (2d)^s pointwise, and any other polynomial Q gives
    sum_s Q^(s) / (2d)^s.  An empty batch, or any point of the wrong base
    or digit count, raises ValueError before any work.
    """
    d = part.degree
    system = part.system
    if not ys:
        raise ValueError("at least one modulation point is required")
    for y in ys:
        _require_modulation_point(system, d, y)
    if check:
        require_nondegenerate(system, d)
    bases = [
        list(zip(sorted(set(index)), modulation_exponents(system, index, d)))
        for index in part.indices
    ]
    walk = _modulated_reads(system, d)
    columns = _root_columns(ys, walk + [(b, -a) for term in bases for b, a in term])
    terms = _modulated_terms(system, d, ys, columns[: len(walk)])
    tables = _riesz_spectrum(system, d, terms, len(ys))
    rho_y_at = tables[:, part.positions]
    # a term's weight is multiplied out as Python numbers, base by base:
    # numpy's complex product rounds differently
    read = iter(columns[len(walk) :])
    weights = []
    for term in bases:
        w = [1 + 0j] * len(ys)
        for _ in term:
            w = [a * b for a, b in zip(w, next(read))]
        weights.append(w)
    # each row's coefficients from arrays of one entry per term: numpy's
    # complex product rounds differently on a (points, terms) block
    rows = [
        part.coefficients * np.array([w[r] for w in weights], dtype=np.complex128) * rho_y_at[r]
        for r in range(len(ys))
    ]
    return _synthesize(part, rows, tables)
