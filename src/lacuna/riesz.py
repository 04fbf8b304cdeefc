"""Riesz-product densities, modulated variants, and extraction measures.

For a d-dissociated system {gamma_1 .. gamma_m} the degree-d Riesz product
is the pointwise product of one factor per character,

    rho(x) = prod_i [ 1 + (1/2d) * ( sum_{k=1..d} gamma_i^k(x)
                                     + sum_{k in S'_i} gamma_i^{-k}(x) ) ],

where S'_i keeps exactly the inverse powers gamma_i^{-k} that do not
coincide with any forward power gamma_i^j, j = 1..d.  Every factor is a
real trigonometric expression bounded below by 0, so rho is a probability
density whenever no character power gamma_i^k, k <= d, degenerates to the
trivial character (i.e. whenever all orders exceed d).

The modulated variant attaches a unimodular weight to every power.  With
w = exp(2*pi*i/(2d+1)) and a digit vector y (one digit per character), the
weight on gamma_i^{+-k} is w^{+-k*y_i}, mimicking an evaluation of
generalized Rademacher functions with base 2d+1 at y:

    rho_y(x) = prod_i [ 1 + (1/2d) * sum_{k in S''_i}
                        ( w^{k*y_i} gamma_i^k(x) + w^{-k*y_i} gamma_i^{-k}(x) ) ],

where S''_i drops a power k as soon as gamma_i^{-k} equals gamma_i^j for
some j < k.  Each factor is again real and nonnegative.

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
j <= d, j != s.  Convolving a degree-d chaos polynomial with nu_s therefore
isolates its s-homogeneous part, and convolving the weighted polynomial
with rho_y recovers the same part scaled by (2d)^{-s}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .chaos import ChaosPolynomial, CompressedIndex, decompose
from .dissociation import CharacterSystem, require_dissociated
from .errors import DegenerateOrder, SizeLimitExceeded
from .groups import (
    Character,
    DensityMeasure,
    FourierTable,
    char_mul,
    char_pow,
    fourier,
    convolve,
    inverse_fourier,
)

# Up to this many cells (d x |G|), riesz_density adds
# gamma^1 .. gamma^d one at a time in k order, so its floats match those of
# every earlier release bit for bit.  Past it, each distinct power is added
# once times its count, which bounds the work but moves last bits.
_TERM_BY_TERM_CELLS = 1 << 20


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
    each self-paired power appears exactly once.
    """
    return {k for k in range(1, d + 1) if not _inverse_meets_forward(gamma, k, k - 1)}


def degenerate_characters(system: CharacterSystem, d: int) -> list[int]:
    """Positions of characters whose order is at most 2d."""
    return [i for i, chi in enumerate(system.characters) if chi.order <= 2 * d]


def require_nondegenerate(system: CharacterSystem, d: int):
    """Guard for the exact coefficient laws.

    Raises DegenerateOrder when some character order is <= 2d, and
    NotDissociated when the system is not 2d-dissociated; both conditions
    together make bounded product representations unique.
    """
    bad = degenerate_characters(system, d)
    if bad:
        orders = [system.characters[i].order for i in bad]
        raise DegenerateOrder(
            f"characters at positions {bad} have orders {orders} <= 2d = {2 * d}; "
            "no closed-form coefficient law, use the transform directly"
        )
    require_dissociated(system, 2 * d)


def riesz_density(system: CharacterSystem, d: int, check: bool = True) -> DensityMeasure:
    """The degree-d Riesz product density over the full finite system.

    With ``check`` the system is verified to be d-dissociated first.  For
    dissociated systems whose character orders all exceed d the result is a
    probability density: real, nonnegative, mass one.  Where d x |G| exceeds
    ``_TERM_BY_TERM_CELLS`` and d > ord(gamma), the powers of gamma are
    summed by residue class: gamma^k depends only on k mod ord(gamma), so
    each distinct power is added once times its count in 1..d.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if check and len(system):
        require_dissociated(system, d)
    group = system.group
    values = np.ones(group.size, dtype=np.complex128)
    for gamma in system.characters:
        factor = np.ones(group.size, dtype=np.complex128)
        if d * group.size <= _TERM_BY_TERM_CELLS:
            for k in range(1, d + 1):
                factor += char_pow(gamma, k).values / (2 * d)
        else:
            for k in range(1, min(d, gamma.order) + 1):
                count = (d - k) // gamma.order + 1
                power = char_pow(gamma, k).values
                # a count of one adds the power itself, so d <= ord sums as the loop above
                factor += (power if count == 1 else count * power) / (2 * d)
        for k in riesz_inverse_powers(gamma, d):
            factor += char_pow(gamma, -k).values / (2 * d)
        values *= factor
    return DensityMeasure(group, values)


@dataclass(frozen=True)
class ModulationPoint:
    """Digit vector over Z_{2d+1}, one digit per system character.

    ``rademacher_value(i, k)`` returns w^{k * digits[i]} with
    w = exp(2*pi*i/base), the value a base-(2d+1) generalized Rademacher
    function raised to the k-th power takes at this point.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if any(not 0 <= y < self.base for y in self.digits):
            raise ValueError(f"digits must lie in 0..{self.base - 1}")

    @cached_property
    def _roots(self) -> np.ndarray:
        roots = np.exp(2j * np.pi * np.arange(self.base) / self.base)
        roots.flags.writeable = False
        return roots

    def rademacher_value(self, index: int, power: int) -> complex:
        return complex(self._roots[(power * self.digits[index]) % self.base])

    @classmethod
    def random(cls, rng: np.random.Generator, base: int, count: int) -> "ModulationPoint":
        return cls(base, tuple(int(x) for x in rng.integers(0, base, size=count)))


def _require_modulation_point(system: CharacterSystem, d: int, y: ModulationPoint):
    if y.base != 2 * d + 1:
        raise ValueError(f"modulation base {y.base} must equal 2d+1 = {2 * d + 1}")
    if len(y.digits) != len(system):
        raise ValueError("one modulation digit per system character is required")


def modulated_riesz_density(
    system: CharacterSystem,
    d: int,
    y: ModulationPoint,
    check: bool = True,
) -> DensityMeasure:
    """Riesz product with unimodular weights w^{+-k*y_i} on the powers.

    Every factor is real and nonnegative pointwise, so the total variation
    equals the mass; for systems with all orders > d both equal 1.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    _require_modulation_point(system, d, y)
    if check and len(system):
        require_dissociated(system, d)
    group = system.group
    values = np.ones(group.size, dtype=np.complex128)
    for i, gamma in enumerate(system.characters):
        factor = np.ones(group.size, dtype=np.complex128)
        for k in riesz_modulated_powers(gamma, d):
            factor += y.rademacher_value(i, k) * char_pow(gamma, k).values / (2 * d)
            factor += y.rademacher_value(i, -k) * char_pow(gamma, -k).values / (2 * d)
        values *= factor
    return DensityMeasure(group, values)


def product_character(
    system: CharacterSystem, bases: tuple[int, ...], exponents: tuple[int, ...]
) -> Character:
    """gamma_{bases_1}^{e_1} * ... * gamma_{bases_s}^{e_s} as a dual element."""
    chi = system.group.trivial_character
    for b, e in zip(bases, exponents):
        chi = char_mul(chi, char_pow(system.characters[b], e))
    return chi


def _validate_product_spec(system, d, bases, exponents):
    if len(bases) != len(exponents):
        raise ValueError("bases and exponents must have equal length")
    if len(set(bases)) != len(bases):
        raise ValueError("product bases must be distinct")
    if any(not 0 <= b < len(system) for b in bases):
        raise ValueError("product bases must reference system characters")
    for e in exponents:
        if e == 0 or not -d <= e <= d:
            raise ValueError(f"exponent {e} outside the admissible range for d={d}")


def expected_riesz_coefficient(
    system: CharacterSystem,
    d: int,
    bases: tuple[int, ...] = (),
    exponents: tuple[int, ...] = (),
) -> complex:
    """Closed-form Fourier coefficient of rho on an s-fold product: (2d)^{-s}.

    Valid for nonzero exponents with |e_i| <= d in the nondegenerate
    regime, which is checked; the empty product (the trivial character)
    returns the mass 1.
    """
    _validate_product_spec(system, d, bases, exponents)
    require_nondegenerate(system, d)
    return complex((2 * d) ** (-len(bases)))


def expected_modulated_coefficient(
    system: CharacterSystem,
    d: int,
    bases: tuple[int, ...],
    exponents: tuple[int, ...],
    y: ModulationPoint,
) -> complex:
    """Closed-form Fourier coefficient of rho_y on an s-fold product.

    In the nondegenerate regime, which is checked, the coefficient is the
    monomial prod_i w^{e_i * y_{bases_i}} / (2d)^s with signed exponents e_i.
    """
    _validate_product_spec(system, d, bases, exponents)
    require_nondegenerate(system, d)
    weight = 1 + 0j
    for b, e in zip(bases, exponents):
        weight *= y.rademacher_value(b, e)
    return weight / (2 * d) ** len(bases)


def modulation_exponents(
    system: CharacterSystem, index: CompressedIndex, d: int
) -> tuple[int, ...]:
    """Adjusted power per factor of a compressed chaos index, for the modulated weights.

    The power alpha_i stays unless gamma^{-alpha_i} = gamma^j for some j <
    alpha_i, in which case it flips to 2d+1-alpha_i.  For character orders
    > 2d no flip ever happens.
    """
    adjusted = []
    for b, a in zip(index.bases, index.exponents):
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


def _extraction_hat(system: CharacterSystem, d: int, s: int, check: bool) -> np.ndarray:
    """Fourier table of nu_s: sum_j c_j rho_hat^j from one transform of rho."""
    spec = extraction_coefficients(d, s)
    if check:
        require_nondegenerate(system, d)
    rho_hat = fourier(riesz_density(system, d, check=False)).coeffs
    nu_hat = np.full(system.group.size, spec.coefficients[0], dtype=np.complex128)
    power = np.ones_like(rho_hat)
    for j in range(1, d + 1):
        power = power * rho_hat
        nu_hat += spec.coefficients[j] * power
    return nu_hat


def extraction_measure(
    system: CharacterSystem, d: int, s: int, check: bool = True
) -> DensityMeasure:
    """The measure whose Fourier coefficients indicate s-fold products.

    Built as the c_j-weighted sum of convolution powers of rho: the powers
    are taken pointwise on the Fourier table of rho, so the whole measure
    costs one forward and one inverse transform.  With ``check`` the
    nondegenerate regime is enforced, which is what guarantees the
    indicator law.
    """
    nu_hat = _extraction_hat(system, d, s, check)
    return inverse_fourier(FourierTable(system.group, nu_hat))


def extract_homogeneous(polynomial: ChaosPolynomial, s: int, check: bool = True) -> np.ndarray:
    """Convolve Q with the s-fold extraction measure; returns value table.

    The convolution is a product of Fourier tables, and nu_s is used in
    Fourier space as built, so the call runs three transforms: rho and Q
    forward, the product back.  In the nondegenerate regime the result
    equals the s-homogeneous part of Q pointwise (within one convolution
    round trip of error).
    """
    system = polynomial.system
    nu_hat = _extraction_hat(system, polynomial.degree, s, check)
    q_hat = fourier(polynomial.as_density()).coeffs
    return inverse_fourier(FourierTable(system.group, q_hat * nu_hat)).values


def extract_homogeneous_modulated(
    polynomial: ChaosPolynomial,
    s: int,
    y: ModulationPoint,
    check: bool = True,
) -> np.ndarray:
    """Weighted-polynomial route to the s-homogeneous part, scaled by (2d)^-s.

    Builds the polynomial whose term for index (k, alpha) carries the extra
    factor prod_i w^{-alpha'_i * y_{k_i}} and convolves it with rho_y.  In
    the nondegenerate regime the weights cancel against the coefficients of
    rho_y and the result is Q^(s) / (2d)^s pointwise, for every y.  An s
    outside 1..d, or a point of the wrong base or digit count, raises
    ValueError before any work.
    """
    d = polynomial.degree
    system = polynomial.system
    if not 1 <= s <= d:
        raise ValueError(f"s must lie in 1..{d}, got {s}")
    _require_modulation_point(system, d, y)
    if check:
        require_nondegenerate(system, d)

    def weight(index: CompressedIndex) -> complex:
        w = 1 + 0j
        for b, a_prime in zip(index.bases, modulation_exponents(system, index, d)):
            w *= y.rademacher_value(b, -a_prime)
        return w

    part = decompose(polynomial)[s - 1]
    weighted = ChaosPolynomial(
        system, d, {index: coeff * weight(index) for index, coeff in part.coefficients.items()}
    )
    rho_y = modulated_riesz_density(system, d, y, check=False)
    return convolve(weighted.as_density(), rho_y).values
