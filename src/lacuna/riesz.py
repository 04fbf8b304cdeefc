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
some j < k.  Each factor is again real and nonnegative.  Both densities
come from one product loop that adds w * gamma_i^k / (2d) per weighted
power; rho weights gamma_i^k by its count in 1..d, and each inverse by 1.

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
so ``extract_homogeneous(Q)`` transforms rho and Q once and returns all d
parts: row s-1 is Q * nu_s = Q^(s).  ``extract_homogeneous_modulated``
takes the part itself: the weighted Q^(s) convolved with rho_y is
Q^(s) / (2d)^s.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .chaos import ChaosPolynomial, FullIndex
from .dissociation import CharacterSystem, require_dissociated
from .errors import DegenerateOrder, SizeLimitExceeded
from .groups import (
    Character,
    DensityMeasure,
    FourierTable,
    char_pow,
    fourier,
    convolve,
    inverse_fourier,
)

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


def _riesz_product(system: CharacterSystem, d: int, terms) -> DensityMeasure:
    """prod_i [ 1 + sum_{(w, k) in terms(i, gamma_i)} w * gamma_i^k / (2d) ].

    The one loop behind both densities: the pairs are added in the order
    ``terms`` returns them.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    group = system.group
    values = np.ones(group.size, dtype=np.complex128)
    for i, gamma in enumerate(system.characters):
        factor = np.ones(group.size, dtype=np.complex128)
        for w, k in terms(i, gamma):
            factor += w * char_pow(gamma, k).values / (2 * d)
        values *= factor
    return DensityMeasure(group, values)


def riesz_density(system: CharacterSystem, d: int) -> DensityMeasure:
    """The degree-d Riesz product density over the full finite system.

    It is built for any system.  For d-dissociated systems whose character
    orders all exceed d the result is a probability density: real,
    nonnegative, mass one.  The powers of gamma
    are summed by residue class: gamma^k depends only on k mod ord(gamma),
    so each distinct power is added once times its count in 1..d, and a d
    far past the orders costs no more than d = ord(gamma).
    """

    def terms(i: int, gamma: Character) -> list[tuple[int, int]]:
        forward = [((d - k) // gamma.order + 1, k) for k in range(1, min(d, gamma.order) + 1)]
        return forward + [(1, -k) for k in riesz_inverse_powers(gamma, d)]

    return _riesz_product(system, d, terms)


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
    system: CharacterSystem, d: int, y: ModulationPoint
) -> DensityMeasure:
    """Riesz product with unimodular weights w^{+-k*y_i} on the powers.

    Every factor is real and nonnegative pointwise, so the total variation
    equals the mass; for d-dissociated systems with all orders > d both
    equal 1.
    """
    _require_modulation_point(system, d, y)

    def terms(i: int, gamma: Character) -> list[tuple[complex, int]]:
        return [
            (y.rademacher_value(i, sign * k), sign * k)
            for k in riesz_modulated_powers(gamma, d)
            for sign in (1, -1)
        ]

    return _riesz_product(system, d, terms)


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


def _riesz_hat(system: CharacterSystem, d: int, check: bool) -> np.ndarray:
    """Fourier table of rho, after the nondegenerate regime is checked if asked."""
    if check:
        require_nondegenerate(system, d)
    return fourier(riesz_density(system, d)).coeffs


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
    spec = extraction_coefficients(d, s)
    nu_hat = _extraction_hat(_riesz_hat(system, d, check), spec)
    return inverse_fourier(FourierTable(system.group, nu_hat))


def extract_homogeneous(polynomial: ChaosPolynomial, check: bool = True) -> np.ndarray:
    """Convolve Q with every extraction measure nu_1 .. nu_d; returns a (d, |G|) table.

    Row s-1 holds Q * nu_s.  The convolutions are products of Fourier
    tables sharing one rho: rho and Q are transformed forward once, and
    each row costs one inverse transform.  In the nondegenerate regime row
    s-1 equals the s-homogeneous part Q^(s) pointwise (within one
    convolution round trip of error).  A d past the float range of the
    mixing coefficients raises SizeLimitExceeded before the regime check.
    """
    system, d = polynomial.system, polynomial.degree
    specs = [extraction_coefficients(d, s) for s in range(1, d + 1)]
    rho_hat = _riesz_hat(system, d, check)
    q_hat = fourier(polynomial.as_density()).coeffs
    rows = [q_hat * _extraction_hat(rho_hat, spec) for spec in specs]
    return np.stack([inverse_fourier(FourierTable(system.group, row)).values for row in rows])


def extract_homogeneous_modulated(
    part: ChaosPolynomial, y: ModulationPoint, check: bool = True
) -> np.ndarray:
    """Weight the polynomial given and convolve it with rho_y; returns value table.

    Each term, an index with distinct bases k_i of multiplicities alpha_i,
    carries the extra factor prod_i w^{-alpha'_i * y_{k_i}}.  In the
    nondegenerate regime the weights cancel against the coefficients of
    rho_y, for every y: an s-homogeneous part Q^(s) gives Q^(s) / (2d)^s
    pointwise, and any other polynomial Q gives sum_s Q^(s) / (2d)^s.  A
    point of the wrong base or digit count raises ValueError before any
    work.
    """
    d = part.degree
    system = part.system
    _require_modulation_point(system, d, y)
    if check:
        require_nondegenerate(system, d)

    def weight(index: FullIndex) -> complex:
        w = 1 + 0j
        for b, a_prime in zip(sorted(set(index)), modulation_exponents(system, index, d)):
            w *= y.rademacher_value(b, -a_prime)
        return w

    weighted = ChaosPolynomial(
        system,
        d,
        {index: c * weight(index) for index, c in zip(part.indices, part.coefficients.tolist())},
    )
    rho_y = modulated_riesz_density(system, d, y)
    return convolve(weighted.as_density(), rho_y).values
