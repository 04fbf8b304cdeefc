"""Shared samplers and independent oracles for the test suite.

The dissociation oracle here works on numeric character value tables built
from first principles (complex exponentials over the digit grid), never on
the package's exponent-vector arithmetic, so agreement between the two is
a genuine cross-check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from lacuna import (
    CharacterSystem,
    DensityMeasure,
    FiniteAbelianGroup,
    FourierTable,
    hadamard_trig_system,
    is_d_dissociated,
    require_nondegenerate,
    values_matrix,
    vc_system_from_digit_sets,
)


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i in range(n + 1) if sieve[i]]


_PRIMES = primes_up_to(4096)


def next_prime(n: int) -> int:
    for p in _PRIMES:
        if p > n:
            return p
    raise ValueError(f"no prime above {n} in the table")


def order_tuples_up_to(max_size: int) -> list[tuple[int, ...]]:
    """All nondecreasing factor-order tuples with product <= max_size."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], prod: int, start: int):
        for m in range(start, max_size // prod + 1):
            out.append(prefix + (m,))
            rec(prefix + (m,), prod * m, m)

    rec((), 1, 2)
    return out


def oracle_character_table(system: CharacterSystem, position: int) -> np.ndarray:
    """Numeric value table of one system character, built from scratch."""
    group = system.group
    chi = system.characters[position]
    rows = itertools.product(*[range(m) for m in group.orders])
    return np.array(
        [
            np.exp(
                2j
                * np.pi
                * sum(a * g / m for a, g, m in zip(chi.exponents, row, group.orders))
            )
            for row in rows
        ]
    )


def _oracle_digits(group: FiniteAbelianGroup) -> np.ndarray:
    """Shape (|G|, rank): element digits in lexicographic order."""
    return np.array(list(itertools.product(*[range(m) for m in group.orders])))


def _oracle_character_matrix(group: FiniteAbelianGroup) -> np.ndarray:
    """Shape (|G|, |G|): row a holds chi_a(g) for every element g.

    Phases are reduced modulo each factor order before exponentiating, so
    the table is accurate to a few ulps at every size the tests use.
    """
    digits = _oracle_digits(group)
    phase = np.zeros((group.size, group.size))
    for i, m in enumerate(group.orders):
        phase += np.outer(digits[:, i], digits[:, i]) % m / m
    return np.exp(2j * np.pi * phase)


def naive_fourier(f: DensityMeasure) -> FourierTable:
    """O(|G|^2) DFT fhat(chi) = (1/|G|) sum_g f(g) conj(chi(g)): the transform oracle."""
    matrix = _oracle_character_matrix(f.group)
    return FourierTable(f.group, matrix.conj() @ f.values / f.group.size)


def naive_inverse_fourier(table: FourierTable) -> DensityMeasure:
    """O(|G|^2) synthesis f(g) = sum_chi fhat(chi) chi(g)."""
    matrix = _oracle_character_matrix(table.group)
    return DensityMeasure(table.group, table.coeffs @ matrix)


def naive_convolve(f: DensityMeasure, h: DensityMeasure) -> DensityMeasure:
    """Direct spatial sum (f * h)(x) = (1/|G|) sum_z f(x - z) h(z)."""
    group = f.group
    digits = _oracle_digits(group)
    orders = np.asarray(group.orders)
    out = np.zeros(group.size, dtype=np.complex128)
    for zi in range(group.size):
        if h.values[zi] == 0:
            continue
        shifted = (digits - digits[zi]) % orders
        idx = np.ravel_multi_index(shifted.T, group.orders)
        out += f.values[idx] * h.values[zi]
    return DensityMeasure(group, out / group.size)


def oracle_dissociated(system: CharacterSystem, d: int) -> bool:
    """Value-based brute force over all exponent tuples.

    Products and factor powers are judged numerically: a character is
    trivial iff its value table is within 1e-9 of the constant 1.  The
    smallest nontrivial root of unity at the group sizes used in tests is
    far from 1, so the threshold is safe.
    """
    m = len(system)
    if m == 0:
        return True
    tables = [oracle_character_table(system, j) for j in range(m)]
    base = 2 * d + 1
    powers = np.stack(
        [np.stack([t ** k for k in range(-d, d + 1)]) for t in tables]
    )  # (m, base, |G|)
    nontrivial = np.abs(powers - 1).max(axis=2) > 1e-9  # (m, base)
    offsets = np.stack(
        np.unravel_index(np.arange(base**m), (base,) * m), axis=1
    )  # (tuples, m)
    cols = np.arange(m)
    products = np.ones((base**m, system.group.size), dtype=np.complex128)
    for j in range(m):
        products *= powers[j, offsets[:, j]]
    trivial_product = np.abs(products - 1).max(axis=1) < 1e-9
    any_nontrivial = nontrivial[cols[None, :], offsets].any(axis=1)
    return not bool((trivial_product & any_nontrivial).any())


def staircase_system(
    rng: np.random.Generator, base: int, m: int, max_width: int
) -> CharacterSystem:
    """Random staircase system: set i owns a fresh digit position."""
    width = int(rng.integers(m, max_width + 1))
    fresh = [int(p) for p in rng.permutation(width)[:m]]
    sets: list[list[int]] = []
    values: list[list[int]] = []
    seen: list[int] = []
    for i in range(m):
        positions = {fresh[i]}
        positions.update(p for p in seen if rng.random() < 0.3)
        ordered = sorted(positions)
        sets.append(ordered)
        values.append([int(rng.integers(1, base)) for _ in ordered])
        seen.append(fresh[i])
    return vc_system_from_digit_sets(base, sets, values, width=width)


def _max_width(base: int, max_size: int) -> int:
    width = 1
    while base ** (width + 1) <= max_size:
        width += 1
    return width


def sample_dissociated_system(
    rng: np.random.Generator, d: int, max_m: int = 5, max_size: int = 4096
) -> CharacterSystem:
    """Random d-dissociated system with all character orders > d.

    Mixes staircase systems over prime bases (including bases at most 2d,
    which are degenerate for the closed-form coefficient laws but still
    honest Riesz-product hosts) with positive-frequency lacunary systems.
    """
    if rng.random() < 0.7:
        choices = [p for p in (2, 3, 5, 7, 11, 13) if p > d]
        base = int(rng.choice(choices))
        width_cap = _max_width(base, max_size)
        m = int(rng.integers(1, min(max_m, width_cap) + 1))
        system = staircase_system(rng, base, m, width_cap)
    else:
        ratio = int(rng.integers(d + 1, d + 4))
        count = 1 if ratio**2 * 2 * d * 2 > max_size else int(rng.integers(1, 3))
        modulus = next_prime(2 * d * ratio**count)
        system = hadamard_trig_system(ratio, count, modulus, d=d)
    report = is_d_dissociated(system, d)
    assert report.dissociated, f"sampler produced a non-dissociated system: {report}"
    assert all(chi.order > d for chi in system.characters)
    return system


def finite_difference_gradient(system, indices, coeffs, q, step=1e-5):
    """Central-difference gradient of ||Q||_q^q, the oracle for grad_lq_q."""
    matrix = values_matrix(system, indices)

    def objective(vec):
        return float(np.mean(np.abs(matrix @ vec) ** q))

    grad = np.zeros(len(coeffs), dtype=np.complex128)
    for t in range(len(coeffs)):
        for part, unit in ((1.0, 1.0), (1j, 1j)):
            plus, minus = coeffs.copy(), coeffs.copy()
            plus[t] += step * unit
            minus[t] -= step * unit
            deriv = (objective(plus) - objective(minus)) / (2 * step)
            grad[t] += deriv * part
    return grad


def sample_nondegenerate_system(
    rng: np.random.Generator, d: int, max_m: int = 4, max_size: int = 4096
) -> CharacterSystem:
    """Random system in the exact-law regime: orders > 2d, 2d-dissociated."""
    if rng.random() < 0.7:
        choices = [p for p in (3, 5, 7, 11, 13) if p > 2 * d]
        base = int(rng.choice(choices))
        width_cap = _max_width(base, max_size)
        m = int(rng.integers(1, min(max_m, width_cap) + 1))
        system = staircase_system(rng, base, m, width_cap)
    else:
        ratio = int(rng.integers(2 * d + 1, 2 * d + 4))
        count = 1 if 4 * d * ratio**2 > max_size else int(rng.integers(1, 3))
        modulus = next_prime(4 * d * ratio**count)
        system = hadamard_trig_system(ratio, count, modulus, d=2 * d)
    require_nondegenerate(system, d)
    return system
