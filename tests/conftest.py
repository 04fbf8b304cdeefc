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
    CompressedIndex,
    DensityMeasure,
    FiniteAbelianGroup,
    FourierTable,
    char_pow,
    hadamard_trig_system,
    is_d_dissociated,
    lp_coeff_norm,
    lq_norm,
    require_nondegenerate,
    values_matrix,
    vc_system_from_digit_sets,
)
from lacuna.analysis import chaos_indices
from lacuna.parallel import trial_rng


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


def oracle_chaos_values(polynomial) -> np.ndarray:
    """Value table of sum_t A_t prod_i gamma_{k_i}^{alpha_i}, built from oracle tables."""
    system = polynomial.system
    tables = [oracle_character_table(system, j) for j in range(len(system))]
    out = np.zeros(system.group.size, dtype=np.complex128)
    for index, coeff in polynomial.coefficients.items():
        term = np.ones(system.group.size, dtype=np.complex128)
        for b, e in zip(index.bases, index.exponents):
            term = term * tables[b] ** e
        out += coeff * term
    return out


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


def oracle_inverse_powers(gamma, d: int) -> set[int]:
    """S': powers k in 1..d whose gamma^{-k} matches no gamma^j, j = 1..d, by exponents."""
    forward = {char_pow(gamma, j).exponents for j in range(1, d + 1)}
    return {
        k for k in range(1, d + 1) if char_pow(gamma, -k).exponents not in forward
    }


def oracle_modulated_powers(gamma, d: int) -> set[int]:
    """S'': powers k in 1..d whose gamma^{-k} matches no gamma^j with j < k."""
    kept = set()
    for k in range(1, d + 1):
        inverse = char_pow(gamma, -k).exponents
        if not any(char_pow(gamma, j).exponents == inverse for j in range(1, k)):
            kept.add(k)
    return kept


def oracle_modulation_exponents(
    system: CharacterSystem, index: CompressedIndex, d: int
) -> tuple[int, ...]:
    """Adjusted powers: alpha flips to 2d+1-alpha when gamma^{-alpha} = gamma^j, j < alpha."""
    adjusted = []
    for b, a in zip(index.bases, index.exponents):
        gamma = system.characters[b]
        inverse = char_pow(gamma, -a).exponents
        hit = any(char_pow(gamma, j).exponents == inverse for j in range(1, a))
        adjusted.append(2 * d + 1 - a if hit else a)
    return tuple(adjusted)


def oracle_witness(system: CharacterSystem, d: int) -> tuple[int, ...] | None:
    """First violating tuple of a plain itertools.product scan over all (2d+1)^m tuples.

    Products and factor powers are judged numerically: a character is
    trivial iff its value table is within 1e-9 of the constant 1.  The
    smallest nontrivial root of unity at the group sizes used in tests is
    far from 1, so the threshold is safe.  The scan order (-d < ... < d on
    every coordinate, lexicographic) is the one the checkers document, and
    it walks every tuple, with no reduction by character order.
    """
    m = len(system)
    if m == 0:
        return None
    tables = [oracle_character_table(system, j) for j in range(m)]
    powers = np.stack(
        [np.stack([t ** k for k in range(-d, d + 1)]) for t in tables]
    )  # (m, 2d+1, |G|)
    nontrivial = np.abs(powers - 1).max(axis=2) > 1e-9  # (m, 2d+1)
    cols = np.arange(m)
    tuples = itertools.product(range(-d, d + 1), repeat=m)
    while True:
        chunk = np.array(list(itertools.islice(tuples, 4096)), dtype=np.int64)
        if chunk.size == 0:
            return None
        products = np.ones((len(chunk), system.group.size), dtype=np.complex128)
        for j in range(m):
            products *= powers[j, chunk[:, j] + d]
        trivial_product = np.abs(products - 1).max(axis=1) < 1e-9
        any_nontrivial = nontrivial[cols[None, :], chunk + d].any(axis=1)
        hits = np.flatnonzero(trivial_product & any_nontrivial)
        if hits.size:
            return tuple(int(k) for k in chunk[hits[0]])


def oracle_dissociated(system: CharacterSystem, d: int) -> bool:
    """Value-based brute force over all exponent tuples (see oracle_witness)."""
    return oracle_witness(system, d) is None


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


def oracle_sidon_estimate(system, d, trials, seed, max_sweeps):
    """The Sidon phase search as first written: (constant, coefficients, histories).

    Each step scores the candidates column-major, ``values[:, None] +
    np.outer(col, delta)``, and a trial stops after a full sweep with no
    change or after ``max_sweeps`` sweeps; the default exponent p is used.
    """
    matrix = values_matrix(system, chaos_indices(system, d))
    n = matrix.shape[1]
    p = 2 * d / (d + 1)
    candidates = np.exp(2j * np.pi * np.arange(16) / 16)
    results = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        coeffs = np.exp(2j * np.pi * rng.uniform(size=n))
        values = matrix @ coeffs
        peak = float(np.abs(values).max())
        coeff_norm = lp_coeff_norm(coeffs, p)
        history = [coeff_norm / peak]
        for _ in range(max_sweeps):
            improved = False
            for t_idx in range(n):
                shifted = values[:, None] + np.outer(matrix[:, t_idx], candidates - coeffs[t_idx])
                peaks = np.abs(shifted).max(axis=0)
                pick = int(np.argmin(peaks))
                if peaks[pick] < peak - 1e-13:
                    values = shifted[:, pick]
                    coeffs = coeffs.copy()
                    coeffs[t_idx] = candidates[pick]
                    peak = float(peaks[pick])
                    history.append(coeff_norm / peak)
                    improved = True
            if not improved:
                break
        results.append((coeff_norm / peak, coeffs, history))
    best = max(range(trials), key=lambda t: results[t][0])
    return results[best][0], results[best][1], [r[2] for r in results]


def oracle_khinchin_estimate(system, d, q, trials, seed, indices=None):
    """The Khinchin ascent as first written, one trial after another.

    Returns (constant, coefficients, histories).  Each trial runs its own
    chain of matrix-vector products, with the step size, tolerance and
    step cap read from ``lacuna.analysis`` at call time, so a test that
    patches them patches the oracle too.
    """
    from lacuna import analysis

    if indices is None:
        indices = chaos_indices(system, d)
    matrix = values_matrix(system, indices)
    adjoint = matrix.conj().T
    results = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        vec = rng.standard_normal(matrix.shape[1]) + 1j * rng.standard_normal(matrix.shape[1])
        coeffs = vec / np.linalg.norm(vec)
        values = matrix @ coeffs
        ratio = lq_norm(values, q)
        history = [ratio]
        if not math.isinf(q):
            step = analysis._ASCENT_STEP
            for _ in range(analysis._ASCENT_MAX_STEPS):
                weight = np.abs(values) ** (q - 2) * values
                grad = q * (adjoint @ weight) / adjoint.shape[1]
                candidate = coeffs + step * grad
                candidate /= np.linalg.norm(candidate)
                candidate_values = matrix @ candidate
                new_ratio = lq_norm(candidate_values, q)
                if new_ratio > ratio:
                    gain = new_ratio - ratio
                    coeffs, values, ratio = candidate, candidate_values, new_ratio
                    history.append(ratio)
                    if gain < analysis._ASCENT_TOL:
                        break
                else:
                    step /= 2
                    if step < 1e-14:
                        break
        results.append((ratio, coeffs, history))
    best = max(range(trials), key=lambda t: results[t][0])
    return results[best][0], results[best][1], [r[2] for r in results]


def oracle_scan_point_counts(system, indices, q, m_grid, trials, seed, probes=64):
    """The discretization scan as first written, one trial after another.

    ``|f|^q`` is raised once per row of the point sequence (repeated points
    are raised again), and each probe's true norm is ``lq_norm`` of its
    column of values.
    """
    matrix = values_matrix(system, indices)
    size, n = matrix.shape
    sizes = sorted(set(int(m) for m in m_grid))
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        sequence = rng.permutation(size)
        if sizes[-1] > size:
            tail = rng.integers(0, size, size=sizes[-1] - size)
            sequence = np.concatenate([sequence, tail])
        sequence = sequence[: sizes[-1]]
        coeffs = rng.standard_normal((probes, n)) + 1j * rng.standard_normal((probes, n))
        f_values = matrix @ coeffs.T
        true_norms = np.array([lq_norm(f_values[:, i], q) for i in range(probes)])
        powered = np.abs(f_values[sequence, :]) ** q
        for m in sizes:
            weights = np.full(m, 1.0 / m)
            discrete = np.sum(weights[:, None] * powered[:m], axis=0) ** (1.0 / q)
            ratios = discrete / true_norms
            records.append(
                {
                    "m": m,
                    "trial": t,
                    "c1": float(ratios.min()),
                    "c2": float(ratios.max()),
                    "q": float(q),
                    "n_basis": n,
                    "seed": seed,
                }
            )
    records.sort(key=lambda r: (r["m"], r["trial"]))
    return records
