"""Shared samplers and independent oracles for the test suite.

The dissociation oracle here works on numeric character value tables built
from first principles (complex exponentials over the digit grid), never on
the package's exponent-vector arithmetic, so agreement between the two is
a genuine cross-check.
"""

from __future__ import annotations

import gc
import itertools
import math
import tracemalloc

import numpy as np

from lacuna import (
    Character,
    ChaosPolynomial,
    CharacterSystem,
    DensityMeasure,
    FiniteAbelianGroup,
    FourierTable,
    GroupMismatch,
    extraction_coefficients,
    hadamard_trig_system,
    inverse_fourier,
    is_d_dissociated,
    lq_norm,
    rademacher_system,
    require_nondegenerate,
    values_matrix,
    vc_system_from_digit_sets,
)
from lacuna.analysis import _grad_lq_q_matrix, chaos_indices
from lacuna.parallel import trial_rng
from lacuna.riesz import _extraction_hat, _modulated_terms, _riesz_hat, _riesz_spectrum


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
    """Value table of sum_t A_t gamma_{k_1} ... gamma_{k_d}, one oracle table per entry."""
    system = polynomial.system
    tables = [oracle_character_table(system, j) for j in range(len(system))]
    out = np.zeros(system.group.size, dtype=np.complex128)
    for index, coeff in zip(polynomial.indices, polynomial.coefficients):
        term = np.ones(system.group.size, dtype=np.complex128)
        for b in index:
            term = term * tables[b]
        out += coeff * term
    return out


def bytes_left_behind(call) -> int:
    """Bytes, as tracemalloc counts them, still allocated once ``call()``'s result is dropped.

    Warm any state the caller means to allow (a group's root tables, a
    system's exponent matrix) before calling this, and warm lazy module
    state with a first call on another system, so that the measured
    system's characters start with nothing stored on them.
    """
    tracemalloc.start()
    try:
        call()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def refuse_everywhere(monkeypatch, attr):
    """Replace ``attr`` at every lacuna import site with a function that fails."""
    import sys

    def refuse(*args, **kwargs):
        raise AssertionError(f"{attr} was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lacuna" and hasattr(module, attr):
            monkeypatch.setattr(module, attr, refuse)


def fresh_rademacher_system(count: int) -> CharacterSystem:
    """A new Rademacher system with its group's root tables and its exponent matrix built."""
    system = rademacher_system(count)
    system.group.roots, system.exponent_matrix
    return system


def character_at(group: FiniteAbelianGroup, index: int) -> Character:
    """The character at a flat index of the dual-group enumeration."""
    return group.character(np.unravel_index(index, group.orders))


def trivial_character(group: FiniteAbelianGroup) -> Character:
    return group.character((0,) * group.rank)


def char_pow(chi: Character, k: int) -> Character:
    """chi^k for any integer k; k = -1 gives the conjugate character."""
    return Character(chi.group, tuple(a * k for a in chi.exponents))


def oracle_term_values(system: CharacterSystem, index) -> np.ndarray:
    """A term's table as the product of its power tables gamma_b^(multiplicity of b), bases increasing."""
    out = np.ones(system.group.size, dtype=np.complex128)
    for b, run in itertools.groupby(sorted(index)):
        out *= char_pow(system.characters[b], len(list(run))).values()
    return out


def char_mul(chi1: Character, chi2: Character) -> Character:
    """chi1 * chi2: exponent vectors added modulo the orders."""
    if chi1.group != chi2.group:
        raise GroupMismatch("characters live on different groups")
    return chi1.group.character([a + b for a, b in zip(chi1.exponents, chi2.exponents)])


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


def oracle_scatter(positions: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``groups._scatter`` one row at a time: one ``np.add.at`` per row of a 2-D ``values``."""
    table = np.zeros(values.shape[:-1] + (size,), dtype=np.result_type(values, 0.0))
    for row, row_values in zip(np.atleast_2d(table), np.atleast_2d(values)):
        np.add.at(row, positions, row_values)
    return table


def oracle_roots(m: int) -> np.ndarray:
    """The m-th roots of unity, each quarter-turn root set exactly in a loop over all residues."""
    quarter = np.array([1, 1j, -1, -1j], dtype=np.complex128)
    table = np.exp(2j * np.pi * np.arange(m) / m)
    for k in range(m):
        if (4 * k) % m == 0:
            table[k] = quarter[(4 * k // m) % 4]
    return table


def oracle_product_index(system: CharacterSystem, exps) -> int:
    """Flat dual index of prod_i gamma_i^{exps_i}: the exponent rows summed mod the orders."""
    orders = system.group.orders
    exponents = np.asarray(exps, dtype=np.int64) @ system.exponent_matrix % np.asarray(orders)
    return int(np.ravel_multi_index(tuple(exponents), orders))


def oracle_riesz_product(system: CharacterSystem, d: int, terms, row: int = 0) -> DensityMeasure:
    """prod_i [ 1 + sum_{(w, k) in terms[i]} w[row] * gamma_i^k / (2d) ], pointwise.

    The oracle for both densities and their exact Fourier tables: each
    weight w is a column with one entry per point, as the library's terms
    hold it, and ``row`` picks the point.  The pairs are added in the order
    ``terms`` lists them, one |G| character table per pair, with no
    transform.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    group = system.group
    values = np.ones(group.size, dtype=np.complex128)
    for gamma, pairs in zip(system.characters, terms):
        factor = np.ones(group.size, dtype=np.complex128)
        for w, k in pairs:
            factor += w[row] * char_pow(gamma, k).values() / (2 * d)
        values *= factor
    return DensityMeasure(group, values)


def rademacher_value(y, index: int, power: int, d: int) -> complex:
    """w^{power * y[index]}, w = exp(2*pi*i/(2d+1)), computed alone for this one read.

    ``y`` is one digit row.  numpy's loops on a one-element array, not
    cmath: the oracle that the batched root reader must match bit for bit.
    """
    base = 2 * d + 1
    k = (power * int(y[index])) % base
    return complex(np.exp(2j * np.pi * np.array([k]) / base)[0])


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
    system: CharacterSystem, index: tuple[int, ...], d: int
) -> tuple[int, ...]:
    """Adjusted powers: alpha flips to 2d+1-alpha when gamma^{-alpha} = gamma^j, j < alpha.

    alpha is the multiplicity of each distinct base of the index, in increasing base order.
    """
    adjusted = []
    for b in sorted(set(index)):
        a = index.count(b)
        gamma = system.characters[b]
        inverse = char_pow(gamma, -a).exponents
        hit = any(char_pow(gamma, j).exponents == inverse for j in range(1, a))
        adjusted.append(2 * d + 1 - a if hit else a)
    return tuple(adjusted)


def oracle_extract_by_transform(polynomial, ys=None) -> np.ndarray:
    """Both extraction routes by transform: one inverse transform per row.

    With no ``ys`` row s-1 is Q * nu_s, the inverse of Q's Fourier table
    times nu_s's.  With a (Y, m) digit block ``ys`` row r weights each term
    of the polynomial by prod_i w^{-alpha'_i * y_{k_i}}, w = exp(2*pi*i/(2d+1)),
    multiplied out base by base for the point ys[r], and is the inverse
    of that weighted polynomial's Fourier table times rho_y's.  Q's table
    is its coefficients scattered at its term positions (``spectrum()``),
    and rho's and rho_y's are the library's walks of their factor terms.
    """
    system, d = polynomial.system, polynomial.degree
    if ys is None:
        rho_hat = _riesz_hat(system, d, check=False)
        q_hat = polynomial.spectrum()
        rows = [
            q_hat * _extraction_hat(rho_hat, extraction_coefficients(d, s)) for s in range(1, d + 1)
        ]
    else:
        rows = []
        for y in ys:
            weighted = {}
            for index, coefficient in zip(polynomial.indices, polynomial.coefficients.tolist()):
                powers = oracle_modulation_exponents(system, index, d)
                for b, a in zip(sorted(set(index)), powers):
                    coefficient *= rademacher_value(y, b, -a, d)
                weighted[index] = coefficient
            q_hat = ChaosPolynomial(system, d, weighted).spectrum()
            rho_y_hat = _riesz_spectrum(system, d, _modulated_terms(system, d, np.array([y])))[0]
            rows.append(q_hat * rho_y_hat)
    return np.stack([inverse_fourier(FourierTable(system.group, row)).values for row in rows])


def oracle_witness(system: CharacterSystem, d: int) -> tuple[int, ...] | None:
    """First violating tuple of a plain itertools.product scan over all (2d+1)^m tuples.

    Products and factor powers are judged numerically: a character is
    trivial iff its value table is within 1e-9 of the constant 1.  The
    smallest nontrivial root of unity at the group sizes used in tests is
    far from 1, so the threshold is safe.  The scan order (-d < ... < d on
    every coordinate, lexicographic) is the one the checker documents, and
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


def verify_witness(system: CharacterSystem, witness) -> bool:
    """True when the witness product is trivial with a nontrivial factor, by exponent arithmetic."""
    if len(witness) != len(system):
        return False
    exponents = system.exponent_matrix
    orders = np.asarray(system.group.orders, dtype=np.int64)
    # powers depend on each exponent modulo the group exponent only
    exponent = math.lcm(*system.group.orders)
    ks = np.asarray([k % exponent for k in witness], dtype=np.int64)
    product_trivial = not ((ks @ exponents) % orders).any()
    factor_nontrivial = bool(((ks[:, None] * exponents) % orders).any())
    return product_trivial and factor_nontrivial


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


def lp_coeff_norm(coefficients, p) -> float:
    """(sum |A_i|^p)^(1/p) over a coefficient vector; p = inf gives max |A_i|.

    The l_p oracle for Gaussian coefficient vectors, whose sums stay well
    inside the float range.
    """
    mags = np.abs(np.asarray(coefficients, dtype=np.complex128))
    if math.isinf(p):
        return float(mags.max())
    return float(np.sum(mags**p) ** (1.0 / p))


def khinchin_ratio(polynomial, q) -> float:
    """||Q||_q / ||A||_2 of one polynomial."""
    return lq_norm(polynomial.values(), q) / lp_coeff_norm(polynomial.coefficients, 2)


def sidon_ratio(polynomial, p=None) -> float:
    """||A||_p / ||Q||_inf of one polynomial, p defaulting to 2d/(d+1)."""
    if p is None:
        p = 2 * polynomial.degree / (polynomial.degree + 1)
    return lp_coeff_norm(polynomial.coefficients, p) / lq_norm(polynomial.values(), math.inf)


def grad_lq_q(polynomial, q) -> np.ndarray:
    """The Khinchin ascent's own gradient of ||Q||_q^q, one complex entry per term.

    The real part is the derivative in Re(A_t), the imaginary part in Im(A_t).
    """
    matrix = values_matrix(polynomial.system, polynomial.indices)
    return _grad_lq_q_matrix(matrix.conj().T, matrix @ polynomial.coefficients, q)


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
    change or after ``max_sweeps`` sweeps; the default exponent p is used,
    and every unimodular pattern's l_p norm is ``n ** (1 / p)``.
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
        coeff_norm = n ** (1 / p)
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


def oracle_product(matrix, operand):
    """``matrix @ operand`` for a complex vector or matrix, as the estimators take it.

    A complex matrix multiplies the operand as it is.  A real one
    multiplies an n x 2k real block, columns 2j and 2j + 1 holding the real
    and imaginary parts of the operand's column j (a vector is one column),
    and the two real columns of the result are put back together.
    """
    if np.iscomplexobj(matrix):
        return matrix @ operand
    columns = operand.reshape(operand.shape[0], -1)
    block = np.stack([columns.real, columns.imag], axis=-1).reshape(columns.shape[0], -1)
    real = matrix @ block
    product = np.empty((matrix.shape[0], columns.shape[1]), dtype=np.complex128)
    product.real, product.imag = real[:, 0::2], real[:, 1::2]
    return product.reshape(matrix.shape[:1] + operand.shape[1:])


def oracle_distinct_rows(matrix):
    """(rows, classes): one row per class of equal rows of a value block, and each row's class.

    ``np.unique`` over the rows finds the classes; each keeps its first
    row, and they are ordered by it.  A block whose rows all differ comes
    back as a copy, with the identity classes.
    """
    _, first, inverse = np.unique(matrix, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return matrix[first[order]], rank[inverse.reshape(-1)]


def oracle_khinchin_estimate(system, d, q, trials, seed, indices=None):
    """The Khinchin ascent as first written, one trial after another.

    Returns (constant, coefficients, histories).  Each trial runs its own
    chain of matrix-vector products, each one ``oracle_product``, over one
    row per class of equal rows (``oracle_distinct_rows``), with the
    step size, tolerance and step cap read from ``lacuna.analysis`` at call
    time, so a test that patches them patches the oracle too.
    """
    from lacuna import analysis

    if indices is None:
        indices = chaos_indices(system, d)
    matrix, _ = oracle_distinct_rows(values_matrix(system, indices))
    adjoint = matrix.conj().T
    results = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        vec = rng.standard_normal(matrix.shape[1]) + 1j * rng.standard_normal(matrix.shape[1])
        coeffs = vec / np.linalg.norm(vec)
        values = oracle_product(matrix, coeffs)
        ratio = lq_norm(values, q)
        history = [ratio]
        if not math.isinf(q):
            step = analysis._ASCENT_STEP
            for _ in range(analysis._ASCENT_MAX_STEPS):
                weight = np.abs(values) ** (q - 2) * values
                grad = q * oracle_product(adjoint, weight) / adjoint.shape[1]
                candidate = coeffs + step * grad
                candidate /= np.linalg.norm(candidate)
                candidate_values = oracle_product(matrix, candidate)
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


def _scan_trial_draws(size, n, sizes, probes, rng):
    """One scan trial's nested point sequence and its (probes, n) coefficients."""
    sequence = rng.permutation(size)
    if sizes[-1] > size:
        tail = rng.integers(0, size, size=sizes[-1] - size)
        sequence = np.concatenate([sequence, tail])
    sequence = sequence[: sizes[-1]]
    coeffs = rng.standard_normal((probes, n)) + 1j * rng.standard_normal((probes, n))
    return sequence, coeffs


def _scan_record(m, t, ratios, q, n, seed):
    return {
        "m": m,
        "trial": t,
        "c1": float(ratios.min()),
        "c2": float(ratios.max()),
        "q": float(q),
        "n_basis": n,
        "seed": seed,
    }


def oracle_scan_point_counts(system, indices, q, m_grid, trials, seed, probes=64):
    """The discretization scan, one trial after another, from point counts.

    The values are taken on one row per class of equal rows
    (``oracle_distinct_rows``).  Each probe's true norm is ``lq_norm`` of
    its column of values, taken through ``oracle_product``.  A Python loop
    counts the points of every scheme in their classes, and one product of
    the counts with the ``|f|^q`` table gives each scheme's sum, which over
    m is its mean.
    """
    full = values_matrix(system, indices)
    size, n = full.shape
    matrix, classes = oracle_distinct_rows(full)
    sizes = sorted(set(int(m) for m in m_grid))
    records = []
    for t in range(trials):
        sequence, coeffs = _scan_trial_draws(size, n, sizes, probes, trial_rng(seed, t))
        f_values = oracle_product(matrix, coeffs.T)
        true_norms = np.array([lq_norm(f_values[:, i], q) for i in range(probes)])
        counts = np.zeros((len(sizes), len(matrix)))
        for row, m in enumerate(sizes):
            for point in sequence[:m]:
                counts[row, classes[point]] += 1
        sums = counts @ (np.abs(f_values) ** q)
        for m, row in zip(sizes, sums):
            ratios = (row / m) ** (1.0 / q) / true_norms
            records.append(_scan_record(m, t, ratios, q, n, seed))
    records.sort(key=lambda r: (r["m"], r["trial"]))
    return records


def per_row_scan_records(system, indices, q, m_grid, trials, seed, probes=64):
    """The discretization scan as first written: every scheme summed row by row.

    ``|f|^q`` of the complex product ``matrix @ coeffs.T`` is raised once
    per row of the point sequence (repeated points are raised again), and
    each scheme weights its rows 1/m and sums them.
    """
    matrix = values_matrix(system, indices).astype(np.complex128)
    size, n = matrix.shape
    sizes = sorted(set(int(m) for m in m_grid))
    records = []
    for t in range(trials):
        sequence, coeffs = _scan_trial_draws(size, n, sizes, probes, trial_rng(seed, t))
        f_values = matrix @ coeffs.T
        true_norms = np.array([lq_norm(f_values[:, i], q) for i in range(probes)])
        powered = np.abs(f_values[sequence, :]) ** q
        for m in sizes:
            weights = np.full(m, 1.0 / m)
            discrete = np.sum(weights[:, None] * powered[:m], axis=0) ** (1.0 / q)
            records.append(_scan_record(m, t, discrete / true_norms, q, n, seed))
    records.sort(key=lambda r: (r["m"], r["trial"]))
    return records
