"""Index enumeration, the polynomial's sorted form, evaluation, term positions and
spectrum, and homogeneous decomposition."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lacuna as lc
from conftest import character_at, oracle_chaos_values

OMEGA3 = cmath.exp(2j * cmath.pi / 3)


# -- enumerations --------------------------------------------------------------


def test_enumerate_tetrahedral_examples():
    assert lc.enumerate_tetrahedral(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert lc.enumerate_tetrahedral(4, 4) == [(0, 1, 2, 3)]
    assert len(lc.enumerate_tetrahedral(5, 2)) == 10


def test_enumerate_tetrahedral_degree_errors():
    with pytest.raises(lc.DegreeExceedsSystem):
        lc.enumerate_tetrahedral(3, 4)
    with pytest.raises(ValueError):
        lc.enumerate_tetrahedral(3, 0)


def test_enumerate_polynomial_examples():
    indices = lc.enumerate_polynomial(3, 2)
    assert len(indices) == 6
    assert (0, 0) in indices and (2, 2) in indices
    assert lc.enumerate_polynomial(1, 3) == [(0, 0, 0)]
    assert len(lc.enumerate_polynomial(2, 3)) == 4


def test_enumeration_counts_match_closed_forms():
    for m in range(1, 13):
        for d in range(1, 7):
            assert len(lc.enumerate_polynomial(m, d)) == math.comb(m + d - 1, d)
            if d <= m:
                assert len(lc.enumerate_tetrahedral(m, d)) == math.comb(m, d)


# -- polynomials ---------------------------------------------------------------------


def _z3_single_char_system():
    group = lc.make_group([3])
    return lc.CharacterSystem.from_exponents(group, [[1]])


def test_evaluate_single_squared_term():
    system = _z3_single_char_system()
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 1})
    g = 1  # the element with digit 1
    assert oracle_chaos_values(q)[g] == pytest.approx(OMEGA3**2)
    assert q.values()[g] == pytest.approx(OMEGA3**2)


def test_evaluate_zero_polynomial():
    system = _z3_single_char_system()
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 0})
    assert np.abs(q.values()).max() == 0
    assert oracle_chaos_values(q)[2] == 0


def test_evaluate_rademacher_sum():
    system = lc.rademacher_system(3)
    q = lc.ChaosPolynomial(system, 1, {(0,): 1, (1,): 1, (2,): 1})
    g = np.ravel_multi_index((1, 1, 0), system.group.orders)
    assert q.values()[g] == pytest.approx(-1)


def test_values_match_pointwise_evaluate():
    rng = np.random.default_rng(41)
    system = lc.CharacterSystem.from_exponents(lc.make_group([5, 3]), [[1, 0], [2, 1], [0, 2]])
    q = lc.random_chaos_polynomial(system, 2, rng)
    table = q.values()
    oracle = oracle_chaos_values(q)
    for g in range(system.group.size):
        assert table[g] == pytest.approx(oracle[g], abs=1e-12)


def test_indices_are_sorted_and_coefficients_aligned_and_read_only():
    q = lc.ChaosPolynomial(lc.rademacher_system(2), 2, {(1, 0): 2, (0, 0): 1})
    assert q.indices == ((0, 0), (0, 1))
    assert q.coefficients.dtype == np.complex128
    assert q.coefficients.tolist() == [1, 2]
    with pytest.raises(ValueError):
        q.coefficients[0] = 3


def test_coefficient_validation():
    system = _z3_single_char_system()
    with pytest.raises(ValueError):
        lc.ChaosPolynomial(system, 2, {(0,): 1})  # degree mismatch
    with pytest.raises(ValueError):
        lc.ChaosPolynomial(system, 2, {(0, 1): 1})  # base out of range
    two = lc.rademacher_system(2)
    with pytest.raises(ValueError):
        # (1, 0) canonicalizes to (0, 1): a duplicate key, not a new term
        lc.ChaosPolynomial(two, 2, {(0, 1): 1, (1, 0): 2})
    with pytest.raises(ValueError):
        lc.ChaosPolynomial(two, 2, {(-1, 0): 1})  # negative base


# -- decomposition ----------------------------------------------------------------------


def test_decompose_by_distinct_base_count():
    system = lc.rademacher_system(2)
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 1, (0, 1): 2})
    parts = lc.decompose(q)
    assert len(parts) == 2
    for s, part in enumerate(parts, start=1):
        assert all(len(set(index)) == s for index in part.indices)
    assert parts[0].indices == ((0, 0),) and parts[0].coefficients.tolist() == [1]
    assert parts[1].indices == ((0, 1),) and parts[1].coefficients.tolist() == [2]


def test_decompose_tetrahedral_is_top_part():
    system = lc.rademacher_system(4)
    coeffs = {idx: 1.0 for idx in lc.enumerate_tetrahedral(4, 2)}
    q = lc.ChaosPolynomial(system, 2, coeffs)
    parts = lc.decompose(q)
    assert not parts[0].indices and not parts[0].coefficients.size
    assert np.abs(parts[1].values() - q.values()).max() < 1e-12


def test_decompose_degree_one_is_identity():
    system = lc.rademacher_system(3)
    q = lc.ChaosPolynomial(system, 1, {(0,): 1j, (2,): -1})
    parts = lc.decompose(q)
    assert len(parts) == 1
    assert np.abs(parts[0].values() - q.values()).max() == 0


def test_decompose_reconstructs_pointwise():
    rng = np.random.default_rng(43)
    for _ in range(10):
        system = lc.CharacterSystem.from_exponents(
            lc.make_group([7, 7]), [[1, 0], [0, 1], [2, 3]]
        )
        d = int(rng.integers(1, 4))
        q = lc.random_chaos_polynomial(system, d, rng)
        total = sum(part.values() for part in lc.decompose(q))
        assert np.abs(total - q.values()).max() <= 1e-10


def test_relabeling_preserves_coefficient_multiset_exactly():
    rng = np.random.default_rng(47)
    system = lc.CharacterSystem.from_exponents(lc.make_group([9, 9]), [[1, 0], [0, 1]])
    indices = lc.enumerate_polynomial(2, 3)
    coeffs = rng.standard_normal(len(indices)) + 1j * rng.standard_normal(len(indices))
    q = lc.ChaosPolynomial(system, 3, dict(zip(indices, coeffs)))
    original = sorted(q.coefficients, key=lambda z: (z.real, z.imag))
    relabeled = sorted(
        (c for part in lc.decompose(q) for c in part.coefficients),
        key=lambda z: (z.real, z.imag),
    )
    assert original == relabeled  # exact: the same complex numbers, re-keyed
    l2_a = float(np.linalg.norm(q.coefficients))
    l2_c = float(np.sqrt(sum(abs(c) ** 2 for c in relabeled)))
    assert l2_a == pytest.approx(l2_c, abs=0)


# -- term positions and the exact spectrum ----------------------------------------------


def _explicit(orders, exponents):
    return lc.CharacterSystem.from_exponents(lc.make_group(orders), exponents)


@st.composite
def _small_chaos(draw):
    """A system on at most two small cyclic factors, so powers coincide often, and a degree."""
    orders = draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))
    group = lc.make_group(orders)
    nontrivial = [character_at(group, i).exponents for i in range(1, group.size)]
    size = min(4, len(nontrivial))
    exps = draw(st.lists(st.sampled_from(nontrivial), min_size=1, max_size=size, unique=True))
    return lc.CharacterSystem.from_exponents(group, exps), draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(_small_chaos())
def test_terms_share_a_position_exactly_when_their_value_columns_are_equal(case):
    system, d = case
    indices = lc.enumerate_polynomial(len(system), d)
    positions = lc.term_positions(system, indices)
    assert positions.dtype == np.int64 and positions.shape == (len(indices),)
    assert ((0 <= positions) & (positions < system.group.size)).all()
    columns = np.stack([lc.term_values(system, index) for index in indices])
    same_values = np.abs(columns[:, None, :] - columns[None, :, :]).max(axis=2) < 1e-9
    assert (same_values == (positions[:, None] == positions[None, :])).all()


def test_positions_of_coinciding_powers():
    # on Z_5 with the characters 1 and 2, gamma_0 gamma_1^2 and every fifth power are trivial
    system = _explicit([5], [[1], [2]])
    assert lc.term_positions(system, lc.enumerate_polynomial(2, 3)).tolist() == [3, 4, 0, 1]
    assert lc.term_positions(system, [(1,) * 5, (0,) * 5]).tolist() == [0, 0]
    # every r_i^2 of base-2 Rademacher characters is the trivial character
    assert lc.term_positions(lc.rademacher_system(3), [(0, 0), (1, 1), (2, 2)]).tolist() == [0] * 3


def test_values_of_a_two_base_part_holds_one_term_table_at_a_time():
    # the 28 two-base terms of a degree-2 chaos on Z_5^8: a power table per
    # base, held until its last term, peaked at 10 tables; the result, one
    # scratch table and the term's own read 3
    system = lc.rademacher_system(8, base=5)
    part = lc.decompose(lc.random_chaos_polynomial(system, 2, np.random.default_rng(3)))[1]
    assert len(part.indices) == 28
    part.values()
    tracemalloc.start()
    try:
        part.values()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * system.group.size


SPECTRUM_CASES = {
    "Z9xZ9 d2": (lambda: _explicit([9, 9], [[1, 0], [0, 1]]), 2),
    "Z2503 d3": (lambda: _explicit([2503], [[7], [49]]), 3),
    "Z4093 d3": (lambda: _explicit([4093], [[8], [64]]), 3),
    "Z45xZ56 d2": (lambda: _explicit([45, 56], [[1, 2], [3, 1]]), 2),
    "Z5 [1],[2] d2": (lambda: _explicit([5], [[1], [2]]), 2),
    "Z4 [1] d2": (lambda: _explicit([4], [[1]]), 2),
    "rademacher10 d2": (lambda: lc.rademacher_system(10), 2),
}


@pytest.mark.parametrize("case", SPECTRUM_CASES.values(), ids=SPECTRUM_CASES)
def test_spectrum_matches_the_transform_of_the_value_table(case):
    build, d = case
    system = build()
    q = lc.random_chaos_polynomial(system, d, np.random.default_rng(53))
    assert np.linalg.norm(q.coefficients) == pytest.approx(1, abs=1e-15)
    spectrum, values = q.spectrum(), q.values()
    transform = lc.fourier(lc.DensityMeasure(system.group, values)).coeffs
    assert np.abs(spectrum - transform).max() <= 1e-15
    # coinciding terms add up: the table's squared norm is ||Q||_2^2, not ||A||_2^2
    l2_squared = np.mean(np.abs(values) ** 2)
    assert np.vdot(spectrum, spectrum).real == pytest.approx(l2_squared, rel=1e-12)


def test_spectrum_weights_scale_each_term():
    system = _explicit([5], [[1], [2]])
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 1.0, (1, 1): 2.0, (0, 1): 3.0})
    # the sorted indices (0, 0), (0, 1), (1, 1) sit at positions 2, 3, 4; the
    # weights 1j, -1, 0.5 scale their coefficients in the weighted polynomial
    assert q.positions.tolist() == [2, 3, 4]
    weighted = lc.ChaosPolynomial(system, 2, {(0, 0): 1j * 1.0, (0, 1): -1 * 3.0, (1, 1): 0.5 * 2.0})
    assert np.array_equal(weighted.spectrum(), [0, 0, 1j, -3, 1])
    assert np.array_equal(q.spectrum(), [0, 0, 1, 3, 2])


def test_empty_part_has_no_positions_and_a_zero_spectrum():
    system = _explicit([9, 9], [[1, 0], [0, 1]])
    q = lc.random_chaos_polynomial(system, 3, np.random.default_rng(59))
    empty = lc.decompose(q)[2]  # three distinct bases among two characters
    assert empty.indices == () and empty.coefficients.size == 0
    assert empty.positions.dtype == np.int64 and empty.positions.size == 0
    assert lc.term_positions(system, []).size == 0
    assert np.array_equal(empty.spectrum(), np.zeros(system.group.size))
    y = lc.ModulationPoint(7, (3, 5))
    assert np.array_equal(lc.extract_homogeneous_modulated(empty, [y])[0], np.zeros(system.group.size))
