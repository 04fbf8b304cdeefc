"""Index enumeration, the polynomial's sorted form, evaluation, and homogeneous decomposition."""

import cmath
import math

import numpy as np
import pytest

import lacuna as lc
from conftest import oracle_chaos_values

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
