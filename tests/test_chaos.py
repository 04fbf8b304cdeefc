"""Index enumeration, compression, evaluation, and homogeneous decomposition."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lacuna as lc

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


# -- compression ------------------------------------------------------------------


def test_compress_examples():
    ci = lc.compress((1, 1, 3))
    assert ci.bases == (1, 3) and ci.exponents == (2, 1)
    ci = lc.compress((0, 1, 2))
    assert ci.distinct_count == 3 and ci.exponents == (1, 1, 1)
    ci = lc.compress((2, 2, 2, 2))
    assert ci.bases == (2,) and ci.exponents == (4,)


def test_compress_expand_bijection_exhaustive():
    for m in range(1, 9):
        for d in range(1, 6):
            for idx in lc.enumerate_polynomial(m, d):
                ci = lc.compress(idx)
                assert ci.expand() == idx
                assert lc.compress(ci.expand()) == ci
                assert lc.expand(ci) == idx


def test_compressed_index_validation():
    with pytest.raises(ValueError):
        lc.CompressedIndex((1, 1), (1, 1))  # bases not strictly increasing
    with pytest.raises(ValueError):
        lc.CompressedIndex((0,), (0,))  # zero multiplicity
    with pytest.raises(ValueError):
        lc.CompressedIndex((0, 2), (1,))  # shape mismatch


# -- polynomials ---------------------------------------------------------------------


def _z3_single_char_system():
    group = lc.make_group([3])
    return lc.CharacterSystem.from_exponents(group, [[1]])


def test_evaluate_single_squared_term():
    system = _z3_single_char_system()
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 1})
    g = system.group.element([1])
    assert q.evaluate(g) == pytest.approx(OMEGA3**2)
    assert q.values()[g.index] == pytest.approx(OMEGA3**2)


def test_evaluate_zero_polynomial():
    system = _z3_single_char_system()
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 0})
    assert np.abs(q.values()).max() == 0
    assert q.evaluate(system.group.element([2])) == 0


def test_evaluate_rademacher_sum():
    system = lc.rademacher_system(3)
    q = lc.ChaosPolynomial(system, 1, {(0,): 1, (1,): 1, (2,): 1})
    g = system.group.element([1, 1, 0])
    assert q.evaluate(g) == pytest.approx(-1)


def test_values_match_pointwise_evaluate():
    rng = np.random.default_rng(41)
    system = lc.CharacterSystem.from_exponents(lc.make_group([5, 3]), [[1, 0], [2, 1], [0, 2]])
    q = lc.random_chaos_polynomial(system, 2, rng)
    table = q.values()
    for g in system.group.elements():
        assert table[g.index] == pytest.approx(q.evaluate(g), abs=1e-12)


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


def test_evaluate_group_mismatch():
    system = _z3_single_char_system()
    q = lc.ChaosPolynomial(system, 1, {(0,): 1})
    with pytest.raises(lc.GroupMismatch):
        q.evaluate(lc.make_group([5]).element([1]))


# -- decomposition ----------------------------------------------------------------------


def test_decompose_by_distinct_base_count():
    system = lc.rademacher_system(2)
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 1, (0, 1): 2})
    parts = lc.decompose(q)
    assert len(parts) == 2
    for s, part in enumerate(parts, start=1):
        assert all(index.distinct_count == s for index in part.coefficients)
    assert parts[0].coefficients == {lc.compress((0, 0)): 1}
    assert parts[1].coefficients == {lc.compress((0, 1)): 2}


def test_decompose_tetrahedral_is_top_part():
    system = lc.rademacher_system(4)
    coeffs = {idx: 1.0 for idx in lc.enumerate_tetrahedral(4, 2)}
    q = lc.ChaosPolynomial(system, 2, coeffs)
    parts = lc.decompose(q)
    assert not parts[0].coefficients
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
    original = sorted(q.coefficient_vector(), key=lambda z: (z.real, z.imag))
    relabeled = sorted(
        (c for part in lc.decompose(q) for c in part.coefficient_vector()),
        key=lambda z: (z.real, z.imag),
    )
    assert original == relabeled  # exact: the same complex numbers, re-keyed
    l2_a = q.l2_coefficient_norm()
    l2_c = float(np.sqrt(sum(abs(c) ** 2 for c in relabeled)))
    assert l2_a == pytest.approx(l2_c, abs=0)


@settings(max_examples=25, deadline=None)
@given(full=st.lists(st.integers(0, 7), min_size=1, max_size=5))
def test_compress_round_trip_hypothesis(full):
    idx = tuple(sorted(full))
    assert lc.compress(idx).expand() == idx


# -- serialization --------------------------------------------------------------------------


def test_chaos_json_round_trip():
    system = lc.rademacher_system(3)
    q = lc.ChaosPolynomial(system, 2, {(0, 1): 1 + 2j, (1, 1): -0.5})
    obj = q.to_json_obj()
    assert obj["d"] == 2
    assert obj["terms"] == [
        {"k": [0, 1], "alpha": [1, 1], "re": 1.0, "im": 2.0},
        {"k": [1], "alpha": [2], "re": -0.5, "im": 0.0},
    ]
    back = lc.ChaosPolynomial.from_json_obj(system, obj)
    assert back.coefficients == q.coefficients
