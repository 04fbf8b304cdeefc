"""Riesz products, modulated variants, extraction measures, both identities."""

import cmath
import itertools
import math

import numpy as np
import pytest

import lacuna as lc
from conftest import (
    oracle_character_table,
    oracle_inverse_powers,
    oracle_modulated_powers,
    oracle_modulation_exponents,
    oracle_product_index,
    sample_dissociated_system,
    sample_nondegenerate_system,
)

OMEGA5 = cmath.exp(2j * cmath.pi / 5)


def _system(orders, exponents):
    return lc.CharacterSystem.from_exponents(lc.make_group(orders), exponents)


# -- power bookkeeping ---------------------------------------------------------


def test_inverse_powers_examples():
    g9 = lc.make_group([9]).character([1])
    assert lc.riesz_inverse_powers(g9, 2) == {1, 2}

    g2 = lc.make_group([2]).character([1])
    assert lc.riesz_inverse_powers(g2, 1) == set()

    g4 = lc.make_group([4]).character([1])
    assert lc.riesz_inverse_powers(g4, 2) == {1}


def test_modulated_powers_examples():
    g9 = lc.make_group([9]).character([1])
    assert lc.riesz_modulated_powers(g9, 2) == {1, 2}

    g3 = lc.make_group([3]).character([1])
    # gamma^{-2} = gamma^{1} with 1 < 2, so the power 2 is dropped
    assert lc.riesz_modulated_powers(g3, 2) == {1}

    g4 = lc.make_group([4]).character([1])
    # gamma^{-2} = gamma^{2} but only j < k counts, so 2 stays
    assert lc.riesz_modulated_powers(g4, 2) == {1, 2}


ORACLE_GROUPS = [[n] for n in range(2, 13)] + [[4, 6], [3, 9], [30], [2, 3, 5]]


@pytest.mark.parametrize("orders", ORACLE_GROUPS, ids=str)
def test_power_coincidence_rule_matches_exponent_oracle(orders):
    """The closed form (k+J)//ord > k//ord against exponent comparison of char_pow."""
    group = lc.make_group(orders)
    system = lc.CharacterSystem(group, tuple(group.character_at(i) for i in range(1, group.size)))
    cases = 0
    for b, gamma in enumerate(system.characters):
        for d in range(1, 8):
            assert lc.riesz_inverse_powers(gamma, d) == oracle_inverse_powers(gamma, d)
            assert lc.riesz_modulated_powers(gamma, d) == oracle_modulated_powers(gamma, d)
            for a in range(1, d + 1):
                # one factor alone, and next to the first character at power d
                indices = [(b,) * a]
                if b:
                    indices.append((0,) * d + (b,) * a)
                for index in indices:
                    assert lc.modulation_exponents(system, index, d) == (
                        oracle_modulation_exponents(system, index, d)
                    )
            cases += 1
    assert cases == 7 * (group.size - 1)


# -- the plain product -------------------------------------------------------------


def test_riesz_density_order4_d1():
    system = _system([4], [[1]])
    rho = lc.riesz_density(system, 1)
    assert np.abs(rho.values - np.array([2.0, 1.0, 0.0, 1.0])).max() < 1e-12


def test_riesz_density_empty_system():
    group = lc.make_group([6])
    rho = lc.riesz_density(lc.CharacterSystem(group, ()), 2)
    assert np.abs(rho.values - 1).max() == 0


def test_riesz_density_two_rademachers():
    system = lc.rademacher_system(2)
    rho = lc.riesz_density(system, 1)
    assert np.abs(rho.values - np.array([2.25, 0.75, 0.75, 0.25])).max() < 1e-12
    assert rho.mass == pytest.approx(1.0)


def test_riesz_density_requires_dissociation():
    # for unit mass, not to be built: on this system, which is not
    # 2-dissociated, the four power pairs gamma_1^a gamma_2^b with a + 2b = 0
    # mod 5 each add 1/16 to the constant term
    system = _system([5], [[1], [2]])
    with pytest.raises(lc.NotDissociated) as err:
        lc.dissociation.require_dissociated(system, 2)
    assert err.value.report.witness == (-2, 1)
    rho = lc.riesz_density(system, 2)
    assert rho.values.shape == (5,)
    assert rho.mass == pytest.approx(1.25)


def test_riesz_density_counts_repeated_powers():
    # orders 2, 3, 5 and 30 against d up to 12: at d >= ord each distinct
    # power is added once with its count, and no inverse power is kept
    system = _system([2, 3, 5], [[1, 0, 0], [0, 1, 0], [0, 0, 2], [1, 1, 1]])
    tables = [oracle_character_table(system, j) for j in range(len(system))]
    for d in range(1, 13):
        expected = np.ones(system.group.size, dtype=np.complex128)
        for gamma, table in zip(system.characters, tables):
            powers = [table**k for k in range(1, d + 1)]
            powers += [table ** (-k) for k in oracle_inverse_powers(gamma, d)]
            expected *= 1 + sum(powers) / (2 * d)
        rho = lc.riesz_density(system, d)
        assert np.abs(rho.values - expected).max() < 1e-12


def _term_by_term_density(system, d):
    """The density with gamma^1 .. gamma^d added one at a time in k order."""
    values = np.ones(system.group.size, dtype=np.complex128)
    for gamma in system.characters:
        factor = np.ones(system.group.size, dtype=np.complex128)
        for k in range(1, d + 1):
            factor += lc.char_pow(gamma, k).values / (2 * d)
        for k in sorted(oracle_inverse_powers(gamma, d)):
            factor += lc.char_pow(gamma, -k).values / (2 * d)
        values *= factor
    return values


def test_riesz_density_floats_past_the_orders_are_the_term_by_term_sum():
    # rademacher(3) at d = 3 > ord = 2: each distinct power is added once,
    # times its count, and the floats come out exact
    rho = lc.riesz_density(lc.rademacher_system(3), 3)
    assert rho.values.tolist() == [
        3.375, 1.875, 1.875, 1.0416666666666667,
        1.875, 1.0416666666666667, 1.0416666666666667, 0.5787037037037038,
    ]
    system = _system([2, 3, 5], [[1, 0, 0], [0, 1, 0], [0, 0, 2], [1, 1, 1]])
    for d in range(1, 13):
        expected = _term_by_term_density(system, d)
        by_class = lc.riesz_density(system, d).values
        # summing by residue class keeps every d <= ord(gamma) factor and
        # moves the others in last bits
        assert np.abs(by_class - expected).max() <= 1e-14 * np.abs(expected).max()
        if d <= 2:
            assert np.array_equal(by_class, expected)


def test_riesz_density_at_huge_d():
    # d = 3,000,000 on order-2 characters: each factor is 1 + (d/2)(gamma + 1)/(2d)
    system = lc.rademacher_system(3)
    rho = lc.riesz_density(system, 3_000_000)
    expected = np.ones(8)
    for j in range(3):
        expected *= 1.25 + oracle_character_table(system, j).real / 4
    assert np.abs(rho.values - expected).max() < 1e-15


def test_riesz_density_probability_on_random_systems():
    rng = np.random.default_rng(101)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        system = sample_dissociated_system(rng, d)
        rho = lc.riesz_density(system, d)
        assert rho.is_probability()


def test_riesz_density_mass_shows_order_at_most_d_degeneracy():
    # a single order-2 character passes the d=2 dissociation relation, but
    # the literal product then carries the trivial power gamma^2 and the
    # mass grows to 5/4; samplers therefore keep every order above d
    system = _system([2], [[1]])
    assert lc.is_d_dissociated(system, 2).dissociated
    rho = lc.riesz_density(system, 2)
    assert rho.mass == pytest.approx(1.25)


# -- closed-form coefficients ----------------------------------------------------------


def test_expected_riesz_coefficient_examples():
    # in the nondegenerate regime rho-hat is (2d)^{-s} on every s-fold product
    system4 = _system([4], [[1]])
    lc.require_nondegenerate(system4, 1)
    rho_hat = lc.fourier(lc.riesz_density(system4, 1)).coeffs
    assert rho_hat[oracle_product_index(system4, (1,))] == pytest.approx(0.5)
    system99 = _system([9, 9], [[1, 0], [0, 1]])
    lc.require_nondegenerate(system99, 2)
    rho_hat = lc.fourier(lc.riesz_density(system99, 2)).coeffs
    assert rho_hat[oracle_product_index(system99, (1, 2))] == pytest.approx(1 / 16)
    # the trivial character: the mass
    assert rho_hat[oracle_product_index(system99, (0, 0))] == pytest.approx(1)


def test_expected_riesz_coefficient_degenerate_order():
    with pytest.raises(lc.DegenerateOrder):
        lc.require_nondegenerate(_system([4], [[1]]), 2)


def test_expected_riesz_coefficient_requires_2d_dissociation():
    # d-dissociated but not 2d-dissociated: the law genuinely fails here
    system = _system([5], [[1], [2]])
    rho = lc.riesz_density(system, 1)
    chi1 = system.group.character([1])
    measured = lc.fourier(rho).coeffs.reshape(system.group.orders)[chi1.exponents]
    assert measured == pytest.approx(0.75)  # not (2d)^-1 = 0.5
    with pytest.raises(lc.NotDissociated):
        lc.require_nondegenerate(system, 1)


def test_riesz_fourier_law_full_spectrum():
    rng = np.random.default_rng(103)
    for _ in range(6):
        d = int(rng.integers(1, 4))
        system = sample_nondegenerate_system(rng, d, max_m=3, max_size=2500)
        rho = lc.riesz_density(system, d)
        table = lc.fourier(rho)
        expected = np.zeros(system.group.size, dtype=np.complex128)
        m = len(system)
        for exps in itertools.product(range(-d, d + 1), repeat=m):
            s = sum(1 for e in exps if e)
            expected[oracle_product_index(system, exps)] = (2 * d) ** (-s)
        assert np.abs(table.coeffs - expected).max() < 1e-9


# -- modulated product -------------------------------------------------------------------


def test_modulation_point_validation():
    with pytest.raises(ValueError):
        lc.ModulationPoint(5, (5,))
    y = lc.ModulationPoint(5, (2, 0))
    assert y.rademacher_value(0, 1) == pytest.approx(OMEGA5**2)
    assert y.rademacher_value(0, -1) == pytest.approx(OMEGA5**-2)
    assert y.rademacher_value(1, 3) == pytest.approx(1.0)


def test_modulated_zero_point_matches_plain_product_nondegenerate():
    rng = np.random.default_rng(107)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        system = sample_nondegenerate_system(rng, d, max_m=3)
        rho = lc.riesz_density(system, d)
        rho0 = lc.modulated_riesz_density(
            system, d, lc.ModulationPoint(2 * d + 1, (0,) * len(system))
        )
        assert np.abs(rho.values - rho0.values).max() < 1e-12


def test_modulated_coefficient_single_order9():
    system = _system([9], [[1]])
    d = 2
    y = lc.ModulationPoint(5, (1,))
    rho_y = lc.modulated_riesz_density(system, d, y)
    gamma2 = system.group.character([2])
    measured = lc.fourier(rho_y).coeffs.reshape(system.group.orders)[gamma2.exponents]
    assert measured == pytest.approx(OMEGA5**2 / 4)
    # the product of the weights over (2d)^s, in the nondegenerate regime
    lc.require_nondegenerate(system, d)
    expected = y.rademacher_value(0, 2) / (2 * d) ** 1
    assert measured == pytest.approx(expected)


def test_modulated_variation_is_one():
    rng = np.random.default_rng(109)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        system = sample_dissociated_system(rng, d)
        y = lc.ModulationPoint.random(rng, 2 * d + 1, len(system))
        rho_y = lc.modulated_riesz_density(system, d, y)
        assert abs(rho_y.total_variation - 1) < 1e-9
        assert abs(rho_y.mass - 1) < 1e-9
        # each factor is a real nonnegative function
        assert np.abs(rho_y.values.imag).max() < 1e-10
        assert rho_y.values.real.min() > -1e-10


def test_modulated_base_must_match():
    system = _system([9], [[1]])
    with pytest.raises(ValueError):
        lc.modulated_riesz_density(system, 2, lc.ModulationPoint(7, (1,)))
    with pytest.raises(ValueError):
        lc.modulated_riesz_density(system, 2, lc.ModulationPoint(5, (1, 1)))


def test_modulated_extract_rejects_bad_s_and_point(monkeypatch):
    system = _system([9, 9], [[1, 0], [0, 1]])
    q = lc.random_chaos_polynomial(system, 2, np.random.default_rng(5))
    # the part carries its own s, so only the point can be wrong
    monkeypatch.setattr(lc.riesz, "modulated_riesz_density", None)  # no work may start
    monkeypatch.setattr(lc.riesz, "require_nondegenerate", None)
    for bad in (lc.ModulationPoint(7, (0, 0)), lc.ModulationPoint(5, (0,))):
        with pytest.raises(ValueError, match="modulation"):
            lc.extract_homogeneous_modulated(q, bad)


# -- adjusted exponents ----------------------------------------------------------------------


def test_modulation_exponents_examples():
    d = 2
    sys9 = _system([9], [[1]])
    index = (0, 0)  # base 0 with multiplicity 2
    adjusted = lc.modulation_exponents(sys9, index, d)
    assert adjusted == (2,) and adjusted == (index.count(0),)  # no flip

    sys3 = _system([3], [[1]])
    adjusted = lc.modulation_exponents(sys3, index, d)
    assert adjusted == (3,) and adjusted != (index.count(0),)  # flipped: 2d+1-2 = 3

    sys4 = _system([4], [[1]])
    adjusted = lc.modulation_exponents(sys4, index, d)
    assert adjusted == (2,) and adjusted == (index.count(0),)  # no flip: j=2 is not < 2


# -- extraction coefficients -------------------------------------------------------------------


def test_extraction_coefficients_d1():
    spec = lc.extraction_coefficients(1, 1)
    assert spec.coefficients == (0.0, 2.0)
    assert spec.variation_bound == 2.0


def test_extraction_coefficients_d2_match_direct_solve():
    # independent route: numpy solve of the same 2x2 system
    matrix = np.array([[1 / 4, 1 / 16], [1 / 16, 1 / 256]])
    for s in (1, 2):
        rhs = np.array([1.0 if i + 1 == s else 0.0 for i in range(2)])
        direct = np.linalg.solve(matrix, rhs)
        spec = lc.extraction_coefficients(2, s)
        assert np.abs(np.array(spec.coefficients[1:]) - direct).max() < 1e-9
        assert spec.coefficients[0] == 0.0


def test_extraction_coefficients_residual():
    from fractions import Fraction

    from lacuna.riesz import extraction_coefficients_exact

    # exact residual is identically zero for every d
    for d in range(1, 7):
        for s in range(1, d + 1):
            exact = extraction_coefficients_exact(d, s)
            for i in range(1, d + 1):
                node = Fraction(1, (2 * d) ** i)
                value = sum(exact[j] * node**j for j in range(1, d + 1))
                assert value == (1 if i == s else 0)
    # the float image keeps the residual tiny across the operating range
    for d in range(1, 4):
        nodes = [(2 * d) ** (-i) for i in range(1, d + 1)]
        matrix = np.array([[x**j for j in range(1, d + 1)] for x in nodes])
        for s in range(1, d + 1):
            spec = lc.extraction_coefficients(d, s)
            rhs = np.array([1.0 if i + 1 == s else 0.0 for i in range(d)])
            residual = matrix @ np.array(spec.coefficients[1:]) - rhs
            assert np.abs(residual).max() <= 1e-10


def test_extraction_coefficients_refuse_d_past_the_float_range():
    # (2d)^{d(d+1)/2} is 2^997 at d = 19 and 2^1117 at d = 20
    for s in range(1, 20):
        spec = lc.extraction_coefficients(19, s)
        assert all(math.isfinite(c) for c in spec.coefficients)
        assert math.isfinite(spec.variation_bound)
    with pytest.raises(lc.SizeLimitExceeded):
        lc.extraction_coefficients(20, 1)


def test_extraction_coefficients_range():
    with pytest.raises(ValueError):
        lc.extraction_coefficients(2, 3)
    with pytest.raises(ValueError):
        lc.extraction_coefficients(2, 0)


# -- extraction measures --------------------------------------------------------------------------


def test_extraction_measure_d1_is_twice_rho():
    system = _system([4], [[1]])
    nu = lc.extraction_measure(system, 1, 1)
    rho = lc.riesz_density(system, 1)
    assert np.abs(nu.values - 2 * rho.values).max() < 1e-10
    table = lc.fourier(nu).coeffs.reshape(system.group.orders)
    gamma = system.group.character([1])
    assert table[gamma.exponents] == pytest.approx(1.0)
    assert table[lc.char_pow(gamma, -1).exponents] == pytest.approx(1.0)


def test_extraction_measure_indicator_law_d2():
    system = _system([9, 9], [[1, 0], [0, 1]])
    nu2 = lc.extraction_measure(system, 2, 2)
    table = lc.fourier(nu2).coeffs
    g1g2 = oracle_product_index(system, (1, 1))
    g1 = oracle_product_index(system, (1, 0))
    assert table[g1g2] == pytest.approx(1.0)
    assert table[g1] == pytest.approx(0.0, abs=1e-10)
    spec = lc.extraction_coefficients(2, 2)
    assert nu2.total_variation <= spec.variation_bound + 1e-8


def test_extraction_measure_full_indicator_law_random():
    rng = np.random.default_rng(113)
    for _ in range(4):
        d = int(rng.integers(1, 4))
        system = sample_nondegenerate_system(rng, d, max_m=3, max_size=2500)
        for s in range(1, d + 1):
            nu = lc.extraction_measure(system, d, s, check=False)
            table = lc.fourier(nu).coeffs
            spec = lc.extraction_coefficients(d, s)
            assert nu.total_variation <= spec.variation_bound + 1e-8
            m = len(system)
            for exps in itertools.product(range(-d, d + 1), repeat=m):
                j = sum(1 for e in exps if e)
                if not 1 <= j <= d:
                    continue  # the indicator law speaks about 1 <= j <= d only
                want = 1.0 if j == s else 0.0
                assert abs(table[oracle_product_index(system, exps)] - want) < 1e-8


# -- the two convolution identities -----------------------------------------------------------------


def test_extract_tetrahedral_top_part_is_identity():
    system = _system([9, 9, 9], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    coeffs = {idx: 1.0 + 0.5j for idx in lc.enumerate_tetrahedral(3, 2)}
    q = lc.ChaosPolynomial(system, 2, coeffs)
    extracted = lc.extract_homogeneous(q)[1]
    assert np.abs(extracted - q.values()).max() < 1e-8


def test_extract_missing_part_is_zero():
    system = _system([9, 9], [[1, 0], [0, 1]])
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 1.0, (1, 1): 2.0})  # s=1 only
    extracted = lc.extract_homogeneous(q)[1]
    assert np.abs(extracted).max() < 1e-8


def test_extract_zero_polynomial():
    system = _system([9, 9], [[1, 0], [0, 1]])
    q = lc.ChaosPolynomial(system, 2, {(0, 1): 0.0})
    assert np.abs(lc.extract_homogeneous(q)).max() < 1e-12
    y = lc.ModulationPoint(5, (0, 0))
    assert np.abs(lc.extract_homogeneous_modulated(lc.decompose(q)[0], y)).max() < 1e-12


def test_modulated_extract_zero_point_d2():
    rng = np.random.default_rng(127)
    system = _system([9, 9], [[1, 0], [0, 1]])
    q = lc.random_chaos_polynomial(system, 2, rng)
    part2 = lc.decompose(q)[1]
    result = lc.extract_homogeneous_modulated(part2, lc.ModulationPoint(5, (0, 0)))
    assert np.abs(result - part2.values() / 16).max() < 1e-8


def test_both_identities_random_trials():
    rng = np.random.default_rng(131)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        system = sample_nondegenerate_system(rng, d, max_m=3)
        q = lc.random_chaos_polynomial(system, d, rng)
        parts = lc.decompose(q)
        extracted = lc.extract_homogeneous(q, check=False)
        assert extracted.shape == (d, system.group.size)
        scaled_sum = np.zeros(system.group.size, dtype=np.complex128)
        for s in range(1, d + 1):
            target = parts[s - 1].values()
            direct = extracted[s - 1]
            assert np.abs(direct - target).max() <= 1e-8
            y = lc.ModulationPoint.random(rng, 2 * d + 1, len(system))
            modulated = lc.extract_homogeneous_modulated(parts[s - 1], y, check=False)
            assert np.abs(modulated - target / (2 * d) ** s).max() <= 1e-8
            scaled_sum += target / (2 * d) ** s
        # a polynomial that is not homogeneous gives the sum of its scaled parts
        whole = lc.extract_homogeneous_modulated(q, y, check=False)
        assert np.abs(whole - scaled_sum).max() <= 1e-8


@pytest.mark.parametrize("d", [1, 2, 3])
def test_extract_homogeneous_equals_convolution_with_nu(d):
    rng = np.random.default_rng(137 + d)
    system = sample_nondegenerate_system(rng, d, max_m=3)
    q = lc.random_chaos_polynomial(system, d, rng)
    extracted = lc.extract_homogeneous(q)
    for s in range(1, d + 1):
        nu = lc.extraction_measure(system, d, s)
        expected = lc.convolve(q.as_density(), nu).values
        assert np.abs(extracted[s - 1] - expected).max() <= 1e-10


def test_degenerate_system_rejected_with_pointer_to_transform():
    system = _system([4], [[1]])  # order 4 <= 2d for d = 2
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 1.0})
    with pytest.raises(lc.DegenerateOrder):
        lc.extract_homogeneous(q)
    with pytest.raises(lc.DegenerateOrder):
        lc.extract_homogeneous_modulated(q, lc.ModulationPoint(5, (0,)))


def test_extract_refuses_d_past_the_float_range_before_the_regime_check():
    system = _system([4], [[1]])  # degenerate at any d >= 2
    q = lc.ChaosPolynomial(system, 20, {(0,) * 20: 1.0})
    with pytest.raises(lc.SizeLimitExceeded):
        lc.extract_homogeneous(q)


def test_degenerate_order4_expectation_over_y_recovers_identity():
    # order-4 character at d=2: the coefficient of gamma^2 in rho_y is
    # (w^{2y}+w^{3y})/4, so pointwise extraction fails but the exhaustive
    # average over y restores Q^(1)/(2d) exactly
    system = _system([4], [[1]])
    d = 2
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 1.5 - 0.5j})
    part = lc.decompose(q)[0]
    target = part.values() / (2 * d)
    pointwise_errors = []
    accum = np.zeros(system.group.size, dtype=np.complex128)
    for digit in range(5):
        y = lc.ModulationPoint(5, (digit,))
        out = lc.extract_homogeneous_modulated(part, y, check=False)
        accum += out
        pointwise_errors.append(np.abs(out - target).max())
    assert max(pointwise_errors) > 1e-3  # pointwise identity genuinely fails
    assert np.abs(accum / 5 - target).max() < 1e-10  # the mean restores it
