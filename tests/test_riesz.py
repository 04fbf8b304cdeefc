"""Riesz products, modulated variants, extraction measures, both identities."""

import cmath
import itertools
import math

import numpy as np
import pytest

import lacuna as lc
from conftest import (
    bytes_left_behind,
    char_pow,
    character_at,
    fresh_rademacher_system,
    oracle_character_table,
    oracle_extract_by_transform,
    oracle_inverse_powers,
    oracle_modulated_powers,
    oracle_modulation_exponents,
    oracle_product_index,
    oracle_riesz_product,
    rademacher_value,
    sample_dissociated_system,
    sample_nondegenerate_system,
)

OMEGA5 = cmath.exp(2j * cmath.pi / 5)


def _system(orders, exponents):
    return lc.CharacterSystem.from_exponents(lc.make_group(orders), exponents)


def _oracle_rho(system, d):
    """rho as the pointwise product of its factor terms, with no transform."""
    return oracle_riesz_product(system, d, lc.riesz._riesz_terms(system, d))


def _oracle_rho_y(system, d, y):
    """rho_y as the pointwise product of its factor terms, with no transform."""
    return oracle_riesz_product(system, d, lc.riesz._modulated_terms(system, d, [y]))


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
    system = lc.CharacterSystem(group, tuple(character_at(group, i) for i in range(1, group.size)))
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
            factor += char_pow(gamma, k).values() / (2 * d)
        for k in sorted(oracle_inverse_powers(gamma, d)):
            factor += char_pow(gamma, -k).values() / (2 * d)
        values *= factor
    return values


def test_riesz_density_floats_past_the_orders_are_the_term_by_term_sum():
    # rademacher(3) at d = 3 > ord = 2: _riesz_terms lists each distinct power
    # once, times its count, and their pointwise product comes out exact
    system = lc.rademacher_system(3)
    product = _oracle_rho(system, 3).values
    assert product.tolist() == [
        3.375, 1.875, 1.875, 1.0416666666666667,
        1.875, 1.0416666666666667, 1.0416666666666667, 0.5787037037037038,
    ]
    # the density inverts the exact table: 3.375000000000001 at the identity
    rho = lc.riesz_density(system, 3).values
    assert np.abs(rho - product).max() <= 1e-15 * np.abs(product).max()
    system = _system([2, 3, 5], [[1, 0, 0], [0, 1, 0], [0, 0, 2], [1, 1, 1]])
    for d in range(1, 13):
        expected = _term_by_term_density(system, d)
        by_class = _oracle_rho(system, d).values
        # summing by residue class keeps every d <= ord(gamma) factor and
        # moves the others in last bits
        assert np.abs(by_class - expected).max() <= 1e-14 * np.abs(expected).max()
        if d <= 2:
            assert np.array_equal(by_class, expected)
        # an inverse transform of 30 points: 1.05e-15 * max at d = 12
        rho = lc.riesz_density(system, d).values
        assert np.abs(rho - by_class).max() <= 2e-15 * np.abs(by_class).max()


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


def test_riesz_density_leaves_no_tables_behind():
    # rademacher(12) at d = 2 uses 24 character powers of 64 KB each; once
    # rho is dropped, none of their tables may still be held
    lc.riesz_density(fresh_rademacher_system(4), 2)
    system = fresh_rademacher_system(12)
    assert bytes_left_behind(lambda: lc.riesz_density(system, 2)) < 16 * system.group.size // 4


# -- closed-form coefficients ----------------------------------------------------------


def test_expected_riesz_coefficient_examples():
    # in the nondegenerate regime rho-hat is (2d)^{-s} on every s-fold product
    system4 = _system([4], [[1]])
    lc.require_nondegenerate(system4, 1)
    rho_hat = lc.fourier(_oracle_rho(system4, 1)).coeffs
    assert rho_hat[oracle_product_index(system4, (1,))] == pytest.approx(0.5)
    system99 = _system([9, 9], [[1, 0], [0, 1]])
    lc.require_nondegenerate(system99, 2)
    rho_hat = lc.fourier(_oracle_rho(system99, 2)).coeffs
    assert rho_hat[oracle_product_index(system99, (1, 2))] == pytest.approx(1 / 16)
    # the trivial character: the mass
    assert rho_hat[oracle_product_index(system99, (0, 0))] == pytest.approx(1)


def test_expected_riesz_coefficient_degenerate_order():
    with pytest.raises(lc.DegenerateOrder):
        lc.require_nondegenerate(_system([4], [[1]]), 2)


def test_expected_riesz_coefficient_requires_2d_dissociation():
    # d-dissociated but not 2d-dissociated: the law genuinely fails here
    system = _system([5], [[1], [2]])
    chi1 = system.group.character([1])
    measured = lc.fourier(_oracle_rho(system, 1)).coeffs.reshape(system.group.orders)[chi1.exponents]
    assert measured == pytest.approx(0.75)  # not (2d)^-1 = 0.5
    with pytest.raises(lc.NotDissociated):
        lc.require_nondegenerate(system, 1)


def test_riesz_fourier_law_full_spectrum():
    rng = np.random.default_rng(103)
    for _ in range(6):
        d = int(rng.integers(1, 4))
        system = sample_nondegenerate_system(rng, d, max_m=3, max_size=2500)
        table = lc.fourier(_oracle_rho(system, d))
        expected = np.zeros(system.group.size, dtype=np.complex128)
        m = len(system)
        for exps in itertools.product(range(-d, d + 1), repeat=m):
            s = sum(1 for e in exps if e)
            expected[oracle_product_index(system, exps)] = (2 * d) ** (-s)
        assert np.abs(table.coeffs - expected).max() < 1e-9


# -- both tables in the dual group, off the factor terms ----------------------------------

SPECTRUM_CASES = {
    "Z9xZ9 d2": (lambda: _system([9, 9], [[1, 0], [0, 1]]), 2),
    # every r_i^2 is trivial, so powers coincide
    "rademacher10 d2": (lambda: lc.rademacher_system(10), 2),
    "rademacher base 3 d2": (lambda: lc.rademacher_system(4, base=3), 2),
    # not dissociated: rho has mass 1.25
    "Z5 [1],[2] d2": (lambda: _system([5], [[1], [2]]), 2),
    "empty": (lambda: lc.CharacterSystem(lc.make_group([6]), ()), 2),
    "rademacher3 d3e6": (lambda: lc.rademacher_system(3), 3_000_000),
}


@pytest.mark.parametrize("case", SPECTRUM_CASES.values(), ids=SPECTRUM_CASES)
def test_riesz_spectrum_is_the_transform_of_both_densities(case):
    build, d = case
    system = build()
    rho_hat = lc.riesz._riesz_spectrum(system, d, lc.riesz._riesz_terms(system, d))
    assert rho_hat.dtype == np.complex128 and rho_hat.shape == (1, system.group.size)
    assert np.abs(rho_hat[0] - lc.fourier(_oracle_rho(system, d)).coeffs).max() <= 1e-15
    rng = np.random.default_rng(59)
    ys = lc.ModulationPoint.random_batch(rng, 2 * d + 1, len(system), 4)
    terms = lc.riesz._modulated_terms(system, d, ys)
    rho_y_hats = lc.riesz._riesz_spectrum(system, d, terms, len(ys))
    assert rho_y_hats.shape == (len(ys), system.group.size)
    for r, rho_y_hat in enumerate(rho_y_hats):
        oracle = lc.fourier(oracle_riesz_product(system, d, terms, r)).coeffs
        assert np.abs(rho_y_hat - oracle).max() <= 1e-15


def test_riesz_spectrum_merge_keeps_the_positions_nonzero_at_any_point():
    # point 0 weights its first factor by zero, so its merged table is zero
    # where the other points' tables are not; the walk must keep those
    system = _system([31], [[1], [2], [3], [4]])  # 5^4 products merge at the third factor
    d = 2
    rng = np.random.default_rng(61)
    ys = lc.ModulationPoint.random_batch(rng, 5, 4, 3)
    terms = lc.riesz._modulated_terms(system, d, ys)
    terms[0] = [([0j, *column[1:]], k) for column, k in terms[0]]
    batch = lc.riesz._riesz_spectrum(system, d, terms, len(ys))
    for r, row in enumerate(batch):
        alone = lc.riesz._riesz_spectrum(system, d, [[([c[r]], k) for c, k in f] for f in terms])[0]
        if r:  # the same positions survive each merge, so the same sums are formed
            assert row.tobytes() == alone.tobytes()
        assert np.abs(row - alone).max() <= 1e-15
        oracle = lc.fourier(oracle_riesz_product(system, d, terms, r)).coeffs
        assert np.abs(row - oracle).max() <= 1e-15


def test_riesz_spectrum_of_rademacher20_at_d1_is_two_to_the_minus_support_size():
    # each factor is 1 + r_i/2, so the coefficient at prod_{i in S} r_i is 2^{-|S|};
    # no density of 2^20 points is built
    system = lc.rademacher_system(20)
    rho_hat = lc.riesz._riesz_spectrum(system, 1, lc.riesz._riesz_terms(system, 1))[0]
    codes = np.arange(system.group.size)
    support_size = sum((codes >> j) & 1 for j in range(20))
    assert np.array_equal(rho_hat, 2.0 ** -support_size)


def test_riesz_spectrum_memory_stays_order_g_past_the_group_order():
    # Z_N, N = 1024 * 1023, at d = N + 1: the characters of orders 1024 and
    # 1023 reach every position, and the order-8 one then asks for 9 shifted
    # copies of all N of them, which the walk scatters one copy at a time
    import tracemalloc

    n = 1024 * 1023
    system = _system([n], [[1023], [1024], [n // 8]])
    d = n + 1

    def factor(order):
        # 1 at the trivial character, then count(k) / (2d) on gamma^k, k = 1 .. order
        k = np.arange(1, order + 1)
        table = np.zeros(order)
        np.add.at(table, k % order, ((d - k) // order + 1) / (2 * d))
        table[0] += 1
        return table

    terms = lc.riesz._riesz_terms(system, d)
    tracemalloc.start()
    try:
        rho_hat = lc.riesz._riesz_spectrum(system, d, terms)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = 16 * n
    assert peak < 5 * table_bytes  # one unchunked block of 9 copies would take 9 tables
    # the orders 1024 and 1023 are coprime, so gamma_0^a gamma_1^b covers Z_N once
    a, b = np.meshgrid(np.arange(1024), np.arange(1023), indexing="ij")
    expected = np.zeros(n)
    expected[(1023 * a + 1024 * b) % n] = np.outer(factor(1024), factor(1023))
    expected = sum(c * np.roll(expected, j * (n // 8)) for j, c in enumerate(factor(8)))
    assert np.abs(rho_hat - expected).max() <= 1e-15


def test_riesz_spectrum_adds_its_last_factor_into_the_result_a_block_at_a_time(monkeypatch):
    # rademacher(7, base=5) at d = 2: the last factor's 5 powers copy 5^6
    # positions at 10 points, as many cells as the result; they go in one
    # point at a time, beside the previous factor's (Y, |G|/5) values
    import tracemalloc

    system = lc.rademacher_system(7, base=5)
    d = 2
    ys = lc.ModulationPoint.random_batch(np.random.default_rng(89), 5, len(system), 10)
    walks = [lc.riesz._riesz_terms(system, d), lc.riesz._modulated_terms(system, d, ys)]
    lc.riesz._riesz_spectrum(system, d, walks[1], len(ys))  # warm numpy's caches
    tracemalloc.start()
    try:
        lc.riesz._riesz_spectrum(system, d, walks[1], len(ys))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Y + 4.1 tables; every copy at once beside the result read 2Y + 0.5
    assert peak <= (len(ys) + 5) * 16 * system.group.size
    # rho's real walk and rho_y's complex one: blocks of every size add in one scatter's order
    for terms, points in zip(walks, (1, len(ys))):
        tables = []
        for cells in (1 << 40, 3 * 78125, 1):
            monkeypatch.setattr(lc.riesz, "_COPY_CELLS", cells)
            tables.append(_bits(lc.riesz._riesz_spectrum(system, d, terms, points)))
        assert tables[0] == tables[1] == tables[2]


# -- modulated product -------------------------------------------------------------------


def test_modulation_point_validation():
    with pytest.raises(ValueError):
        lc.ModulationPoint(5, (5,))
    y = lc.ModulationPoint(5, (2, 0))
    columns = lc.riesz._root_columns([y], [(0, 1), (0, -1), (1, 3)])
    assert columns[0][0] == pytest.approx(OMEGA5**2)
    assert columns[1][0] == pytest.approx(OMEGA5**-2)
    assert columns[2][0] == pytest.approx(1.0)


def test_random_batch_draws_what_successive_batches_of_one_draw():
    batch_rng, single_rng = np.random.default_rng(97), np.random.default_rng(97)
    batch = lc.ModulationPoint.random_batch(batch_rng, 5, 3, 6)
    singles = [lc.ModulationPoint.random_batch(single_rng, 5, 3, 1)[0] for _ in range(6)]
    assert batch == singles
    # and both leave the stream at the same place
    assert batch_rng.integers(0, 1 << 30) == single_rng.integers(0, 1 << 30)


@pytest.mark.parametrize("base", [3, 5, 7, 41])
def test_modulation_value_matches_the_whole_root_table_bit_for_bit(base):
    # one read of every digit at every power, against the whole table and
    # against each root computed alone
    table = np.exp(2j * np.pi * np.arange(base) / base)
    ys = [lc.ModulationPoint(base, (digit,)) for digit in range(base)]
    powers = range(-base, base + 1)
    columns = lc.riesz._root_columns(ys, [(0, power) for power in powers])
    for power, column in zip(powers, columns):
        for y, value in zip(ys, column):
            want = complex(table[(power * y.digits[0]) % base])
            alone = rademacher_value(y, 0, power)
            assert type(value) is complex
            assert (value.real.hex(), value.imag.hex()) == (want.real.hex(), want.imag.hex())
            assert (value.real.hex(), value.imag.hex()) == (alone.real.hex(), alone.imag.hex())


def test_modulation_value_at_a_huge_base_computes_one_root():
    import tracemalloc

    y = lc.ModulationPoint(6_000_001, (1, 2, 3))
    tracemalloc.start()
    try:
        value = lc.riesz._root_columns([y], [(0, 1)])[0][0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096  # a table of all 6,000,001 roots takes 96 MB
    assert value == pytest.approx(cmath.exp(2j * cmath.pi / 6_000_001))


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
    gamma2 = system.group.character([2])
    measured = lc.fourier(_oracle_rho_y(system, d, y)).coeffs.reshape(system.group.orders)[gamma2.exponents]
    assert measured == pytest.approx(OMEGA5**2 / 4)
    # the product of the weights over (2d)^s, in the nondegenerate regime
    lc.require_nondegenerate(system, d)
    expected = rademacher_value(y, 0, 2) / (2 * d) ** 1
    assert measured == pytest.approx(expected)


def test_modulated_variation_is_one():
    rng = np.random.default_rng(109)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        system = sample_dissociated_system(rng, d)
        y = lc.ModulationPoint.random_batch(rng, 2 * d + 1, len(system), 1)[0]
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
    good = lc.ModulationPoint(5, (1, 2))
    # the part carries its own s, so only a point can be wrong, and one
    # bad point refuses the whole batch before any walk
    monkeypatch.setattr(lc.riesz, "_riesz_spectrum", None)  # no work may start
    monkeypatch.setattr(lc.riesz, "_root_columns", None)
    monkeypatch.setattr(lc.riesz, "require_nondegenerate", None)
    for bad in (lc.ModulationPoint(7, (0, 0)), lc.ModulationPoint(5, (0,))):
        with pytest.raises(ValueError, match="modulation"):
            lc.extract_homogeneous_modulated(q, [good, bad])
    with pytest.raises(ValueError, match="modulation point"):
        lc.extract_homogeneous_modulated(q, [])


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


def test_extract_verify_solves_each_exact_coefficient_set_once_per_process(tmp_path):
    from lacuna import cli
    from lacuna.riesz import extraction_coefficients_exact

    config = {
        "command": "extract-verify",
        "system": {"exponents": [[1, 0], [0, 1]], "orders": [13, 13]},
        "d": 3,
        "trials": 2,
        "y_samples": 2,
    }
    extraction_coefficients_exact.cache_clear()
    assert cli.run(config, out_dir=tmp_path / "first") == 0
    assert cli.run(config, out_dir=tmp_path / "second") == 0
    solved = extraction_coefficients_exact.cache_info()
    assert solved.misses == 3 and solved.hits > 0  # s = 1, 2, 3, each once
    # a refusal is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(lc.SizeLimitExceeded):
            lc.extraction_coefficients(20, 1)
        with pytest.raises(ValueError):
            extraction_coefficients_exact(3, 4)
    assert extraction_coefficients_exact.cache_info().currsize == 3


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
    assert table[char_pow(gamma, -1).exponents] == pytest.approx(1.0)


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
    assert np.abs(lc.extract_homogeneous_modulated(lc.decompose(q)[0], [y])[0]).max() < 1e-12


def test_modulated_extract_zero_point_d2():
    rng = np.random.default_rng(127)
    system = _system([9, 9], [[1, 0], [0, 1]])
    q = lc.random_chaos_polynomial(system, 2, rng)
    part2 = lc.decompose(q)[1]
    result = lc.extract_homogeneous_modulated(part2, [lc.ModulationPoint(5, (0, 0))])[0]
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
            y = lc.ModulationPoint.random_batch(rng, 2 * d + 1, len(system), 1)[0]
            modulated = lc.extract_homogeneous_modulated(parts[s - 1], [y], check=False)[0]
            assert np.abs(modulated - target / (2 * d) ** s).max() <= 1e-8
            scaled_sum += target / (2 * d) ** s
        # a polynomial that is not homogeneous gives the sum of its scaled parts
        whole = lc.extract_homogeneous_modulated(q, [y], check=False)[0]
        assert np.abs(whole - scaled_sum).max() <= 1e-8


@pytest.mark.parametrize("d", [1, 2, 3])
def test_extract_homogeneous_equals_convolution_with_nu(d):
    rng = np.random.default_rng(137 + d)
    system = sample_nondegenerate_system(rng, d, max_m=3)
    q = lc.random_chaos_polynomial(system, d, rng)
    extracted = lc.extract_homogeneous(q)
    for s in range(1, d + 1):
        nu = lc.extraction_measure(system, d, s)
        expected = lc.convolve(lc.DensityMeasure(system.group, q.values()), nu).values
        assert np.abs(extracted[s - 1] - expected).max() <= 1e-10


def test_degenerate_system_rejected_with_pointer_to_transform():
    system = _system([4], [[1]])  # order 4 <= 2d for d = 2
    q = lc.ChaosPolynomial(system, 2, {(0, 0): 1.0})
    with pytest.raises(lc.DegenerateOrder):
        lc.extract_homogeneous(q)
    with pytest.raises(lc.DegenerateOrder):
        lc.extract_homogeneous_modulated(q, [lc.ModulationPoint(5, (0,))])


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
        out = lc.extract_homogeneous_modulated(part, [y], check=False)[0]
        accum += out
        pointwise_errors.append(np.abs(out - target).max())
    assert max(pointwise_errors) > 1e-3  # pointwise identity genuinely fails
    assert np.abs(accum / 5 - target).max() < 1e-10  # the mean restores it


def _bits(table: np.ndarray) -> bytes:
    return np.ascontiguousarray(table).tobytes()


BATCH_CASES = {
    "nondegenerate": (lambda: sample_nondegenerate_system(np.random.default_rng(71), 2, max_m=3), 2),
    "order-4 degenerate": (lambda: _system([4], [[1]]), 2),
    # 5^4 = 625 products on 31 characters: the walk merges repeats at its third factor
    "merged walk": (lambda: _system([31], [[1], [2], [3], [4]]), 2),
}


@pytest.mark.parametrize("case", BATCH_CASES.values(), ids=BATCH_CASES)
def test_modulated_extract_batch_rows_equal_batches_of_one(case):
    build, d = case
    system = build()
    rng = np.random.default_rng(73)
    q = lc.random_chaos_polynomial(system, d, rng)
    ys = lc.ModulationPoint.random_batch(rng, 2 * d + 1, len(system), 6)
    for part in [*lc.decompose(q), q]:
        batch = lc.extract_homogeneous_modulated(part, ys, check=False)
        assert batch.shape == (len(ys), system.group.size)
        for y, row in zip(ys, batch):
            alone = lc.extract_homogeneous_modulated(part, [y], check=False)[0]
            assert _bits(row) == _bits(alone)


ORACLE_CASES = {
    **BATCH_CASES,
    "Z64xZ64 d3": (lambda: _system([64, 64], [[1, 0], [0, 1]]), 3),
    # 36 terms on |G| = 390625
    "rademacher(8, base=5) d2": (lambda: lc.rademacher_system(8, base=5), 2),
}


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES)
def test_both_extraction_routes_match_the_transform_oracle(case):
    # each row is synthesized over Q's terms; the oracle inverts the product of tables
    build, d = case
    system = build()
    rng = np.random.default_rng(83)
    q = lc.random_chaos_polynomial(system, d, rng)
    ys = lc.ModulationPoint.random_batch(rng, 2 * d + 1, len(system), 3)

    def assert_close(got, want, polynomial):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(polynomial.coefficients).sum()

    assert_close(lc.extract_homogeneous(q, check=False), oracle_extract_by_transform(q), q)
    for part in [*lc.decompose(q), q]:
        got = lc.extract_homogeneous_modulated(part, ys, check=False)
        assert_close(got, oracle_extract_by_transform(part, ys), part)


def test_modulated_extract_batch_peaks_at_its_result_plus_a_few_tables():
    # the result is one (Y, |G|) table, rho_y's rows written over in place.
    # The synthesis adds one scratch table and one term table, and building
    # a term table briefly adds numpy's broadcast buffer (one table here).
    # A term table drawn as a product of power tables reads Y + 4.2.
    import tracemalloc

    system = _system([64, 64], [[1, 0], [0, 1]])
    rng = np.random.default_rng(79)
    part = lc.decompose(lc.random_chaos_polynomial(system, 2, rng))[1]
    ys = lc.ModulationPoint.random_batch(rng, 5, 2, 10)
    lc.extract_homogeneous_modulated(part, ys)  # warm the FFT plan caches
    tracemalloc.start()
    try:
        lc.extract_homogeneous_modulated(part, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (len(ys) + 4) * 16 * system.group.size


def test_extract_verify_runs_no_forward_transform_and_never_tabulates_q(tmp_path, monkeypatch):
    """Per trial: no transform either way, and no polynomial evaluated inside an extraction.

    rho's and rho_y's tables are read off their factor terms, and each
    row is synthesized over Q's terms from its term positions, so neither
    extraction route may transform or evaluate a polynomial over the group.
    Each trial walks a spectrum once for rho and once per part for all its
    points' rho_y.
    """
    from lacuna import cli

    counts = {"fourier": 0, "inverse_fourier": 0, "values_inside": 0, "walks": 0}
    inside = [0]
    values = lc.ChaosPolynomial.values

    def counted(name, transform):
        def run(*args, **kwargs):
            counts[name] += 1
            return transform(*args, **kwargs)

        return run

    def watched_values(self):
        counts["values_inside"] += inside[0] > 0
        return values(self)

    def entered(route):
        def run(*args, **kwargs):
            inside[0] += 1
            try:
                return route(*args, **kwargs)
            finally:
                inside[0] -= 1

        return run

    # every module that binds a transform by name, so a transform made
    # through groups.convolve is counted as well
    for name in ("fourier", "inverse_fourier"):
        original = getattr(lc.groups, name)
        for module in (lc.groups, lc.riesz, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.setattr(lc.riesz, "_riesz_spectrum", counted("walks", lc.riesz._riesz_spectrum))
    monkeypatch.setattr(lc.ChaosPolynomial, "values", watched_values)
    for name in ("extract_homogeneous", "extract_homogeneous_modulated"):
        monkeypatch.setattr(cli, name, entered(getattr(cli, name)))
    config = {
        "command": "extract-verify",
        "system": {"exponents": [[1, 0], [0, 1]], "orders": [9, 9]},
        "d": 2,
        "trials": 2,
        "y_samples": 3,
    }
    assert cli.run(config, out_dir=tmp_path) == 0
    # one walk for rho and one per part, for each of the 2 trials
    assert counts == {
        "fourier": 0,
        "inverse_fourier": 0,
        "values_inside": 0,
        "walks": 2 * (1 + 2),
    }
