"""Group construction, character arithmetic, transforms, and convolution."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lacuna as lc

from conftest import (
    _oracle_digits,
    char_mul,
    char_pow,
    character_at,
    naive_convolve,
    naive_fourier,
    naive_inverse_fourier,
    oracle_roots,
    oracle_scatter,
    trivial_character,
)

OMEGA3 = cmath.exp(2j * cmath.pi / 3)


# -- construction --------------------------------------------------------------


def test_make_group_examples():
    assert lc.make_group([2, 2, 2]).size == 8
    assert lc.make_group([5]).size == 5
    assert lc.make_group([3, 3]).size == 9


def test_make_group_rejects_small_orders():
    with pytest.raises(lc.OrderTooSmall):
        lc.make_group([1])
    with pytest.raises(lc.OrderTooSmall):
        lc.make_group([4, 0])
    with pytest.raises(lc.OrderTooSmall):
        lc.make_group([])


def test_make_group_size_limit():
    with pytest.raises(lc.SizeLimitExceeded):
        lc.make_group([2] * 21)
    assert lc.make_group([2] * 20).size == 1 << 20


def test_element_enumeration_is_lexicographic():
    group = lc.make_group([2, 3])
    digits = [tuple(int(x) for x in row) for row in _oracle_digits(group)]
    assert digits == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for i, d in enumerate(digits):
        assert np.ravel_multi_index(d, group.orders) == i
        assert character_at(group, i).exponents == d


# -- character evaluation -------------------------------------------------------


def test_char_eval_examples():
    z2 = lc.make_group([2, 2, 2])
    r0 = z2.character([1, 0, 0])
    assert r0.values()[np.ravel_multi_index((1, 0, 0), z2.orders)] == pytest.approx(-1)

    z3 = lc.make_group([3])
    assert z3.character([1]).values()[1] == pytest.approx(OMEGA3)

    z4 = lc.make_group([4])
    assert z4.character([1]).values()[3] == pytest.approx(-1j)


def test_char_eval_modulus_one():
    group = lc.make_group([3, 4, 5])
    rng = np.random.default_rng(1)
    for _ in range(20):
        chi = group.character(rng.integers(0, 4, size=3))
        g = int(rng.integers(0, group.size))
        assert abs(abs(chi.values()[g]) - 1) < 1e-12


def test_roots_match_the_residue_loop_and_keep_quarter_turns_exact():
    for m in range(2, 65):
        roots = lc.make_group([m]).roots[0]
        assert roots.tobytes() == oracle_roots(m).tobytes()
        for k in range(0, m, m // math.gcd(m, 4)):
            assert roots[k] == (1, 1j, -1, -1j)[4 * k // m]


def _sum_index(group, g, h):
    """Index of g + h: digit addition modulo the factor orders."""
    digits = _oracle_digits(group)
    summed = (digits[g] + digits[h]) % group.orders
    return np.ravel_multi_index(tuple(np.moveaxis(summed, -1, 0)), group.orders)


def test_homomorphism_exhaustive_small_groups():
    for orders in ([2, 2, 2], [8], [3, 4], [5], [2, 3, 5]):
        group = lc.make_group(orders)
        every = np.arange(group.size)
        add = _sum_index(group, every[:, None], every[None, :])
        for i in range(group.size):
            t = character_at(group, i).values()
            assert np.abs(t[add] - t[:, None] * t[None, :]).max() < 1e-12


def test_homomorphism_randomized_larger_group():
    group = lc.make_group([4, 5, 7])
    rng = np.random.default_rng(7)
    for _ in range(50):
        chi = group.character(rng.integers(0, (4, 5, 7)))
        g = int(rng.integers(0, group.size))
        h = int(rng.integers(0, group.size))
        assert chi.values()[_sum_index(group, g, h)] == pytest.approx(chi.values()[g] * chi.values()[h])


# -- dual-group arithmetic -------------------------------------------------------


def test_char_pow_examples():
    z5 = lc.make_group([5])
    assert char_pow(z5.character([2]), -1).exponents == (3,)

    z4 = lc.make_group([4])
    assert z4.character([2]).order == 2

    z33 = lc.make_group([3, 3])
    assert char_pow(z33.character([1, 2]), 3).is_trivial


def test_char_mul_matches_pointwise_product():
    group = lc.make_group([3, 4])
    rng = np.random.default_rng(3)
    for _ in range(20):
        chi1 = group.character(rng.integers(0, (3, 4)))
        chi2 = group.character(rng.integers(0, (3, 4)))
        product = char_mul(chi1, chi2)
        assert np.abs(product.values() - chi1.values() * chi2.values()).max() < 1e-12
    with pytest.raises(lc.GroupMismatch):
        char_mul(chi1, lc.make_group([5]).character([1]))


def test_char_pow_inverse_is_conjugate():
    group = lc.make_group([7, 2])
    chi = group.character([3, 1])
    assert np.abs(char_pow(chi, -1).values() - chi.values().conj()).max() < 1e-12


def test_char_pow_memo_matches_fresh_character():
    group = lc.make_group([4, 9])
    for chi in (group.character([1, 3]), group.character([2, 0]), group.character([3, 5])):
        for k in range(-2 * chi.order, 2 * chi.order + 1):
            power = char_pow(chi, k)
            fresh = lc.Character(group, tuple(a * k for a in chi.exponents))
            assert power == fresh
            assert np.array_equal(power.values(), fresh.values())
            # powers whose k agree modulo the order are one character
            assert char_pow(chi, k + chi.order) == power
    assert chi == group.character(chi.exponents)
    assert hash(chi) == hash(group.character(chi.exponents))


def test_char_order_divides_group_size():
    group = lc.make_group([4, 6])
    for chi in (character_at(group, i) for i in range(group.size)):
        order = chi.order
        assert group.size % order == 0
        assert char_pow(chi, order).is_trivial
        for t in range(1, order):
            assert not char_pow(chi, t).is_trivial


@settings(max_examples=30, deadline=None)
@given(
    orders=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    data=st.data(),
)
def test_char_mul_pow_random(orders, data):
    group = lc.make_group(orders)
    exps1 = tuple(data.draw(st.integers(0, m - 1)) for m in orders)
    exps2 = tuple(data.draw(st.integers(0, m - 1)) for m in orders)
    k = data.draw(st.integers(-7, 7))
    chi1, chi2 = group.character(exps1), group.character(exps2)
    g = data.draw(st.integers(0, group.size - 1))
    assert char_mul(chi1, chi2).values()[g] == pytest.approx(chi1.values()[g] * chi2.values()[g])
    assert char_pow(chi1, k).values()[g] == pytest.approx(chi1.values()[g] ** k)


# -- Fourier transforms -----------------------------------------------------------


def test_fourier_of_constant_one():
    group = lc.make_group([3, 4])
    table = lc.fourier(lc.DensityMeasure(group, np.ones(group.size)))
    grid = table.coeffs.reshape(group.orders)
    assert grid[trivial_character(group).exponents] == pytest.approx(1)
    assert np.abs(table.coeffs[1:]).max() < 1e-12


def test_fourier_of_dirac():
    group = lc.make_group([2, 5])
    point_mass = np.zeros(group.size)
    point_mass[0] = group.size
    table = lc.fourier(lc.DensityMeasure(group, point_mass))
    assert np.abs(table.coeffs - 1).max() < 1e-12


def test_fourier_of_riesz_like_density():
    group = lc.make_group([4])
    chi = group.character([1])
    density = lc.DensityMeasure(group, 1 + (chi.values() + chi.values().conj()) / 2)
    table = lc.fourier(density).coeffs.reshape(group.orders)
    assert table[trivial_character(group).exponents] == pytest.approx(1)
    assert table[chi.exponents] == pytest.approx(0.5)
    assert table[char_pow(chi, -1).exponents] == pytest.approx(0.5)
    assert table[char_pow(chi, 2).exponents] == pytest.approx(0)


def test_fourier_inverse_round_trip():
    rng = np.random.default_rng(11)
    for orders in ([6], [2, 3, 4], [5, 5]):
        group = lc.make_group(orders)
        f = lc.DensityMeasure(
            group, rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size)
        )
        back = lc.inverse_fourier(lc.fourier(f))
        scale = max(np.abs(f.values).max(), 1.0)
        assert np.abs(back.values - f.values).max() / scale < 1e-10


# sizes around the old naive-transform cutoff of 1024: a prime just below
# it, an odd composite, many order-2 factors, and a lopsided pair
_CUTOFF_ORDERS = ([1021], [31, 33], [2] * 10, [4, 256])


def test_fast_transform_gated_against_naive():
    rng = np.random.default_rng(13)
    for orders in ([7], [2, 3, 5], [4, 9], [2, 2, 2, 2], [12], [16, 16], *_CUTOFF_ORDERS):
        group = lc.make_group(orders)
        f = lc.DensityMeasure(
            group, rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size)
        )
        slow = naive_fourier(f)
        fast = lc.fourier(f)
        assert np.abs(slow.coeffs - fast.coeffs).max() < 1e-10
        slow_back = naive_inverse_fourier(slow)
        fast_back = lc.inverse_fourier(fast)
        assert np.abs(slow_back.values - fast_back.values).max() < 1e-10


# -- convolution --------------------------------------------------------------------


def _random_density(group, rng):
    return lc.DensityMeasure(
        group, rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size)
    )


def test_convolve_with_haar_gives_mass():
    group = lc.make_group([3, 3])
    f = _random_density(group, np.random.default_rng(17))
    out = lc.convolve(f, lc.DensityMeasure(group, np.ones(group.size)))
    assert np.abs(out.values - f.mass).max() < 1e-12


def test_convolve_with_dirac_is_identity():
    group = lc.make_group([2, 6])
    f = _random_density(group, np.random.default_rng(19))
    point_mass = np.zeros(group.size)
    point_mass[0] = group.size
    out = lc.convolve(f, lc.DensityMeasure(group, point_mass))
    assert np.abs(out.values - f.values).max() < 1e-12


def test_convolve_distinct_characters_vanishes():
    group = lc.make_group([5, 2])
    chi1 = group.character([1, 0])
    chi2 = group.character([2, 1])
    out = lc.convolve(lc.DensityMeasure(group, chi1.values()), lc.DensityMeasure(group, chi2.values()))
    assert np.abs(out.values).max() < 1e-12


def test_convolve_commutative_associative_and_multiplicative():
    group = lc.make_group([3, 4])
    rng = np.random.default_rng(23)
    f, g, h = (_random_density(group, rng) for _ in range(3))
    fg = lc.convolve(f, g)
    assert np.abs(fg.values - lc.convolve(g, f).values).max() < 1e-10
    left = lc.convolve(fg, h)
    right = lc.convolve(f, lc.convolve(g, h))
    assert np.abs(left.values - right.values).max() < 1e-10
    product = lc.fourier(fg).coeffs
    expected = lc.fourier(f).coeffs * lc.fourier(g).coeffs
    assert np.abs(product - expected).max() < 1e-10


def test_convolve_naive_matches_transform_route():
    rng = np.random.default_rng(29)
    for orders in ([9], [2, 3, 4], [5, 3], *_CUTOFF_ORDERS):
        group = lc.make_group(orders)
        f, g = _random_density(group, rng), _random_density(group, rng)
        fast = lc.convolve(f, g)
        slow = naive_convolve(f, g)
        assert np.abs(fast.values - slow.values).max() < 1e-10


def test_convolve_group_mismatch():
    f = lc.DensityMeasure(lc.make_group([4]), np.ones(4))
    g = lc.DensityMeasure(lc.make_group([5]), np.ones(5))
    with pytest.raises(lc.GroupMismatch):
        lc.convolve(f, g)


# -- densities -------------------------------------------------------------------------


def test_density_mass_and_variation():
    group = lc.make_group([2, 2])
    d = lc.DensityMeasure(group, np.array([2.0, -1.0, 1.0, 2.0]))
    assert d.mass == pytest.approx(1.0)
    assert d.total_variation == pytest.approx(1.5)
    assert not d.is_probability()
    assert lc.DensityMeasure(group, np.ones(group.size)).is_probability()


def test_density_values_are_read_only():
    group = lc.make_group([4])
    d = lc.DensityMeasure(group, np.ones(group.size))
    with pytest.raises(ValueError):
        d.values[0] = 5.0


# -- scatter -----------------------------------------------------------------------------


def _bits(table: np.ndarray) -> bytes:
    return np.ascontiguousarray(table).tobytes()


@pytest.mark.parametrize("rows", [None, 1, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_scatter_adds_in_the_order_given_as_a_per_row_scatter_does(rows, dtype):
    # 1e16 + 1.0 rounds back to 1e16, so a cell holding 1e16, 1.0 and -1e16
    # reads 0 in that order and 1 in most others
    from lacuna.groups import _scatter

    positions = np.array([3, 0, 3, 5, 3, 0, 7])
    base = np.array([1e16, 2.5, 1.0, -4.0, -1e16, 1e-3, 6.0])
    moved = np.array([0, 1, 0, 1, 0, 1, 1])  # every cell but 3 changes from row to row
    values = base if rows is None else base + np.arange(rows)[:, None] * moved
    if dtype is np.complex128:
        values = values + 1j * np.array([-1e16, 0.5, 1.0, 2.0, 1e16, 3.0, 4.0])
    got = _scatter(positions, values, 8)
    want = oracle_scatter(positions, values, 8)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert _bits(got) == _bits(want)
    assert np.all(want[..., 3] == 0)  # its exact sum is 1 (and 1j)
    # a second scatter into the same table adds after the first, cell by cell
    first, second = slice(0, 4), slice(4, 7)
    out = _scatter(positions[first], values[..., first], 8)
    assert _scatter(positions[second], values[..., second], 8, out) is out
    assert _bits(out) == _bits(want)
