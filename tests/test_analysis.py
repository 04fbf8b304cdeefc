"""Norms, ratios, gradients, and the two constant estimators."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lacuna as lc
from conftest import (
    bytes_left_behind,
    fresh_rademacher_system,
    grad_lq_q,
    khinchin_ratio,
    lp_coeff_norm,
    oracle_term_values,
    refuse_everywhere,
    sidon_ratio,
)
from lacuna.analysis import chaos_indices


def _rademacher_sum(count=3):
    system = lc.rademacher_system(count)
    coeffs = {(i,): 1.0 for i in range(count)}
    return lc.ChaosPolynomial(system, 1, coeffs)


# -- norms ------------------------------------------------------------------------


def test_lq_norm_of_constant():
    values = np.ones(10)
    for q in (1, 2, 4, 7.5, math.inf):
        assert lc.lq_norm(values, q) == pytest.approx(1.0)


def test_lq_norm_rademacher_sum():
    q = _rademacher_sum()
    assert lc.lq_norm(q.values(), 4) == pytest.approx(21**0.25)
    assert lc.lq_norm(q.values(), math.inf) == pytest.approx(3.0)


def test_lq_norm_monotone_in_q():
    rng = np.random.default_rng(51)
    values = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    qs = [1, 1.5, 2, 3, 4, 8, 16, math.inf]
    norms = [lc.lq_norm(values, q) for q in qs]
    for a, b in zip(norms, norms[1:]):
        assert a <= b + 1e-12


def test_lq_norm_invalid():
    # a NaN exponent must not read as 1.0 on an all-ones table
    for values in (np.ones(4), np.arange(4.0)):
        for q in (0.5, math.nan, -math.inf):
            with pytest.raises(lc.InvalidQ):
                lc.lq_norm(values, q)


def test_lq_norm_past_the_float_range_raises():
    # 4^1500 = 2^3000 overflows: the norm is not finite, as in the estimator
    with pytest.raises(lc.InvalidQ):
        lc.lq_norm(np.full(16, 4.0), 1500)
    with pytest.raises(lc.InvalidQ):
        lc.lq_norm(_rademacher_sum(4).values(), 1500)


def test_lp_coeff_norm_examples():
    # the tests' l_p oracle; the library takes no coefficient norm, and
    # refuses a p below 1 in the Sidon estimator
    assert lp_coeff_norm([1, 0, 0], 1) == pytest.approx(1.0)
    assert lp_coeff_norm([1, 0, 0], 3.7) == pytest.approx(1.0)
    assert lp_coeff_norm([1, 1, 1], 4 / 3) == pytest.approx(3 ** (3 / 4))
    assert lp_coeff_norm([3, -4j, 1], math.inf) == 4.0
    for p in (0.9, math.nan, -math.inf):
        with pytest.raises(lc.InvalidP):
            lc.estimate_sidon_constant(lc.rademacher_system(3), 1, trials=1, seed=0, p=p)


def test_sidon_exponent_for_degree_two():
    d = 2
    assert 2 * d / (d + 1) == pytest.approx(4 / 3)


# -- ratios -----------------------------------------------------------------------------


def test_khinchin_ratio_single_term_is_one():
    system = lc.rademacher_system(2)
    q = lc.ChaosPolynomial(system, 1, {(1,): 2.5j})
    assert khinchin_ratio(q, 4) == pytest.approx(1.0)


def test_khinchin_ratio_rademacher_sum():
    assert khinchin_ratio(_rademacher_sum(), 4) == pytest.approx(
        21**0.25 / math.sqrt(3)
    )


def test_khinchin_ratio_scale_invariant():
    system = lc.rademacher_system(3)
    rng = np.random.default_rng(53)
    base = lc.random_chaos_polynomial(system, 2, rng)
    scaled = lc.ChaosPolynomial(
        system, 2, {k: (3 - 2j) * v for k, v in zip(base.indices, base.coefficients)}
    )
    assert khinchin_ratio(base, 4) == pytest.approx(khinchin_ratio(scaled, 4))


def test_khinchin_ratio_requires_q_above_two():
    for q in (2, math.nan, -math.inf):
        with pytest.raises(lc.InvalidQ):
            lc.estimate_khinchin_constant(lc.rademacher_system(3), 1, q, trials=1, seed=0)


def test_sidon_ratio_single_term_is_one():
    system = lc.rademacher_system(4)
    for d, idx in ((1, (2,)), (2, (1, 3)), (3, (0, 1, 2))):
        q = lc.ChaosPolynomial(system, d, {idx: -2.0})
        assert sidon_ratio(q) == pytest.approx(1.0)


def test_sidon_ratio_all_ones_tetrahedral():
    system = lc.rademacher_system(4)
    coeffs = {idx: 1.0 for idx in lc.enumerate_tetrahedral(4, 2)}
    q = lc.ChaosPolynomial(system, 2, coeffs)
    assert lc.lq_norm(q.values(), math.inf) == pytest.approx(6.0)
    assert sidon_ratio(q) == pytest.approx(6 ** (3 / 4) / 6)


def test_sidon_ratio_phase_invariant():
    system = lc.rademacher_system(3)
    rng = np.random.default_rng(59)
    base = lc.random_chaos_polynomial(system, 2, rng)
    phase = np.exp(1.234j)
    rotated = lc.ChaosPolynomial(
        system, 2, {k: phase * v for k, v in zip(base.indices, base.coefficients)}
    )
    assert sidon_ratio(base) == pytest.approx(sidon_ratio(rotated))


def test_values_matrix_leaves_no_tables_behind():
    # once the 78 columns of rademacher(12) at d = 2 are dropped, no term table may still be held
    lc.values_matrix(fresh_rademacher_system(4), lc.enumerate_polynomial(4, 2))
    system = fresh_rademacher_system(12)
    indices = lc.enumerate_polynomial(12, 2)
    assert bytes_left_behind(lambda: lc.values_matrix(system, indices)) < 16 * system.group.size // 4


def test_values_matrix_peaks_at_the_matrix_plus_two_tables():
    # four degree-6 terms: a table per power of each base would be 24 tables beside the matrix
    lc.values_matrix(fresh_rademacher_system(4), [(0, 1, 2, 3)])
    system = fresh_rademacher_system(14)
    indices = lc.enumerate_tetrahedral(14, 6)[:4]
    tracemalloc.start()
    try:
        lc.values_matrix(system, indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (len(indices) + 2) * 16 * system.group.size


def _explicit(orders, exponents):
    return lc.CharacterSystem.from_exponents(lc.make_group(orders), exponents)


# (system, degree, tetrahedral, tolerance): a tolerance of 0 asks for the same bits
ORACLE_TERM_CASES = {
    "rademacher12 tetrahedral d2": (lambda: lc.rademacher_system(12), 2, True, 0),
    "rademacher14 d3": (lambda: lc.rademacher_system(14), 3, False, 0),
    "rademacher7 base5 d2": (lambda: lc.rademacher_system(7, base=5), 2, False, 0),
    "hadamard3 Z65521 d3": (lambda: lc.hadamard_trig_system(3, 8, 65521), 3, False, 1e-14),
    "Z4093 d3": (lambda: _explicit([4093], [[8], [64], [512]]), 3, False, 1e-14),
}


@pytest.mark.parametrize("case", ORACLE_TERM_CASES.values(), ids=ORACLE_TERM_CASES)
def test_values_matrix_columns_match_the_power_table_product(case):
    # the product of each base's power table, the rule the character at the
    # term's position replaced: the same bits where every root is exact or
    # each term lies on distinct coordinates, a few ulp on one cyclic factor
    build, d, tetrahedral, tol = case
    system = build()
    indices = chaos_indices(system, d, tetrahedral)
    for lo in range(0, len(indices), 16):  # a block of columns at a time bounds the memory
        block = indices[lo : lo + 16]
        matrix = lc.values_matrix(system, block)
        oracle = np.stack([oracle_term_values(system, index) for index in block], axis=1)
        if tol:
            assert np.abs(matrix - oracle).max() <= tol
        else:
            assert matrix.tobytes() == oracle.tobytes()


# -- gradients ------------------------------------------------------------------------------


def test_grad_single_term_closed_form():
    system = lc.rademacher_system(2)
    coeff = 1.5 - 2.0j
    q = lc.ChaosPolynomial(system, 1, {(0,): coeff})
    grad = grad_lq_q(q, 4)
    expected = 4 * abs(coeff) ** 2 * coeff
    assert grad[0] == pytest.approx(expected)


def test_grad_zero_polynomial_is_zero():
    system = lc.rademacher_system(2)
    q = lc.ChaosPolynomial(system, 1, {(0,): 0.0, (1,): 0.0})
    assert np.abs(grad_lq_q(q, 6)).max() == 0


def test_grad_matches_central_differences():
    from conftest import finite_difference_gradient

    rng = np.random.default_rng(61)
    system = lc.CharacterSystem.from_exponents(
        lc.make_group([5, 5]), [[1, 0], [0, 1], [2, 3]]
    )
    for q in (4, 6, 8, 2.5, 3, 5, 10):
        for _ in range(4):
            poly = lc.random_chaos_polynomial(system, 2, rng)
            analytic = grad_lq_q(poly, q)
            numeric = finite_difference_gradient(system, poly.indices, poly.coefficients, q)
            rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
            assert rel <= 1e-5


# -- ceilings ----------------------------------------------------------------------------------


def test_ceiling_formulas():
    c1 = lc.extraction_coefficients(1, 1).variation_bound
    assert lc.khinchin_ceiling(1, 10.0) == pytest.approx(1 * 2 * c1 * 10.0)
    cmax = max(lc.extraction_coefficients(2, s).variation_bound for s in (1, 2))
    assert lc.khinchin_ceiling(2, 10.0) == pytest.approx(math.sqrt(2) * 16 * cmax * 10)
    assert lc.sidon_ceiling(2, 1.0) == pytest.approx(16 * cmax * 2 ** (3 / 4))


# -- Khinchin estimator -------------------------------------------------------------------------


def test_khinchin_estimate_rademacher_band():
    system = lc.rademacher_system(6)
    indices = lc.enumerate_polynomial(6, 1)
    estimate = lc.estimate_khinchin_constant(
        system, 1, 4, trials=6, seed=7, indices=indices, kappa_model=10.0
    )
    all_ones = lc.ChaosPolynomial(system, 1, {(i,): 1.0 for i in range(6)})
    floor = khinchin_ratio(all_ones, 4)
    assert estimate.constant >= floor - 1e-7
    assert 1.0 <= estimate.constant <= 3**0.25 + 1e-9
    assert estimate.ceiling is not None and estimate.constant <= estimate.ceiling


def test_khinchin_estimate_deterministic():
    system = lc.rademacher_system(4)
    kwargs = dict(trials=3, seed=123)
    a = lc.estimate_khinchin_constant(system, 2, 4, **kwargs)
    b = lc.estimate_khinchin_constant(system, 2, 4, **kwargs)
    assert a.constant == b.constant
    assert np.array_equal(a.coefficients, b.coefficients)


def test_khinchin_trajectories_monotone():
    system = lc.rademacher_system(5)
    estimate = lc.estimate_khinchin_constant(system, 2, 4, trials=4, seed=11)
    assert estimate.histories is not None
    for history in estimate.histories:
        for a, b in zip(history, history[1:]):
            assert b >= a


def test_khinchin_estimate_rejects_bad_input():
    system = lc.rademacher_system(3)
    for q in (2, math.nan):
        with pytest.raises(lc.InvalidQ):
            lc.estimate_khinchin_constant(system, 1, q, trials=1, seed=0)
    with pytest.raises(ValueError):
        lc.estimate_khinchin_constant(system, 1, 4, trials=0, seed=0)
    bad = lc.CharacterSystem.from_exponents(lc.make_group([5]), [[1], [2]])
    with pytest.raises(lc.NotDissociated):
        lc.estimate_khinchin_constant(bad, 2, 4, trials=1, seed=0)


def test_sidon_estimate_rejects_bad_p():
    system = lc.rademacher_system(3)
    for p in (0.5, math.nan):
        with pytest.raises(lc.InvalidP):
            lc.estimate_sidon_constant(system, 1, trials=1, seed=0, p=p)


def test_khinchin_estimate_non_even_q_ascends():
    system = lc.rademacher_system(4)
    estimate = lc.estimate_khinchin_constant(system, 1, 3.5, trials=5, seed=3)
    assert all(len(h) > 1 for h in estimate.histories)
    for history in estimate.histories:
        assert history == sorted(history)
    assert estimate.constant >= 1.0 - 1e-9


def test_khinchin_estimate_monotone_in_q():
    # ||Q||_q grows with q under a probability measure, so its supremum does too
    system = lc.rademacher_system(6)
    indices = lc.enumerate_tetrahedral(6, 2)
    constants = [
        lc.estimate_khinchin_constant(system, 2, q, trials=8, seed=1, indices=indices).constant
        for q in (3, 4, 5)
    ]
    assert constants == sorted(constants)


def test_khinchin_estimate_at_large_q_reaches_the_closed_form():
    # the candidates' squared norms overflow at q = 1000; the ascent used to
    # reject every step there and report 1.7068 (seed 0) or 1.5185 (seed 6)
    system = lc.rademacher_system(4)
    for seed in (0, 6):
        estimate = lc.estimate_khinchin_constant(system, 1, 1000, trials=2, seed=seed)
        assert estimate.constant == pytest.approx(2 * 8 ** (-1 / 1000), abs=1e-12)


def test_khinchin_estimate_pins_the_exact_rademacher_constant():
    # sup of ||sum a_i r_i||_4 over unit vectors is (E X^4)^(1/4) at equal
    # real weights, with E X^4 = 3 (sum a_i^2)^2 - 2 sum a_i^4 = 3 - 2/m
    for m in (4, 6, 8, 10):
        exact = (3 - 2 / m) ** 0.25
        estimate = lc.estimate_khinchin_constant(lc.rademacher_system(m), 1, 4, trials=4, seed=0)
        assert exact * (1 - 1e-7) <= estimate.constant <= exact * (1 + 1e-12), m


# name -> system; each runs at d = 1 and 2, in both chaos kinds
KHINCHIN_ORACLE_SYSTEMS = {
    "rademacher8": lambda: lc.rademacher_system(8),
    "rademacher6_base3": lambda: lc.rademacher_system(6, base=3),
    "hadamard4": lambda: lc.hadamard_trig_system(ratio=5, count=4, modulus=2003),
    "hadamard3": lambda: lc.hadamard_trig_system(ratio=6, count=3, modulus=877),
    "vc7": lambda: lc.vc_system_from_digit_sets(
        7, [[0], [0, 1], [1, 2], [2, 3]], [[1], [2, 3], [4, 5], [6, 1]]
    ),
}
KHINCHIN_ORACLE_QS = (2.5, 3, 4, 5, 6, 7.3, math.inf)


# a cap of 1 or 3 steps retires trials at the cap, the default one by tolerance
@pytest.mark.parametrize("max_steps", [500, 3, 1])
@pytest.mark.parametrize("name", sorted(KHINCHIN_ORACLE_SYSTEMS))
def test_khinchin_estimate_matches_ascent_oracle(monkeypatch, name, max_steps):
    from conftest import oracle_khinchin_estimate

    system = KHINCHIN_ORACLE_SYSTEMS[name]()
    monkeypatch.setattr(lc.analysis, "_ASCENT_MAX_STEPS", max_steps)
    kinds = [(d, tetrahedral) for d in (1, 2) for tetrahedral in (False, True)]
    shift = sorted(KHINCHIN_ORACLE_SYSTEMS).index(name)
    for k, q in enumerate(KHINCHIN_ORACLE_QS):
        # across the five systems every q meets both degrees, both chaos
        # kinds and every trial count
        d, tetrahedral = kinds[(k + shift) % len(kinds)]
        trials = (1, 3, 8)[(k + shift) % 3]
        indices = chaos_indices(system, d, tetrahedral=tetrahedral)
        estimate = lc.estimate_khinchin_constant(
            system, d, q, trials=trials, seed=5, indices=indices
        )
        constant, coefficients, histories = oracle_khinchin_estimate(
            system, d, q, trials, 5, indices
        )
        assert estimate.constant == constant, (d, tetrahedral, q, trials)
        assert estimate.coefficients.tobytes() == coefficients.tobytes()
        assert estimate.histories == histories


# name -> (estimator call on rademacher_system(3), indices); each list breaks
# one rule of chaos.require_indices, or is empty
MALFORMED_INDICES = {
    "sidon-empty": (lambda s, i: lc.estimate_sidon_constant(s, 1, 1, 0, indices=i), []),
    "khinchin-empty": (lambda s, i: lc.estimate_khinchin_constant(s, 1, 4, 1, 0, indices=i), []),
    "scan-empty": (lambda s, i: lc.scan_point_counts(s, i, 4, [4], trials=1, seed=0), []),
    "sidon-duplicate": (
        lambda s, i: lc.estimate_sidon_constant(s, 1, 1, 0, indices=i), [(0,), (0,)]
    ),
    "sidon-outside": (lambda s, i: lc.estimate_sidon_constant(s, 1, 1, 0, indices=i), [(5,)]),
    "sidon-degree": (lambda s, i: lc.estimate_sidon_constant(s, 1, 1, 0, indices=i), [(0, 1)]),
    "khinchin-negative": (
        lambda s, i: lc.estimate_khinchin_constant(s, 1, 4, 1, 0, indices=i), [(-1,)]
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INDICES))
def test_malformed_indices_are_refused_before_any_table(monkeypatch, name):
    call, indices = MALFORMED_INDICES[name]
    refuse_everywhere(monkeypatch, "values_matrix")
    with pytest.raises(ValueError):
        call(lc.rademacher_system(3), indices)


def test_sidon_counts_the_matrix_and_its_transpose(monkeypatch):
    # rademacher(6) at d = 1: the 64 x 6 matrix takes 384 cells, with its transpose 768
    system = lc.rademacher_system(6)
    monkeypatch.setattr(lc.analysis, "TABLE_CELL_LIMIT", 500)
    lc.estimate_khinchin_constant(system, 1, 4, trials=2, seed=0)
    refuse_everywhere(monkeypatch, "values_matrix")
    with pytest.raises(lc.SizeLimitExceeded, match="2 x terms"):
        lc.estimate_sidon_constant(system, 1, trials=2, seed=0)


def test_khinchin_trial_blocks_are_bounded_before_the_matrix(monkeypatch):
    # the 64 x 6 matrix fits in 500 cells; 10 trials' blocks of max(64, 6) cells do not
    monkeypatch.setattr(lc.analysis, "TABLE_CELL_LIMIT", 500)

    def refuse(*args):
        raise AssertionError("the value matrix was built")

    monkeypatch.setattr(lc.analysis, "values_matrix", refuse)
    system = lc.rademacher_system(6)
    with pytest.raises(lc.SizeLimitExceeded, match="trials"):
        lc.estimate_khinchin_constant(system, 1, 4, trials=10, seed=0)
    # 7 trials' blocks fit, so the estimator goes on to build the matrix
    with pytest.raises(AssertionError, match="value matrix"):
        lc.estimate_khinchin_constant(system, 1, 4, trials=7, seed=0)


def test_khinchin_estimate_leaves_no_tables_behind():
    lc.estimate_khinchin_constant(fresh_rademacher_system(4), 2, 4, trials=2, seed=0)
    system = fresh_rademacher_system(12)
    left = bytes_left_behind(lambda: lc.estimate_khinchin_constant(system, 2, 4, trials=2, seed=0))
    assert left < 16 * system.group.size // 4


# -- Sidon estimator ------------------------------------------------------------------------------


def test_sidon_estimate_single_character():
    system = lc.CharacterSystem.from_exponents(lc.make_group([9]), [[1]])
    for d in (1, 2, 3):
        estimate = lc.estimate_sidon_constant(system, d, trials=2, seed=1)
        assert estimate.constant == pytest.approx(1.0)


def test_sidon_estimate_reaches_the_exhaustive_phase_grid_optimum():
    # at d = 1 the exponent is p = 1, so the ratio is m / ||Q||_inf; the
    # first phase is fixed, as a common rotation leaves ||Q||_inf unchanged
    system = lc.rademacher_system(4)
    matrix = lc.values_matrix(system, chaos_indices(system, 1))
    grid = np.exp(2j * np.pi * np.arange(16) / 16)
    patterns = np.array([(1, *rest) for rest in itertools.product(grid, repeat=3)])
    optimum = 4 / np.abs(patterns @ matrix.T).max(axis=1).min()
    assert optimum == pytest.approx(1.5307337294603591, abs=1e-12)
    estimate = lc.estimate_sidon_constant(system, 1, trials=8, seed=0)
    assert estimate.constant == pytest.approx(optimum, abs=1e-12)
    for seed in range(5):
        assert lc.estimate_sidon_constant(system, 1, trials=4, seed=seed).constant <= math.pi / 2


def test_sidon_estimate_deterministic():
    system = lc.rademacher_system(5)
    indices = lc.enumerate_tetrahedral(5, 2)
    a = lc.estimate_sidon_constant(system, 2, trials=3, seed=5, indices=indices)
    b = lc.estimate_sidon_constant(system, 2, trials=3, seed=5, indices=indices)
    assert a.constant == b.constant


def test_sidon_estimate_improves_on_random_start():
    system = lc.rademacher_system(5)
    indices = lc.enumerate_tetrahedral(5, 2)
    estimate = lc.estimate_sidon_constant(system, 2, trials=4, seed=13, indices=indices)
    assert estimate.histories is not None
    for history in estimate.histories:
        for a, b in zip(history, history[1:]):
            assert b >= a - 1e-12
    # the best pattern must beat the trivial all-ones arrangement
    all_ones = lc.ChaosPolynomial(system, 2, {i: 1.0 for i in indices})
    assert estimate.constant >= sidon_ratio(all_ones) - 1e-9


# name -> (system, d); rademacher3 has fewer group elements (8) than the
# phase search's peak points (16), and z125 runs at d = 1
SIDON_ORACLE_SYSTEMS = {
    "rademacher8": lambda: (lc.rademacher_system(8), 2),
    "rademacher3": lambda: (lc.rademacher_system(3), 2),
    "hadamard": lambda: (lc.hadamard_trig_system(ratio=5, count=4, modulus=2003), 2),
    "vc7": lambda: (
        lc.vc_system_from_digit_sets(
            7, [[0], [0, 1], [1, 2], [2, 3]], [[1], [2, 3], [4, 5], [6, 1]]
        ),
        2,
    ),
    "z125": lambda: (
        lc.CharacterSystem.from_exponents(lc.make_group([125]), [[1], [3], [9], [27], [81]]),
        1,
    ),
}


@pytest.mark.parametrize("max_sweeps", [40, 2, 1])
@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("name", sorted(SIDON_ORACLE_SYSTEMS))
def test_sidon_estimate_matches_sweep_oracle(monkeypatch, name, runs, max_sweeps):
    from conftest import oracle_sidon_estimate

    system, d = SIDON_ORACLE_SYSTEMS[name]()
    monkeypatch.setattr(lc.analysis, "_MAX_SWEEPS", max_sweeps)
    # a second run reads the group tables the first one cached and must not move
    estimates = [lc.estimate_sidon_constant(system, d, trials=3, seed=11) for _ in range(runs)]
    constant, coefficients, histories = oracle_sidon_estimate(system, d, 3, 11, max_sweeps)
    for estimate in estimates:
        assert estimate.constant == constant
        assert estimate.coefficients.tobytes() == coefficients.tobytes()
        assert estimate.histories == histories


def test_sidon_estimate_is_at_most_pi_over_two_at_degree_one():
    # max over signs |sum e_i a_i| >= (2/pi) ||a||_1 for every complex a, so
    # m / ||Q||_inf <= pi/2 on rademacher(m) at p = 1; m = 8 reads 1.5607
    for m in range(2, 11):
        estimate = lc.estimate_sidon_constant(lc.rademacher_system(m), 1, trials=8, seed=3)
        assert estimate.constant <= math.pi / 2


def test_sidon_estimate_on_base_three_is_at_most_pi_over_three_sin_pi_over_three():
    # the nearest of b equally spaced angles lies within pi/b of any phase, so
    # max_y |sum a_i w^{y_i}| >= (b/pi) sin(pi/b) ||a||_1 on a base-b host; at
    # b = 3 the p = 1 ceiling is pi / (3 sin(pi/3)) = 1.20920, and m = 2..10 read at most 1.19702
    ceiling = math.pi / (3 * math.sin(math.pi / 3))
    for m in range(2, 11):
        estimate = lc.estimate_sidon_constant(lc.rademacher_system(m, base=3), 1, trials=8, seed=3)
        assert estimate.constant <= ceiling


@pytest.mark.parametrize("q", [4, 6])
def test_khinchin_estimate_is_below_the_hypercontractive_bound(q):
    # Bonami-Beckner: ||Q||_q <= (q-1)^(d/2) ||Q||_2 for a real degree-d
    # Rademacher chaos; the real and imaginary parts of a complex Q add a
    # factor sqrt(2), and ||Q||_2 = ||A||_2 on distinct tetrahedral terms
    d = 2
    bound = math.sqrt(2) * (q - 1) ** (d / 2)
    for m in (4, 6, 8, 10):
        system = lc.rademacher_system(m)
        indices = lc.enumerate_tetrahedral(m, d)
        estimate = lc.estimate_khinchin_constant(system, d, q, trials=4, seed=1, indices=indices)
        assert estimate.constant <= bound


def test_sidon_search_is_the_same_at_every_p():
    # every unimodular pattern has ||A||_p = n^(1/p), so p only scales one search
    system = lc.rademacher_system(6)
    indices = lc.enumerate_tetrahedral(6, 2)
    estimates = [
        lc.estimate_sidon_constant(system, 2, trials=4, seed=9, p=p, indices=indices)
        for p in (1, 4 / 3, 2, 7.5)
    ]
    peaks = [len(indices) ** (1 / e.exponent) / e.constant for e in estimates]
    for estimate, peak in zip(estimates[1:], peaks[1:]):
        assert estimate.coefficients.tobytes() == estimates[0].coefficients.tobytes()
        assert peak == pytest.approx(peaks[0], rel=1e-15)


def test_sidon_estimate_ceiling_only_at_default_exponent():
    system = lc.rademacher_system(4)
    indices = lc.enumerate_tetrahedral(4, 2)
    with_default = lc.estimate_sidon_constant(
        system, 2, trials=2, seed=2, indices=indices, c_model=1.0
    )
    assert with_default.ceiling is not None
    assert with_default.constant <= with_default.ceiling
    with_p1 = lc.estimate_sidon_constant(
        system, 2, trials=2, seed=2, indices=indices, c_model=1.0, p=1.0
    )
    assert with_p1.ceiling is None


def test_estimate_json_obj():
    system = lc.rademacher_system(3)
    estimate = lc.estimate_khinchin_constant(system, 1, 4, trials=1, seed=0)
    obj = estimate.to_json_obj()
    assert obj["kind"] == "khinchin" and obj["d"] == 1
    assert len(obj["coefficients"]) == 3


# -- invariance properties (hypothesis) ------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.01, 100), phase=st.floats(0, 6.28))
def test_ratios_invariant_under_scalar_rotation(scale, phase):
    system = lc.rademacher_system(3)
    rng = np.random.default_rng(67)
    base = lc.random_chaos_polynomial(system, 2, rng)
    factor = scale * np.exp(1j * phase)
    scaled = lc.ChaosPolynomial(
        system, 2, {k: factor * v for k, v in zip(base.indices, base.coefficients)}
    )
    assert khinchin_ratio(scaled, 4) == pytest.approx(
        khinchin_ratio(base, 4), rel=1e-9
    )
    assert sidon_ratio(scaled) == pytest.approx(sidon_ratio(base), rel=1e-9)
