"""Dissociation verdicts, witnesses, generators, and the independent oracle."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lacuna as lc
from lacuna.cli import _build_system
from conftest import (
    char_mul,
    char_pow,
    character_at,
    oracle_dissociated,
    oracle_witness,
    sample_dissociated_system,
    trivial_character,
    verify_witness,
)


def _system(orders, exponents):
    return lc.CharacterSystem.from_exponents(lc.make_group(orders), exponents)


# -- system validation -----------------------------------------------------------


def test_trivial_character_rejected():
    with pytest.raises(lc.TrivialCharacterPresent):
        _system([5], [[1], [0]])


def test_duplicate_character_rejected():
    with pytest.raises(lc.DuplicateCharacter):
        _system([5], [[2], [2]])


def test_mixed_group_rejected():
    group = lc.make_group([4])
    chi = lc.make_group([5]).character([1])
    with pytest.raises(lc.GroupMismatch):
        lc.CharacterSystem(group, (chi,))


def test_system_json_round_trip():
    system = _system([3, 3], [[1, 0], [1, 2]])
    obj = system.to_json_obj()
    assert obj == {"orders": [3, 3], "characters": [[1, 0], [1, 2]]}
    back = _build_system(obj)  # the artifact's system block is a valid config
    assert back.exponent_matrix.tolist() == system.exponent_matrix.tolist()


# -- checker -------------------------------------------------------------------------


def test_z5_exponents_12_is_1_dissociated():
    report = lc.is_d_dissociated(_system([5], [[1], [2]]), 1)
    assert report.dissociated and report.witness is None


def test_z5_exponents_12_fails_at_d2_with_lex_first_witness():
    system = _system([5], [[1], [2]])
    report = lc.is_d_dissociated(system, 2)
    assert not report.dissociated
    # (-2, 1) is the negation of the relation 2*1 - 1*2 = 0 and comes first
    # in the documented scan order -d < ... < d
    assert report.witness == (-2, 1)
    assert verify_witness(system, report.witness)
    # a witness needs one exponent per character
    assert not verify_witness(system, (-2,))
    assert not verify_witness(system, (-2, 1, 0))


def test_order_two_character_is_dissociated():
    report = lc.is_d_dissociated(_system([4], [[2]]), 1)
    assert report.dissociated


def test_single_character_dissociated_iff_no_small_trivial_power():
    # order 5 character: gamma^k trivial only when 5 | k, so any d works
    for d in range(1, 7):
        assert lc.is_d_dissociated(_system([5], [[2]]), d).dissociated


def test_empty_system_is_dissociated():
    group = lc.make_group([5])
    report = lc.is_d_dissociated(lc.CharacterSystem(group, ()), 3)
    assert report.dissociated


def _budget(monkeypatch, tuples: int):
    """Lower the join's fixed tuple budget for one test."""
    monkeypatch.setattr(lc.dissociation, "DEFAULT_ENUM_BUDGET", tuples)


def test_budget_exceeded_suggests_mitm(monkeypatch):
    system = _system([7], [[1], [2], [3]])
    _budget(monkeypatch, 10)
    with pytest.raises(lc.BudgetExceeded, match="mitm") as err:
        lc.is_d_dissociated(system, 2)
    assert "budget 10)" in str(err.value) and "pass" not in str(err.value)


def test_budget_counts_the_larger_side(monkeypatch):
    # radix 5 on each of three coordinates: 5^2 tuples on the left, 5 on the right
    system = _system([7], [[1], [2], [3]])
    expected = lc.is_d_dissociated(system, 2)
    _budget(monkeypatch, 25)
    assert lc.is_d_dissociated(system, 2) == expected
    _budget(monkeypatch, 24)
    with pytest.raises(lc.BudgetExceeded, match="25 tuples per side"):
        lc.is_d_dissociated(system, 2)


def test_witness_soundness_on_random_failures():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(200):
        orders = [int(rng.integers(4, 12))]
        m = int(rng.integers(2, 4))
        exps = set()
        while len(exps) < m:
            e = int(rng.integers(1, orders[0]))
            exps.add((e,))
        system = _system(orders, sorted(exps))
        report = lc.is_d_dissociated(system, int(rng.integers(1, 4)))
        if not report.dissociated:
            found += 1
            assert verify_witness(system, report.witness)
            # multiply out with char_pow/char_mul as an independent check
            product = trivial_character(system.group)
            some_nontrivial = False
            for chi, k in zip(system.characters, report.witness):
                power = char_pow(chi, k)
                product = char_mul(product, power)
                some_nontrivial = some_nontrivial or not power.is_trivial
            assert product.is_trivial and some_nontrivial
    assert found > 20


def test_monotonicity_in_d():
    rng = np.random.default_rng(9)
    for _ in range(40):
        orders = [int(rng.integers(5, 17))]
        exps = sorted({(int(rng.integers(1, orders[0])),) for _ in range(3)})
        system = _system(orders, exps)
        verdicts = [lc.is_d_dissociated(system, d).dissociated for d in (1, 2, 3)]
        # d-dissociated implies d'-dissociated for d' <= d
        for small, large in zip(verdicts, verdicts[1:]):
            assert small or not large


# -- larger walks -------------------------------------------------------------------


def test_mitm_matches_direct_on_z7_subsets():
    # the meet-in-the-middle checker against the direct full (2d+1)^m scan
    group = lc.make_group([7])
    chars = [(e,) for e in range(1, 7)]
    for size in (1, 2, 3):
        for subset in itertools.combinations(chars, size):
            system = lc.CharacterSystem.from_exponents(group, subset)
            for d in (1, 2, 3):
                witness = oracle_witness(system, d)
                expected = lc.DissociationReport(d, witness is None, witness)
                assert lc.is_d_dissociated(system, d) == expected


def test_mitm_single_character():
    # one coordinate on the left, none on the right
    report = lc.is_d_dissociated(_system([9], [[1]]), 2)
    assert report.dissociated


def test_mitm_budget(monkeypatch):
    # 7^2 tuples on each side
    system = _system([7], [[1], [2], [3], [4]])
    _budget(monkeypatch, 6)
    with pytest.raises(lc.BudgetExceeded):
        lc.is_d_dissociated(system, 3)


def test_large_system_exercises_chunked_enumeration():
    # 3^6 = 729 tuples per side, walked in blocks of 256 after a first left block of 256
    system = lc.rademacher_system(12, base=3)
    with mock.patch.object(lc.dissociation, "_CHUNK", 1 << 8):
        assert lc.is_d_dissociated(system, 1).dissociated


def test_late_witness_found_in_chunked_scan():
    # staircase body plus a final character equal to gamma_1^2 = gamma_1^{-1}
    # over Z_3: the only bounded relations pair the first and last positions,
    # so the witness sits deep inside the 3^12-tuple scan
    group = lc.make_group([3] * 11)
    exps = []
    for i in range(11):
        vec = [0] * 11
        vec[i] = 1
        exps.append(tuple(vec))
    tail = [0] * 11
    tail[0] = 2
    exps.append(tuple(tail))
    system = lc.CharacterSystem.from_exponents(group, exps)
    report = lc.is_d_dissociated(system, 1)
    assert not report.dissociated
    assert report.witness == (-1,) + (0,) * 10 + (-1,)
    assert verify_witness(system, report.witness)


# -- one exponent per residue class ---------------------------------------------------------
# The checker walks -d .. -d + r_j - 1 on coordinate j, r_j = min(2d+1, ord(gamma_j)).
# Characters of order <= 2d make that walk shorter than the full (2d+1)^m scan, and it
# must still find the full scan's verdict and lexicographically first witness.


@st.composite
def _small_systems(draw):
    orders = draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))
    group = lc.make_group(orders)
    nontrivial = [character_at(group, i).exponents for i in range(1, group.size)]
    exps = draw(
        st.lists(
            st.sampled_from(nontrivial),
            min_size=1,
            max_size=min(5, len(nontrivial)),
            unique=True,
        )
    )
    return lc.CharacterSystem.from_exponents(group, exps), draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(_small_systems())
def test_reduced_walk_matches_full_scan_oracle(case):
    system, d = case
    witness = oracle_witness(system, d)
    expected = lc.DissociationReport(d=d, dissociated=witness is None, witness=witness)
    assert lc.is_d_dissociated(system, d) == expected
    # blocks of 4 rows after a first left block of 2: both sides span several
    # blocks, the right table is merged block by block, and the short block,
    # the full blocks and their boundary all meet the oracle
    with mock.patch.object(lc.dissociation, "_CHUNK", 4), mock.patch.object(
        lc.dissociation, "_FIRST_BLOCK", 2
    ):
        assert lc.is_d_dissociated(system, d) == expected


def test_reduced_walk_on_order_three_rademacher_system(monkeypatch):
    # order-3 characters at d=2: 3^6 tuples per side instead of 5^6
    system = lc.rademacher_system(12, base=3)
    _budget(monkeypatch, 3**6)
    assert lc.is_d_dissociated(system, 2).dissociated
    _budget(monkeypatch, 3**6 - 1)
    with pytest.raises(lc.BudgetExceeded, match=str(3**6)):
        lc.is_d_dissociated(system, 2)


def _order_two_three_system(threes: int) -> lc.CharacterSystem:
    """gamma_0 of order 2, ``threes`` unit characters of order 3, then gamma_0 * gamma_1."""
    group = lc.make_group([2] + [3] * threes)
    exps = []
    for i in range(threes + 1):
        vec = [0] * (threes + 1)
        vec[i] = 1
        exps.append(tuple(vec))
    last = [0] * (threes + 1)
    last[0] = last[1] = 1
    exps.append(tuple(last))
    return lc.CharacterSystem.from_exponents(group, exps)


def test_late_witness_from_order_two_and_three_characters():
    # k_0 + k_last = 0 mod 2, k_1 + k_last = 0 mod 3 and k_i = 0 mod 3 otherwise:
    # the first violation takes k_0 = k_1 = -2, k_last = 2 and the largest
    # representative 0 on every middle coordinate, so its right half is the
    # last of the 3^5 * 5 right tuples
    system = _order_two_three_system(10)
    report = lc.is_d_dissociated(system, 2)
    assert report.witness == (-2, -2) + (0,) * 9 + (2,)
    assert verify_witness(system, report.witness)
    small = _order_two_three_system(3)
    witness = oracle_witness(small, 2)
    assert witness == (-2, -2, 0, 0, 2)
    assert lc.is_d_dissociated(small, 2).witness == witness


def test_huge_d_walks_residues_and_reports_true_exponents():
    # lcm(orders) = 5 and every radix is 5; the walk's sums use d mod 5 + 5,
    # so a d raised by a multiple of 5 walks the same offsets
    # and its witness is the smaller d's shifted down
    system = lc.CharacterSystem.from_exponents(lc.make_group([5]), [[1], [2]])
    big = 5 * 10**16
    for d in range(5, 10):
        witness = oracle_witness(system, d)
        assert lc.is_d_dissociated(system, d).witness == witness
        huge = lc.is_d_dissociated(system, d + big)
        assert huge.witness == tuple(k - big for k in witness)
        assert verify_witness(system, huge.witness)
    assert lc.is_d_dissociated(lc.rademacher_system(3), 10**17).dissociated


def test_sixteen_random_characters_on_a_large_cyclic_group(monkeypatch):
    # 5^8 tuples per side, where a single pass would walk 5^16
    group = lc.make_group([1000003])
    exponents = np.random.default_rng(16).choice(np.arange(1, 1000003), 16, replace=False)
    system = lc.CharacterSystem.from_exponents(group, [[int(e)] for e in exponents])
    report = lc.is_d_dissociated(system, 2)
    assert not report.dissociated and verify_witness(system, report.witness)
    _budget(monkeypatch, 5**8 - 1)
    with pytest.raises(lc.BudgetExceeded, match=str(5**8)):
        lc.is_d_dissociated(system, 2)


def test_lacunary_system_of_eleven_is_walked_in_full():
    # dissociated, so the join covers all 5^11 tuples
    system = lc.hadamard_trig_system(3, 11, 1000003, d=2)
    assert lc.is_d_dissociated(system, 2).dissociated


def test_order_two_system_of_twenty_fits_the_default_budget(monkeypatch):
    # 2^10 tuples per side; the full scan would need 5^20 and raise
    system = lc.rademacher_system(20)
    assert lc.is_d_dissociated(system, 2).dissociated
    _budget(monkeypatch, 2**10 - 1)
    with pytest.raises(lc.BudgetExceeded, match=str(2**10)):
        lc.is_d_dissociated(system, 2)


def test_lacunary_system_of_eighteen_characters_fits_the_default_budget():
    # 3^9 tuples per side at d = 1, where a single pass would walk 3^18 > 10^8
    system = lc.hadamard_trig_system(2, 18, 2**20)
    assert lc.is_d_dissociated(system, 1).dissociated


# -- oracle agreement (small-scale; the acceptance suite runs the full sweep) ---------


def test_verdicts_match_value_oracle_small():
    group_orders = ([8], [2, 4], [3, 3])
    for orders in group_orders:
        group = lc.make_group(orders)
        nontrivial = [character_at(group, i) for i in range(1, group.size)]
        for size in (1, 2):
            for subset in itertools.combinations(nontrivial, size):
                system = lc.CharacterSystem(group, subset)
                for d in (1, 2):
                    expected = oracle_dissociated(system, d)
                    assert lc.is_d_dissociated(system, d).dissociated == expected


# -- lacunary generator -----------------------------------------------------------------


def test_hadamard_example_ratio3():
    system = lc.hadamard_trig_system(3, 3, 1000, d=2)
    assert [chi.exponents[0] for chi in system.characters] == [3, 9, 27]
    assert lc.is_d_dissociated(system, 2).dissociated


def test_hadamard_mirrored_variant_has_inverse_pair_witness():
    # appending the mirrored frequencies breaks exponent-tuple dissociation:
    # chi_n * chi_{-n} is trivial with both factors nontrivial
    system = lc.hadamard_trig_system(3, 3, 1000, d=2, include_negatives=True)
    report = lc.is_d_dissociated(system, 2)
    assert not report.dissociated
    assert verify_witness(system, report.witness)


def test_hadamard_ratio2_fails_at_d2():
    system = lc.hadamard_trig_system(2, 2, 100, d=2)
    report = lc.is_d_dissociated(system, 2)
    assert not report.dissociated
    # the relation 2*n_1 - n_2 = 0 (up to sign) must be among the witnesses
    assert verify_witness(system, report.witness)
    ks = report.witness
    assert ks[0] * 2 + ks[1] * 4 == 0 and ks != (0, 0)


def test_hadamard_single_frequency():
    system = lc.hadamard_trig_system(4, 1, 100, d=3)
    assert len(system) == 1
    assert lc.is_d_dissociated(system, 3).dissociated


def test_hadamard_modulus_too_small():
    with pytest.raises(lc.ModulusTooSmall):
        lc.hadamard_trig_system(3, 3, 100, d=2)


def test_hadamard_generator_property_randomized():
    rng = np.random.default_rng(21)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        ratio = int(rng.integers(d + 1, d + 5))
        count = int(rng.integers(1, 3))
        modulus = 2 * d * ratio**count + 1 + int(rng.integers(0, 50))
        system = lc.hadamard_trig_system(ratio, count, modulus, d=d)
        assert lc.is_d_dissociated(system, d).dissociated


# -- staircase generator -------------------------------------------------------------------


def test_vc_staircase_example():
    system = lc.vc_system_from_digit_sets(3, [[0], [1], [0, 2]])
    assert system.group.orders == (3, 3, 3)
    assert [chi.exponents for chi in system.characters] == [
        (1, 0, 0),
        (0, 1, 0),
        (1, 0, 1),
    ]
    assert lc.is_d_dissociated(system, 2).dissociated


def test_vc_staircase_violation():
    with pytest.raises(lc.StaircaseViolated):
        lc.vc_system_from_digit_sets(2, [[0], [0]])


def test_vc_single_power_dissociated_for_every_d():
    system = lc.vc_system_from_digit_sets(5, [[0]], 2)
    for d in range(1, 7):
        assert lc.is_d_dissociated(system, d).dissociated


def test_vc_position_out_of_range():
    with pytest.raises(lc.PositionOutOfRange):
        lc.vc_system_from_digit_sets(3, [[0], [4]], width=2)
    with pytest.raises(lc.PositionOutOfRange):
        lc.vc_system_from_digit_sets(3, [[-1]])


def test_vc_digit_value_range():
    with pytest.raises(ValueError):
        lc.vc_system_from_digit_sets(3, [[0]], 3)  # digit 3 invalid for base 3
    with pytest.raises(ValueError):
        lc.vc_system_from_digit_sets(3, [[0]], 0)


def test_vc_value_broadcast_and_nested():
    broadcast = lc.vc_system_from_digit_sets(5, [[0], [1]], 2)
    nested = lc.vc_system_from_digit_sets(5, [[0], [1]], [[2], [2]])
    assert broadcast.exponent_matrix.tolist() == nested.exponent_matrix.tolist()


def test_rademacher_system_shape():
    system = lc.rademacher_system(3)
    assert system.group.orders == (2, 2, 2)
    assert [chi.exponents for chi in system.characters] == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


# -- samplers used by the acceptance suite ----------------------------------------------


def test_sampler_produces_valid_systems():
    rng = np.random.default_rng(33)
    for d in (1, 2, 3):
        for _ in range(5):
            system = sample_dissociated_system(rng, d)
            assert 1 <= len(system) <= 5
            assert system.group.size <= 4096
