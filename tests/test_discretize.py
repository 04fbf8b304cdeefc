"""Discretization schemes: probe bounds, scans and trends."""

import tracemalloc

import numpy as np
import pytest

import lacuna as lc
from lacuna.discretize import _evaluate_with_probes


def _tetrahedral_basis(m=4, d=2):
    system = lc.rademacher_system(m)
    return system, lc.enumerate_tetrahedral(m, d)


def _probe_values(basis, coeffs, q):
    """Values of every probe on the whole group (one column per probe) and their true norms."""
    f_values = basis @ coeffs.T
    return f_values, np.array([lc.lq_norm(column, q) for column in f_values.T])


def test_full_group_scheme_is_exact_for_every_q():
    system, indices = _tetrahedral_basis()
    basis = lc.values_matrix(system, indices)
    size = system.group.size
    coeffs = np.random.default_rng(0).standard_normal((16, basis.shape[1]))
    for q in (1.5, 2, 4, 6):
        f_values, true_norms = _probe_values(basis, coeffs, q)
        assert f_values.shape[0] == size  # every group element is a point, weight 1/|G|
        sums = (np.abs(f_values) ** q).sum(axis=0)
        c1, c2 = _evaluate_with_probes(sums, size, q, true_norms)
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(1.0, abs=1e-12)


def test_single_point_admits_a_vanishing_probe():
    system, indices = _tetrahedral_basis()
    basis = lc.values_matrix(system, indices[:2])
    point = 3
    # two basis functions, one linear constraint: kill the value at the point
    b0, b1 = basis[:, 0], basis[:, 1]
    coeffs = np.array([b1[point], -b0[point]])
    f = b0 * coeffs[0] + b1 * coeffs[1]
    assert abs(f[point]) < 1e-12 and np.abs(f).max() > 0.5
    f_values, true_norms = _probe_values(basis, coeffs[None, :], 4)
    ratio, _ = _evaluate_with_probes(np.abs(f_values[point]) ** 4, 1, 4, true_norms)
    assert ratio == pytest.approx(0.0, abs=1e-12)


def test_empty_scheme_rejected():
    system, indices = _tetrahedral_basis()
    with pytest.raises(ValueError, match="positive point counts"):
        lc.scan_point_counts(system, indices, 4, [0], trials=1, seed=0)


def test_scan_reproducible_and_ordered():
    system, indices = _tetrahedral_basis()
    grid = [4, 8, 16]
    a = lc.scan_point_counts(system, indices, 4, grid, trials=6, seed=21)
    b = lc.scan_point_counts(system, indices, 4, grid, trials=6, seed=21)
    assert a == b
    assert [r["m"] for r in a] == sorted(r["m"] for r in a)
    for r in a:
        assert r["c1"] <= r["c2"] + 1e-12
        assert r["n_basis"] == len(indices) and r["q"] == 4.0


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("probes", [1, 64])
@pytest.mark.parametrize("q", [2.5, 4])
def test_scan_matches_per_row_oracle(probes, q, runs):
    from conftest import oracle_scan_point_counts

    # on 32 points: sizes below, at and past |G|, where the sequence repeats
    # points; a largest size below |G|; an unsorted grid with duplicates; then
    # a scan on 16 points.  They run back to back, each with its own buffers.
    scans = [
        (5, [3, 32, 90, 200]),
        (5, [20, 5, 5, 12]),
        (4, [40, 7, 16, 7]),
    ]
    for m, grid in scans:
        system, indices = _tetrahedral_basis(m)
        # a second run reads the group tables the first one cached and must not move
        results = [
            lc.scan_point_counts(system, indices, q, grid, trials=3, seed=19, probes=probes)
            for _ in range(runs)
        ]
        expected = oracle_scan_point_counts(system, indices, q, grid, 3, 19, probes)
        for records in results:
            assert records == expected


def test_scan_records_match_the_per_row_formula():
    from conftest import per_row_scan_records

    # the point counts sum each scheme in another order than its weighted
    # rows did, so the records move in the last bits only
    for m, grid, q in ((5, [3, 32, 90, 200], 4), (4, [40, 7, 16], 2.5)):
        system, indices = _tetrahedral_basis(m)
        records = lc.scan_point_counts(system, indices, q, grid, trials=3, seed=19)
        expected = per_row_scan_records(system, indices, q, grid, 3, 19)
        assert len(records) == len(expected)
        for got, want in zip(records, expected):
            assert got.keys() == want.keys()
            for key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0), key


def test_scan_rejects_bad_q_and_probes():
    system, indices = _tetrahedral_basis()
    for q in (0.5, float("nan"), float("inf")):
        with pytest.raises(lc.InvalidQ):
            lc.scan_point_counts(system, indices, q, [4], trials=1, seed=0)
    # |f|^1000 leaves the float range for these probes, which gave NaN constants
    with pytest.raises(lc.InvalidQ, match="q = 1000"):
        lc.scan_point_counts(system, indices, 1000, [4], trials=1, seed=0)
    for probes in (0, -3):
        with pytest.raises(ValueError, match="probes"):
            lc.scan_point_counts(system, indices, 4, [4], trials=1, seed=0, probes=probes)


# |G| = 16 under a limit of 100 cells: (refused grid and probes, the table
# named, a grid and probes one step smaller that fit)
SCAN_REFUSALS = {
    "probes": ([8], 7, r"\|G\| x probes", [8], 6),
    "sizes": (list(range(1, 8)), 4, r"sizes x \|G\|", list(range(1, 7)), 4),
    "points": ([101], 4, r"max\(m\) points", [100], 4),
}


@pytest.mark.parametrize("name", sorted(SCAN_REFUSALS))
def test_scan_sizes_what_it_holds_before_any_table(monkeypatch, name):
    from conftest import refuse_everywhere

    grid, probes, shape, fitting_grid, fitting_probes = SCAN_REFUSALS[name]
    system, indices = _tetrahedral_basis()
    monkeypatch.setattr(lc.groups, "TABLE_CELL_LIMIT", 100)
    refuse_everywhere(monkeypatch, "values_matrix")
    with pytest.raises(lc.SizeLimitExceeded, match=shape):
        lc.scan_point_counts(system, indices, 4, grid, trials=1, seed=0, probes=probes)
    # one step smaller, the scan goes on to build the basis
    with pytest.raises(AssertionError, match="values_matrix was called"):
        lc.scan_point_counts(system, indices, 4, fitting_grid, trials=1, seed=0, probes=fitting_probes)


def test_scan_peak_does_not_grow_with_points_times_probes():
    # 2 x 10^5 points and 32 probes: gathered rows |f|^q of every point would
    # take 51 MB, twice over with their weighted copy; the counts take |G| per size
    system, indices = _tetrahedral_basis()
    grid, probes = [100, 20_000, 200_000], 32
    lc.scan_point_counts(system, indices, 4, [8], trials=1, seed=0, probes=probes)
    tracemalloc.start()
    try:
        lc.scan_point_counts(system, indices, 4, grid, trials=2, seed=0, probes=probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid[-1] * probes * 8 / 8


def test_scan_holds_its_point_sequence_once():
    # the permutation and the iid points past it, counted apart: the tail
    # copied after the head into one sequence read 3.2 MB here
    system, indices = _tetrahedral_basis()
    grid, probes = [100, 20_000, 200_000], 32
    lc.scan_point_counts(system, indices, 4, [8], trials=1, seed=0, probes=probes)
    tracemalloc.start()
    try:
        lc.scan_point_counts(system, indices, 4, grid, trials=2, seed=0, probes=probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4e6


def test_scan_full_group_row_is_exact():
    system, indices = _tetrahedral_basis()
    size = system.group.size
    # a full-group row weights every point 1/|G|: exact for every f and q
    for q in (1.5, 2, 4, 6):
        records = lc.scan_point_counts(system, indices, q, [size], trials=3, seed=3)
        for r in records:
            assert r["c1"] == pytest.approx(1.0, abs=1e-12)
            assert r["c2"] == pytest.approx(1.0, abs=1e-12)


def test_scan_median_c1_monotone_trend():
    system, indices = _tetrahedral_basis()
    records = lc.scan_point_counts(system, indices, 4, [6, 12, 36, 72], trials=32, seed=29)
    summary = lc.summarize_scan(records)
    medians = [row["median_c1"] for row in summary]
    for small, large in zip(medians, medians[1:]):
        assert large >= small * 0.95  # nested schemes: growth up to trial noise


def test_scan_oversampling_beyond_group_size():
    system, indices = _tetrahedral_basis()
    records = lc.scan_point_counts(system, indices, 4, [72], trials=4, seed=31)
    assert all(r["m"] == 72 for r in records)
    assert all(np.isfinite(r["c1"]) and np.isfinite(r["c2"]) for r in records)


def test_summarize_scan_fields():
    system, indices = _tetrahedral_basis()
    records = lc.scan_point_counts(system, indices, 4, [4, 16], trials=5, seed=37)
    summary = lc.summarize_scan(records)
    assert [row["m"] for row in summary] == [4, 16]
    for row in summary:
        assert row["worst_c1"] <= row["median_c1"] <= 1.5
        assert row["median_c2"] <= row["worst_c2"]
        assert row["trials"] == 5


def test_render_scan_svg_deterministic():
    from lacuna.discretize import render_scan_svg

    system, indices = _tetrahedral_basis()
    records = lc.scan_point_counts(system, indices, 4, [6, 12, 36], trials=4, seed=47)
    summary = lc.summarize_scan(records)
    svg1 = render_scan_svg(summary, len(indices), 4, 36)
    svg2 = render_scan_svg(summary, len(indices), 4, 36)
    assert svg1 == svg2
    assert svg1.startswith("<svg") and "polyline" in svg1 and "firebrick" in svg1
