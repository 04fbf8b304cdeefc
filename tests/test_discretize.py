"""Discretization schemes: probe bounds, scans and trends."""

import math

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
        scheme = lc.DiscretizationScheme.uniform(system.group, np.arange(size), q)
        f_values, true_norms = _probe_values(basis, coeffs, q)
        c1, c2 = _evaluate_with_probes(scheme, np.abs(f_values) ** q, true_norms)
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(1.0, abs=1e-12)


def test_single_point_admits_a_vanishing_probe():
    system, indices = _tetrahedral_basis()
    basis = lc.values_matrix(system, indices[:2])
    point = 3
    scheme = lc.DiscretizationScheme.uniform(system.group, [point], 4)
    # two basis functions, one linear constraint: kill the value at the point
    b0, b1 = basis[:, 0], basis[:, 1]
    coeffs = np.array([b1[point], -b0[point]])
    f = b0 * coeffs[0] + b1 * coeffs[1]
    assert abs(f[point]) < 1e-12 and np.abs(f).max() > 0.5
    f_values, true_norms = _probe_values(basis, coeffs[None, :], 4)
    ratio, _ = _evaluate_with_probes(scheme, np.abs(f_values[[point]]) ** 4, true_norms)
    assert ratio == pytest.approx(0.0, abs=1e-12)


def test_empty_scheme_rejected():
    system, indices = _tetrahedral_basis()
    with pytest.raises(ValueError, match="positive point counts"):
        lc.scan_point_counts(system, indices, 4, [0], trials=1, seed=0)


def test_scheme_validation():
    group = _tetrahedral_basis()[0].group
    with pytest.raises(ValueError):
        lc.DiscretizationScheme(group, np.array([99]), np.array([1.0]), 4)
    with pytest.raises(ValueError):
        lc.DiscretizationScheme(group, np.array([0]), np.array([-1.0]), 4)
    for q in (0.5, math.nan, math.inf):
        with pytest.raises(lc.InvalidQ):
            lc.DiscretizationScheme(group, np.array([0]), np.array([1.0]), q)


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
