"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not tuned: 1e-10 for
direct density identities, 1e-9 for closed-form Fourier laws, 1e-8 after
convolutions, 1e-5 for gradient agreement, and the stated trend margins
for the empirical studies.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import lacuna as lc
from lacuna.cli import main as cli_main
from conftest import (
    finite_difference_gradient,
    oracle_dissociated,
    oracle_product_index,
    order_tuples_up_to,
    sample_dissociated_system,
    sample_nondegenerate_system,
)


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


# -- criterion 1: Riesz product validity ------------------------------------------------


def test_criterion_01_riesz_product_validity():
    rng = np.random.default_rng(20260101)
    start = time.time()
    worst_imag = worst_min = worst_mass = 0.0
    for trial in range(200):
        d = trial % 3 + 1
        system = sample_dissociated_system(rng, d, max_m=5, max_size=4096)
        rho = lc.riesz_density(system, d)
        worst_imag = max(worst_imag, float(np.abs(rho.values.imag).max()))
        worst_min = min(worst_min, float(rho.values.real.min()))
        worst_mass = max(worst_mass, abs(rho.mass - 1))
    elapsed = time.time() - start
    ok = (
        worst_imag <= 1e-10
        and worst_min >= -1e-10
        and worst_mass <= 1e-10
        and elapsed <= 60
    )
    _report(
        1,
        ok,
        "200 random dissociated systems: "
        f"max|Im|={worst_imag:.2e}, min={worst_min:.2e}, "
        f"max|mass-1|={worst_mass:.2e}, {elapsed:.1f}s (budget 60s)",
    )


# -- criterion 2: closed-form coefficient law ---------------------------------------------


def _expected_riesz_table(system, d):
    """Expected rho-hat over the full dual; asserts representation uniqueness."""
    expected = np.zeros(system.group.size, dtype=np.complex128)
    filled = set()
    for exps in itertools.product(range(-d, d + 1), repeat=len(system)):
        idx = oracle_product_index(system, exps)
        assert idx not in filled, "product representation collision in sampler"
        filled.add(idx)
        expected[idx] = (2 * d) ** (-sum(1 for e in exps if e))
    return expected


def _expected_modulated_table(system, d, y):
    expected = np.zeros(system.group.size, dtype=np.complex128)
    for exps in itertools.product(range(-d, d + 1), repeat=len(system)):
        weight = 1 + 0j
        for b, e in enumerate(exps):
            weight *= y.rademacher_value(b, e)  # w^0 = 1 off the product's bases
        s = sum(1 for e in exps if e)
        expected[oracle_product_index(system, exps)] = weight * (2 * d) ** (-s)
    return expected


def test_criterion_02_coefficient_law():
    rng = np.random.default_rng(20260202)
    worst_plain = worst_mod = 0.0
    for d in (1, 2, 3):
        for _ in range(4):
            system = sample_nondegenerate_system(rng, d, max_m=3, max_size=4096)
            rho = lc.riesz_density(system, d)
            table = lc.fourier(rho)
            expected = _expected_riesz_table(system, d)
            worst_plain = max(worst_plain, float(np.abs(table.coeffs - expected).max()))
            for _ in range(20):
                y = lc.ModulationPoint.random(rng, 2 * d + 1, len(system))
                rho_y = lc.modulated_riesz_density(system, d, y)
                table_y = lc.fourier(rho_y)
                expected_y = _expected_modulated_table(system, d, y)
                worst_mod = max(
                    worst_mod, float(np.abs(table_y.coeffs - expected_y).max())
                )
    ok = worst_plain <= 1e-9 and worst_mod <= 1e-9
    _report(
        2,
        ok,
        "(2d)^-s law on the full dual (12 nondegenerate systems, 20 y each): "
        f"plain err={worst_plain:.2e}, modulated err={worst_mod:.2e} (tol 1e-9)",
    )


# -- criterion 3: extraction-measure indicator law ------------------------------------------


def test_criterion_03_extraction_indicator_law():
    rng = np.random.default_rng(20260303)
    worst = 0.0
    tv_ok = True
    for d in (1, 2, 3):
        for _ in range(3):
            system = sample_nondegenerate_system(rng, d, max_m=3, max_size=4096)
            for s in range(1, d + 1):
                nu = lc.extraction_measure(system, d, s, check=False)
                table = lc.fourier(nu).coeffs
                spec = lc.extraction_coefficients(d, s)
                tv_ok = tv_ok and nu.total_variation <= spec.variation_bound + 1e-8
                for exps in itertools.product(
                    range(-d, d + 1), repeat=len(system)
                ):
                    j = sum(1 for e in exps if e)
                    if not 1 <= j <= d:
                        continue
                    want = 1.0 if j == s else 0.0
                    worst = max(worst, abs(table[oracle_product_index(system, exps)] - want))
    ok = worst <= 1e-8 and tv_ok
    _report(
        3,
        ok,
        f"indicator law on j-fold products (j <= d): err={worst:.2e} (tol 1e-8), "
        f"variation within bound: {tv_ok}",
    )


# -- criteria 4-6 share one randomized study ---------------------------------------------------


@pytest.fixture(scope="module")
def extraction_study():
    rng = np.random.default_rng(20260404)
    start = time.time()
    worst_nu = worst_mod = 0.0
    bound_rows = []
    for trial in range(100):
        d = trial % 3 + 1
        system = sample_nondegenerate_system(rng, d, max_m=3, max_size=4096)
        poly = lc.random_chaos_polynomial(system, d, rng)
        parts = lc.decompose(poly)
        ys = [
            lc.ModulationPoint.random(rng, 2 * d + 1, len(system)) for _ in range(10)
        ]
        extracted = lc.extract_homogeneous(poly, check=False)
        for s in range(1, d + 1):
            target = parts[s - 1].values()
            direct = extracted[s - 1]
            worst_nu = max(worst_nu, float(np.abs(direct - target).max()))
            scaled = target / (2 * d) ** s
            for y in ys:
                modulated = lc.extract_homogeneous_modulated(parts[s - 1], y, check=False)
                worst_mod = max(worst_mod, float(np.abs(modulated - scaled).max()))
        values = poly.values()
        coeffs = poly.coefficients
        bound_rows.append(
            {
                "d": d,
                "l2": lc.lp_coeff_norm(coeffs, 2),
                "lq4": lc.lq_norm(values, 4),
                "lq6": lc.lq_norm(values, 6),
                "lp_sidon": lc.lp_coeff_norm(coeffs, 2 * d / (d + 1)),
                "linf": lc.lq_norm(values, math.inf),
            }
        )
    return {
        "worst_nu": worst_nu,
        "worst_mod": worst_mod,
        "elapsed": time.time() - start,
        "bounds": bound_rows,
    }


def test_criterion_04_extraction_identities(extraction_study):
    study = extraction_study
    ok = (
        study["worst_nu"] <= 1e-8
        and study["worst_mod"] <= 1e-8
        and study["elapsed"] <= 300
    )
    _report(
        4,
        ok,
        "both convolution identities over 100 random chaoses, 10 y each: "
        f"nu err={study['worst_nu']:.2e}, modulated err={study['worst_mod']:.2e} "
        f"(tol 1e-8), {study['elapsed']:.1f}s (budget 300s)",
    )


def test_criterion_05_khinchin_bound(extraction_study):
    kappa_model = 10.0  # conservative configured model constant
    ceilings = {d: lc.khinchin_ceiling(d, kappa_model) for d in (1, 2, 3)}
    violations = 0
    margin = math.inf
    for row in extraction_study["bounds"]:
        ceiling = ceilings[row["d"]] * row["l2"]
        for key in ("lq4", "lq6"):
            margin = min(margin, ceiling / row[key])
            if row[key] > ceiling:
                violations += 1
    ok = violations == 0
    _report(
        5,
        ok,
        f"||Q||_q <= sqrt(d)(2d)^d C kappa ||A||_2 at q in {{4,6}}, kappa={kappa_model}: "
        f"{violations} violations over {2 * len(extraction_study['bounds'])} checks "
        f"(smallest ceiling/value margin {margin:.3g})",
    )


def test_criterion_06_sidon_bound_and_sharpness(extraction_study):
    start = time.time()
    c_model = 1.0
    ceilings = {d: lc.sidon_ceiling(d, c_model) for d in (1, 2, 3)}
    violations = sum(
        1
        for row in extraction_study["bounds"]
        if row["lp_sidon"] > ceilings[row["d"]] * row["linf"]
    )

    # desk-scale sharpness: degree-2 tetrahedral chaos over growing hosts
    grid = (4, 6, 8, 10)
    estimates = {}
    for p in (4 / 3, 1.0):
        values = []
        for m in grid:
            system = lc.rademacher_system(m)
            indices = lc.enumerate_tetrahedral(m, 2)
            estimate = lc.estimate_sidon_constant(
                system, 2, trials=24, seed=2026, p=p, indices=indices
            )
            values.append(estimate.constant)
        estimates[p] = values
    littlewood = estimates[4 / 3]
    failing = estimates[1.0]
    fluctuation = max(littlewood) / min(littlewood)
    growth = failing[-1] / failing[0]
    increasing = all(b > a for a, b in zip(failing, failing[1:]))
    elapsed = time.time() - start
    ok = (
        violations == 0
        and fluctuation <= 1.2
        and increasing
        and growth >= 1.2
        and elapsed <= 600
    )
    _report(
        6,
        ok,
        f"bound violations: {violations}; sharpness over m={grid}: "
        f"p=4/3 fluctuation x{fluctuation:.3f} (<= 1.2), "
        f"p=1 strictly increasing={increasing} with growth x{growth:.3f} (>= 1.2), "
        f"{elapsed:.1f}s (budget 600s)",
    )


# -- criterion 7: oracle equivalence ---------------------------------------------------------


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(20260707)
    cases = 0
    mismatches = 0
    for orders in order_tuples_up_to(16):
        group = lc.make_group(orders)
        nontrivial = [group.character_at(i) for i in range(1, group.size)]
        subsets = []
        for size in (1, 2, 3):
            all_subsets = list(itertools.combinations(nontrivial, size))
            if group.size <= 10 or len(all_subsets) <= 20:
                subsets.extend(all_subsets)
            else:
                picks = rng.choice(len(all_subsets), size=20, replace=False)
                subsets.extend(all_subsets[i] for i in sorted(picks))
        for subset in subsets:
            system = lc.CharacterSystem(group, subset)
            for d in (1, 2, 3):
                cases += 1
                verdict = lc.is_d_dissociated(system, d).dissociated
                if verdict != oracle_dissociated(system, d):
                    mismatches += 1
    ok = mismatches == 0 and cases >= 3000
    _report(
        7,
        ok,
        f"dissociation verdicts vs value-based brute force: {cases} cases, "
        f"{mismatches} mismatches",
    )


# -- criterion 8: desk values -----------------------------------------------------------------


def test_criterion_08_desk_values():
    sys3 = lc.rademacher_system(3)
    q3 = lc.ChaosPolynomial(sys3, 1, {(i,): 1.0 for i in range(3)})
    l4 = lc.lq_norm(q3.values(), 4)
    err_l4 = abs(l4 - 21**0.25)

    sys4 = lc.rademacher_system(4)
    coeffs = {idx: 1.0 for idx in lc.enumerate_tetrahedral(4, 2)}
    q4 = lc.ChaosPolynomial(sys4, 2, coeffs)
    linf = lc.lq_norm(q4.values(), math.inf)

    ok = err_l4 <= 1e-12 and linf == 6.0
    _report(
        8,
        ok,
        f"||R0+R1+R2||_4 = 21^(1/4) (err {err_l4:.1e} <= 1e-12); "
        f"degree-2 all-ones chaos ||Q||_inf = {linf} (exact 6)",
    )


# -- criterion 9: gradient correctness ----------------------------------------------------------


def test_criterion_09_gradient_vs_central_differences():
    rng = np.random.default_rng(20260909)
    hosts = [
        lc.CharacterSystem.from_exponents(lc.make_group([5, 5]), [[1, 0], [0, 1], [2, 3]]),
        lc.rademacher_system(4),
        lc.CharacterSystem.from_exponents(lc.make_group([7]), [[1], [3]]),
    ]
    worst = 0.0
    for trial in range(100):
        system = hosts[trial % len(hosts)]
        d = trial % 2 + 1
        q = (3, 4, 5, 6, 8)[trial % 5]
        poly = lc.random_chaos_polynomial(system, d, rng)
        analytic = lc.grad_lq_q(poly, q)
        numeric = finite_difference_gradient(system, poly.indices, poly.coefficients, q)
        rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(
        9,
        ok,
        f"grad ||Q||_q^q vs central differences, 100 instances, q in {{3,4,5,6,8}}: "
        f"worst relative error {worst:.2e} (tol 1e-5)",
    )


# -- criterion 10: discretization study ----------------------------------------------------------


def test_criterion_10_discretization_scan():
    start = time.time()
    system = lc.rademacher_system(4)
    indices = lc.enumerate_tetrahedral(4, 2)
    n = len(indices)
    grid = [n, 2 * n, n**2, 2 * n**2]  # N, 2N, N^{q/2}, beyond
    records_a = lc.scan_point_counts(system, indices, 4, grid, trials=32, seed=20261010)
    records_b = lc.scan_point_counts(system, indices, 4, grid, trials=32, seed=20261010)
    reproducible = records_a == records_b
    worst_at_n = min(r["c1"] for r in records_a if r["m"] == n)
    worst_at_nq2 = min(r["c1"] for r in records_a if r["m"] == n**2)
    elapsed = time.time() - start
    ok = reproducible and worst_at_nq2 > worst_at_n and elapsed <= 120
    _report(
        10,
        ok,
        f"N=6, q=4 scan over m={grid}: reproducible={reproducible}, "
        f"worst C1 at N^2 ({worst_at_nq2:.3f}) > worst C1 at N ({worst_at_n:.3f}), "
        f"{elapsed:.1f}s (budget 120s)",
    )


# -- criterion 11: CLI determinism -----------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    configs = [
        (
            {
                "command": "khinchin",
                "system": {"rademacher": {"count": 4}},
                "d": 2,
                "q": 4,
                "trials": 2,
                "seed": 77,
            },
            ["khinchin.json", "khinchin.csv"],
        ),
        (
            {
                "command": "discretize-scan",
                "system": {"rademacher": {"count": 4}},
                "d": 2,
                "chaos": "tetrahedral",
                "q": 4,
                "m_grid": [6, 36],
                "trials": 8,
                "probes": 16,
                "seed": 77,
            },
            ["discretize.json", "discretize.csv"],
        ),
        (
            {
                "command": "riesz-report",
                "system": {"exponents": [[1, 0], [0, 1]], "orders": [7, 7]},
                "d": 3,
            },
            ["riesz_report.json", "riesz_density.csv", "riesz_fourier.csv"],
        ),
    ]
    identical = True
    for i, (config, artifacts) in enumerate(configs):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert cli_main(["--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli_main(["--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in artifacts:
            if (out1 / name).read_bytes() != (out2 / name).read_bytes():
                identical = False
    _report(
        11,
        identical,
        "repeated CLI runs with identical config+seed produce byte-identical "
        "CSV/JSON artifacts (khinchin, discretize-scan, riesz-report)",
    )
