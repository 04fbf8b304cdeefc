"""Command-line driver: reproducible experiment runs with JSON configs.

Usage:  lacuna --config RUN.json [--seed N] [--out DIR] [--svg]

The config file carries the subcommand in its "command" field plus the
inputs that run needs; --seed overrides the config's seed.  Identical
effective configs produce byte-identical CSV/JSON artifacts (the SVG plot
is content-deterministic too, since it is rendered by hand).  Every output
embeds the sha256 of the effective config and the artifact version.

Exit codes: 0 success, 1 property violation or computation error,
2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import estimate_khinchin_constant, estimate_sidon_constant, values_matrix
from .chaos import (
    enumerate_polynomial,
    enumerate_tetrahedral,
    decompose,
    random_chaos_polynomial,
)
from .discretize import (
    render_scan_svg,
    scan_point_counts,
    summarize_scan,
)
from .dissociation import (
    CharacterSystem,
    hadamard_trig_system,
    is_d_dissociated,
    is_d_dissociated_mitm,
    rademacher_system,
    vc_system_from_digit_sets,
)
from .errors import BudgetExceeded, ConfigInvalid, DegenerateOrder, LacunaError
from .groups import fourier, make_group
from .parallel import trial_rng, worker_count
from .riesz import (
    ModulationPoint,
    extract_homogeneous,
    extract_homogeneous_modulated,
    extraction_coefficients,
    require_nondegenerate,
    riesz_density,
)

_COMMANDS = (
    "check-dissociated",
    "riesz-report",
    "nu-solve",
    "extract-verify",
    "khinchin",
    "sidon",
    "discretize-scan",
)

_EXTRACTION_TOL = 1e-8


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigInvalid(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(x) for x in value)


def _get_int(config: dict, key: str, minimum: int | None = None, default=None) -> int:
    if key not in config:
        _require(default is not None, f"missing required field {key!r}")
        return default
    value = config[key]
    _require(_is_int(value), f"{key!r} must be an integer")
    if minimum is not None:
        _require(value >= minimum, f"{key!r} must be >= {minimum}, got {value}")
    return value


def _get_int_list(config: dict, key: str, minimum: int) -> list[int]:
    value = config.get(key)
    _require(_is_int_list(value), f"{key!r} must be a list of integers")
    _require(
        len(value) > 0 and min(value) >= minimum,
        f"{key!r} must be a non-empty list of integers >= {minimum}, got {value}",
    )
    return value


def _get_int_rows(config: dict, key: str) -> list[list[int]]:
    value = config.get(key)
    _require(
        isinstance(value, list) and all(_is_int_list(row) for row in value),
        f"{key!r} must be a list of integer lists",
    )
    return value


def _get_bool(config: dict, key: str, default: bool) -> bool:
    value = config.get(key, default)
    _require(isinstance(value, bool), f"{key!r} must be true or false")
    return value


def _get_number(config: dict, key: str, default, valid, requirement: str):
    """A number passing ``valid``; an optional field (default None) may be absent or null."""
    value = config.get(key, default)
    if value is None and default is None:
        return None
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool) and valid(value),
        f"{key!r} must be {requirement}",
    )
    return value


def _get_q(config: dict):
    return _get_number(config, "q", 4, lambda q: q > 2, "a number > 2")


def _require_finite(value, where: str = "config"):
    """Reject inf and nan anywhere in the config; JSON has no spelling for them."""
    if isinstance(value, float):
        _require(math.isfinite(value), f"{where} must be finite, got {value}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{key!r}")
    elif isinstance(value, list):
        for item in value:
            _require_finite(item, where)


def _build_system(config: dict) -> CharacterSystem:
    if "characters" in config:
        _require("orders" in config, "explicit characters need group orders")
        group = make_group(_get_int_list(config, "orders", minimum=2))
        return CharacterSystem.from_exponents(group, _get_int_rows(config, "characters"))
    spec = config.get("system")
    _require(isinstance(spec, dict), "missing or invalid 'system' specification")
    if "exponents" in spec:
        _require("orders" in spec or "orders" in config, "explicit exponents need group orders")
        source = spec if "orders" in spec else config
        group = make_group(_get_int_list(source, "orders", minimum=2))
        return CharacterSystem.from_exponents(group, _get_int_rows(spec, "exponents"))
    if "hadamard" in spec:
        h = spec["hadamard"]
        _require(
            isinstance(h, dict) and {"ratio", "count", "modulus"} <= h.keys(),
            "hadamard spec needs 'ratio', 'count', and 'modulus'",
        )
        return hadamard_trig_system(
            ratio=_get_int(h, "ratio", minimum=2),
            count=_get_int(h, "count", minimum=1),
            modulus=_get_int(h, "modulus"),
            d=_get_int(h, "d", minimum=1, default=1),
            include_negatives=_get_bool(h, "include_negatives", False),
        )
    if "vc_staircase" in spec:
        v = spec["vc_staircase"]
        _require(
            isinstance(v, dict) and {"base", "position_sets"} <= v.keys(),
            "vc_staircase spec needs 'base' and 'position_sets'",
        )
        values = v.get("values")
        if values is not None and not _is_int(values):
            _get_int_rows(v, "values")
        base = _get_int(v, "base", minimum=2)
        position_sets = _get_int_rows(v, "position_sets")
        _require(len(position_sets) > 0, "'position_sets' must not be empty")
        return vc_system_from_digit_sets(
            base=base,
            digit_position_sets=position_sets,
            digit_values=values,
            width=_get_int(v, "width") if v.get("width") is not None else None,
        )
    if "rademacher" in spec:
        r = spec["rademacher"]
        _require(
            isinstance(r, dict) and "count" in r, "rademacher spec needs 'count'"
        )
        count = _get_int(r, "count", minimum=1)
        base = _get_int(r, "base", minimum=2, default=2)
        value = _get_int(r, "value", minimum=1, default=1)
        _require(value < base, f"'value' must be below 'base' ({base}), got {value}")
        return rademacher_system(count, base=base, value=value)
    raise ConfigInvalid(
        "system must provide 'exponents', 'hadamard', 'vc_staircase', or 'rademacher'"
    )


def _chaos_indices(system: CharacterSystem, d: int, kind: str):
    _require(kind in ("polynomial", "tetrahedral"), f"unknown chaos kind {kind!r}")
    if kind == "tetrahedral":
        return enumerate_tetrahedral(len(system), d)
    return enumerate_polynomial(len(system), d)


def _write_json(path: Path, command: str, config: dict, results: dict):
    payload = {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "config_sha256": _config_hash(config),
        "results": results,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list], append: bool = False):
    mode = "a" if append and path.exists() else "w"
    with path.open(mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(header)
        writer.writerows(rows)


def _stats_block(values: np.ndarray) -> dict:
    return {
        "mass_re": float(values.mean().real),
        "mass_im": float(values.mean().imag),
        "min_real": float(values.real.min()),
        "max_abs_imag": float(np.abs(values.imag).max()),
        "total_variation": float(np.abs(values).mean()),
    }


def _cmd_check_dissociated(config, out, svg):
    system = _build_system(config)
    d = _get_int(config, "d", minimum=1)
    method = config.get("method", "auto")
    _require(method in ("auto", "direct", "mitm"), f"unknown method {method!r}")
    if method == "mitm":
        report = is_d_dissociated_mitm(system, d)
    elif method == "direct":
        report = is_d_dissociated(system, d)
    else:
        try:
            report = is_d_dissociated(system, d)
        except BudgetExceeded:
            report = is_d_dissociated_mitm(system, d)
    results = {
        "report": report.to_json_obj(),
        "system": system.to_json_obj(),
    }
    _write_json(out / "dissociation.json", "check-dissociated", config, results)
    return 0 if report.dissociated else 1


def _cmd_riesz_report(config, out, svg):
    system = _build_system(config)
    d = _get_int(config, "d", minimum=1)
    check = _get_bool(config, "check_dissociated", True)
    rho = riesz_density(system, d, check=check)
    table = fourier(rho)
    ok = rho.is_probability()
    results = {
        "d": d,
        "density_stats": _stats_block(rho.values),
        "probability_density_ok": ok,
        "system": system.to_json_obj(),
    }
    _write_json(out / "riesz_report.json", "riesz-report", config, results)
    sha = _config_hash(config)
    density_rows = [
        [i, _fmt(v.real), _fmt(v.imag), sha, __version__]
        for i, v in enumerate(rho.values)
    ]
    _write_csv(
        out / "riesz_density.csv",
        ["element", "re", "im", "config_sha256", "artifact_version"],
        density_rows,
    )
    fourier_rows = [
        [
            i,
            ":".join(str(a) for a in system.group.character_at(i).exponents),
            _fmt(c.real),
            _fmt(c.imag),
            sha,
            __version__,
        ]
        for i, c in enumerate(table.coeffs)
    ]
    _write_csv(
        out / "riesz_fourier.csv",
        ["character", "exponents", "re", "im", "config_sha256", "artifact_version"],
        fourier_rows,
    )
    return 0 if ok else 1


def _cmd_nu_solve(config, out, svg):
    d = _get_int(config, "d", minimum=1)
    wanted = [_get_int(config, "s", minimum=1)] if "s" in config else list(range(1, d + 1))
    _require(all(1 <= x <= d for x in wanted), f"s must lie in 1..{d}")
    specs = [extraction_coefficients(d, x) for x in wanted]
    results = {"specs": [spec.to_json_obj() for spec in specs]}
    _write_json(out / "extraction.json", "nu-solve", config, results)
    return 0


def _extract_verify_once(system, d, rng, y_samples, expectation_mode):
    if not expectation_mode:
        require_nondegenerate(system, d)
    poly = random_chaos_polynomial(system, d, rng)
    parts = decompose(poly)
    base = 2 * d + 1
    per_s = []
    worst = 0.0
    for s in range(1, d + 1):
        target = parts[s - 1].values()
        direct = extract_homogeneous(poly, s, check=False)
        err_nu = float(np.abs(direct - target).max())
        scaled_target = target / (2 * d) ** s
        errs_mod = []
        mean_accum = np.zeros_like(target)
        for _ in range(y_samples):
            y = ModulationPoint.random(rng, base, len(system))
            modulated = extract_homogeneous_modulated(poly, s, y, check=False)
            mean_accum += modulated
            errs_mod.append(float(np.abs(modulated - scaled_target).max()))
        err_mod = max(errs_mod)
        err_mean = float(np.abs(mean_accum / y_samples - scaled_target).max())
        per_s.append(
            {
                "s": s,
                "max_error_extraction": err_nu,
                "max_error_modulated": err_mod,
                "error_of_mean_over_y": err_mean,
            }
        )
        if not expectation_mode:
            worst = max(worst, err_nu, err_mod)
        else:
            worst = max(worst, err_mean)
    return per_s, worst


def _cmd_extract_verify(config, out, svg):
    system = _build_system(config)
    d = _get_int(config, "d", minimum=1)
    trials = _get_int(config, "trials", minimum=1, default=3)
    y_samples = _get_int(config, "y_samples", minimum=1, default=10)
    seed = _get_int(config, "seed", minimum=0, default=0)
    expectation_mode = _get_bool(config, "expectation_mode", False)
    runs = []
    worst = 0.0
    try:
        for t in range(trials):
            rng = trial_rng(seed, t)
            per_s, w = _extract_verify_once(system, d, rng, y_samples, expectation_mode)
            runs.append({"trial": t, "per_s": per_s})
            worst = max(worst, w)
    except DegenerateOrder as exc:
        print(
            f"error: {exc}\nhint: rerun with \"expectation_mode\": true to record "
            "observed expectation-over-y residuals for degenerate systems",
            file=sys.stderr,
        )
        return 1
    passed = worst <= _EXTRACTION_TOL
    results = {
        "d": d,
        "mode": "expectation" if expectation_mode else "pointwise",
        "worst_error": worst,
        "tolerance": _EXTRACTION_TOL,
        "passed": passed if not expectation_mode else None,
        "runs": runs,
        "system": system.to_json_obj(),
    }
    _write_json(out / "extract_verify.json", "extract-verify", config, results)
    if expectation_mode:
        return 0
    return 0 if passed else 1


def _cmd_estimate(config, out, svg):
    """khinchin and sidon: one constant estimate, its JSON and an appended CSV row."""
    kind = config["command"]
    system = _build_system(config)
    d = _get_int(config, "d", minimum=1)
    trials = _get_int(config, "trials", minimum=1)
    seed = _get_int(config, "seed", minimum=0, default=0)
    if kind == "khinchin":
        estimator, model_key, model_default = estimate_khinchin_constant, "kappa_model", 10.0
        options = {"q": _get_q(config)}
    else:
        estimator, model_key, model_default = estimate_sidon_constant, "c_model", 1.0
        options = {"p": _get_number(config, "p", None, lambda p: p >= 1, "a number >= 1")}
    chaos = config.get("chaos", "polynomial")
    indices = _chaos_indices(system, d, chaos)
    options[model_key] = _get_number(
        config, model_key, model_default, lambda c: math.isfinite(c) and c > 0, "a finite number > 0"
    )
    estimate = estimator(
        system, d, trials=trials, seed=seed, indices=indices, workers=worker_count(), **options
    )
    results = {"estimate": estimate.to_json_obj(), "chaos": chaos}
    _write_json(out / f"{kind}.json", kind, config, results)
    row = [kind, d, _fmt(estimate.exponent), len(system), _fmt(estimate.constant), seed]
    _write_csv(
        out / f"{kind}.csv",
        ["kind", "d", "exponent", "m", "estimate", "seed", "config_sha256", "artifact_version"],
        [row + [_config_hash(config), __version__]],
        append=True,
    )
    if estimate.ceiling is not None and estimate.constant > estimate.ceiling:
        print(
            f"violation: estimate {estimate.constant} exceeds ceiling {estimate.ceiling}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_discretize_scan(config, out, svg):
    system = _build_system(config)
    d = _get_int(config, "d", minimum=1)
    trials = _get_int(config, "trials", minimum=1)
    probes = _get_int(config, "probes", minimum=1, default=64)
    seed = _get_int(config, "seed", minimum=0, default=0)
    q = _get_q(config)
    m_grid = config.get("m_grid")
    _require(
        _is_int_list(m_grid) and m_grid and min(m_grid) >= 1,
        "'m_grid' must be a non-empty list of positive integers",
    )
    indices = _chaos_indices(system, d, config.get("chaos", "tetrahedral"))
    basis = list(values_matrix(system, indices).T)
    n = len(basis)
    records = scan_point_counts(
        basis, q, m_grid, trials, seed, system.group, probes=probes, workers=worker_count()
    )
    bad = [r for r in records if r["c1"] > r["c2"] + 1e-12]
    summary = summarize_scan(records)
    marker = round(n ** (q / 2))
    results = {
        "n_basis": n,
        "q": float(q),
        "marker_m": marker,
        "summary": summary,
        "note": (
            "C1/C2 are probe estimates: upper/lower bounds of the true frame "
            "constants of each scheme, not the constants themselves"
        ),
    }
    _write_json(out / "discretize.json", "discretize-scan", config, results)
    sha = _config_hash(config)
    rows = [
        [
            r["m"],
            r["trial"],
            _fmt(r["c1"]),
            _fmt(r["c2"]),
            _fmt(r["q"]),
            r["n_basis"],
            r["seed"],
            sha,
            __version__,
        ]
        for r in records
    ]
    _write_csv(
        out / "discretize.csv",
        ["m", "trial", "C1", "C2", "q", "N", "seed", "config_sha256", "artifact_version"],
        rows,
    )
    if svg:
        (out / "discretize.svg").write_text(render_scan_svg(summary, n, q, marker))
    return 0 if not bad else 1


_DISPATCH = {
    "check-dissociated": _cmd_check_dissociated,
    "riesz-report": _cmd_riesz_report,
    "nu-solve": _cmd_nu_solve,
    "extract-verify": _cmd_extract_verify,
    "khinchin": _cmd_estimate,
    "sidon": _cmd_estimate,
    "discretize-scan": _cmd_discretize_scan,
}


def run(config: dict, out_dir: str | Path = ".", svg: bool = False) -> int:
    """Validate a config dict and execute its command; returns the exit code."""
    _require(isinstance(config, dict), "config must be a JSON object")
    _require_finite(config)
    command = config.get("command")
    _require(command in _COMMANDS, f"'command' must be one of {', '.join(_COMMANDS)}")
    if "seed" in config:
        _get_int(config, "seed", minimum=0)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _DISPATCH[command](config, out, svg)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lacuna",
        description="Riesz products and chaos polynomials over dissociated character systems",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory for artifacts")
    parser.add_argument("--svg", action="store_true", help="also draw SVG plots")
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if not isinstance(config, dict):
            print("config error: top level must be a JSON object", file=sys.stderr)
            return 2
        config = dict(config)
        config["seed"] = args.seed

    try:
        return run(config, out_dir=args.out, svg=args.svg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LacunaError, ValueError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
