"""Command-line driver: reproducible experiment runs with JSON configs.

Usage:  lacuna --config RUN.json [--seed N] [--out DIR] [--svg]

The config file carries the subcommand in its "command" field plus the
inputs that run needs; --seed overrides the config's seed.  Identical
effective configs produce byte-identical CSV/JSON artifacts (the SVG plot
is content-deterministic too, since it is rendered by hand).  Every output
embeds the sha256 of the effective config and the artifact version.

Exit codes: 0 success, 1 property violation or computation error,
2 invalid configuration, a field its command does not read included.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .analysis import (
    _require_chaos_cells,
    chaos_indices,
    estimate_khinchin_constant,
    estimate_sidon_constant,
)
from .chaos import decompose, random_chaos_polynomial, term_positions
from .discretize import render_scan_svg, scan_point_counts, summarize_scan
from .dissociation import (
    CharacterSystem,
    hadamard_trig_system,
    is_d_dissociated,
    rademacher_system,
    require_dissociated,
    vc_system_from_digit_sets,
)
from .errors import ConfigInvalid, DegenerateOrder, LacunaError
from .groups import inverse_fourier, make_group
from .parallel import trial_rng
from .riesz import (
    ModulationPoint,
    extract_homogeneous,
    extract_homogeneous_modulated,
    extraction_coefficients,
    require_nondegenerate,
    riesz_spectrum,
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


# -- field checks: each takes (key, value) and raises ConfigInvalid on a bad value


def _int(minimum: int | None = None):
    def check(key, value):
        _require(_is_int(value), f"{key!r} must be an integer")
        _require(minimum is None or value >= minimum, f"{key!r} must be >= {minimum}, got {value}")

    return check


def _int_list(minimum: int):
    def check(key, value):
        _require(_is_int_list(value), f"{key!r} must be a list of integers")
        message = f"{key!r} must be a non-empty list of integers >= {minimum}, got {value}"
        _require(len(value) > 0 and min(value) >= minimum, message)

    return check


def _int_rows(key, value):
    rows = isinstance(value, list) and all(_is_int_list(row) for row in value)
    _require(rows, f"{key!r} must be a list of integer lists")


def _position_sets(key, value):
    _int_rows(key, value)
    _require(len(value) > 0, f"{key!r} must not be empty")


def _digit_values(key, value):
    """One digit value for every position, or one list per position set."""
    if not _is_int(value):
        _int_rows(key, value)


def _bool(key, value):
    _require(isinstance(value, bool), f"{key!r} must be true or false")


def _number(valid, requirement: str):
    def check(key, value):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        # a JSON integer past the float range would overflow where it is used
        finite = number and abs(value) <= sys.float_info.max
        _require(finite and valid(value), f"{key!r} must be a finite number {requirement}")

    return check


def _choice(*options: str):
    def check(key, value):
        _require(value in options, f"{key!r} must be one of {', '.join(options)}, got {value!r}")

    return check


# -- field tables {field: (check, default)}: a default of ... marks a required field, and
# null stands for absent exactly where the default is None

_CHAOS = _choice("polynomial", "tetrahedral")
_MODEL = _number(lambda c: c > 0, "> 0")
_Q = (_number(lambda q: q > 2, "> 2"), 4)

_SHARED = {"d": (_int(1), ...), "seed": (_int(0), 0)}

_COMMANDS = {
    "check-dissociated": {},
    "riesz-report": {},
    "nu-solve": {"s": (_int(1), None)},
    "extract-verify": {"trials": (_int(1), 3), "y_samples": (_int(1), 10)},
    "khinchin": {
        "trials": (_int(1), ...),
        "chaos": (_CHAOS, "polynomial"),
        "q": _Q,
        "kappa_model": (_MODEL, 10.0),
    },
    "sidon": {
        "trials": (_int(1), ...),
        "chaos": (_CHAOS, "polynomial"),
        "p": (_number(lambda p: p >= 1, ">= 1"), None),
        "c_model": (_MODEL, 1.0),
    },
    "discretize-scan": {
        "trials": (_int(1), ...),
        "chaos": (_CHAOS, "tetrahedral"),
        "q": _Q,
        "m_grid": (_int_list(1), ...),
        "probes": (_int(1), 64),
    },
}

# each kind's builder, and its fields in the builder's parameter order
_SYSTEMS = {
    "hadamard": (
        hadamard_trig_system,
        {
            "ratio": (_int(2), ...),
            "count": (_int(1), ...),
            "modulus": (_int(), ...),
            "d": (_int(1), 1),
            "include_negatives": (_bool, False),
        },
    ),
    "vc_staircase": (
        vc_system_from_digit_sets,
        {
            "base": (_int(2), ...),
            "position_sets": (_position_sets, ...),
            "values": (_digit_values, None),
            "width": (_int(), None),
        },
    ),
    "rademacher": (
        rademacher_system,
        {"count": (_int(1), ...), "base": (_int(2), 2), "value": (_int(1), 1)},
    ),
}
# explicit exponent rows, inside "system" or in the top-level wire format
_EXPLICIT = {"orders": (_int_list(2), ...), "exponents": (_int_rows, ...)}
_WIRE = {"orders": (_int_list(2), ...), "characters": (_int_rows, ...)}


def _read(source, fields: dict, where: str, also: tuple = ()) -> dict:
    """Each field's checked value or default; a key not in ``fields`` or ``also`` is refused."""
    _require(isinstance(source, dict), f"{where} must be a JSON object")
    for key in source:
        _require(key in fields or key in also, f"unknown field {key!r} in {where}")
    values = {}
    for key, (check, default) in fields.items():
        if key in source and not (source[key] is None and default is None):
            check(key, source[key])
            values[key] = source[key]
        else:
            _require(default is not ..., f"missing required field {key!r} in {where}")
            values[key] = default
    return values


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
    """Check every field of the config's system, then build it."""
    if "characters" in config:
        explicit = _read({key: config[key] for key in _WIRE if key in config}, _WIRE, "config")
    else:
        spec = config.get("system")
        _require(isinstance(spec, dict), "missing or invalid 'system' specification")
        kind = next((key for key in spec if key in _SYSTEMS), None)
        if kind is None:
            _require("exponents" in spec, f"'system' needs exponents or one of {list(_SYSTEMS)}")
            explicit = _read(spec, _EXPLICIT, "'system'")
        else:
            for key in spec:
                _require(key == kind, f"unknown field {key!r} in 'system'")
            builder, fields = _SYSTEMS[kind]
            args = _read(spec[kind], fields, repr(kind))
            if kind == "rademacher":
                base, value = args["base"], args["value"]
                _require(value < base, f"'value' must be below 'base' ({base}), got {value}")
            return builder(*args.values())
    orders, rows = explicit.values()
    return CharacterSystem.from_exponents(make_group(orders), rows)


def _write_json(path: Path, command: str, config: dict, results: dict):
    payload = {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "config_sha256": _config_hash(config),
        "results": results,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, config: dict, header: list[str], lines: Iterable[str], append: bool = False):
    """Write ``lines``, rows with their fields joined by commas, under ``header``.

    Every row ends with the config hash and artifact version, and with
    "\r\n" as ``csv.writer`` ends it.  No field holds a comma, a quote or
    a line break, so none is quoted.
    """
    mode = "a" if append and path.exists() else "w"
    stamp = f",{_config_hash(config)},{__version__}\r\n"
    with path.open(mode, newline="") as fh:
        if mode == "w":
            fh.write(",".join(header + ["config_sha256", "artifact_version"]) + "\r\n")
        fh.writelines(line + stamp for line in lines)


def _complex_rows(labels: Iterable, values: np.ndarray) -> Iterator[str]:
    """"label,re,im" per value, the floats as _fmt formats them.

    One f-string per row over whole columns of Python floats, a block of
    rows at a time, so the columns never hold more than a block.
    """
    block = 4096
    labels = iter(labels)
    for lo in range(0, len(values), block):
        rows = values[lo : lo + block]
        # labels last: zip stops at the block's end without drawing the next label
        columns = zip(rows.real.tolist(), rows.imag.tolist(), labels)
        yield from (f"{label},{x:.17g},{y:.17g}" for x, y, label in columns)


def _position_counts(system, indices) -> tuple[int, int]:
    """(distinct term positions, largest multiplicity of one position) over the chaos terms."""
    _, counts = np.unique(term_positions(system, indices), return_counts=True)
    return len(counts), int(counts.max())


def _cmd_check_dissociation(plan, config, out, svg):
    system = plan["system"]
    report = is_d_dissociated(system, plan["d"])
    results = {"report": report.to_json_obj(), "system": system.to_json_obj()}
    _write_json(out / "dissociation.json", "check-dissociated", config, results)
    return 0 if report.dissociated else 1


def _cmd_riesz_report(plan, config, out, svg):
    system, d = plan["system"], plan["d"]
    require_dissociated(system, d)
    table = riesz_spectrum(system, d)
    rho = inverse_fourier(table)
    ok = rho.is_probability()
    results = {
        "d": d,
        "density_stats": {
            "mass_re": rho.mass.real,
            "mass_im": rho.mass.imag,
            "min_real": float(rho.values.real.min()),
            "max_abs_imag": float(np.abs(rho.values.imag).max()),
            "total_variation": rho.total_variation,
        },
        "probability_density_ok": ok,
        "system": system.to_json_obj(),
    }
    _write_json(out / "riesz_report.json", "riesz-report", config, results)
    density_rows = _complex_rows(range(system.group.size), rho.values)
    _write_csv(out / "riesz_density.csv", config, ["element", "re", "im"], density_rows)
    # characters enumerate in lexicographic exponent order, as elements do
    exponents = itertools.product(*map(range, system.group.orders))
    labels = (f"{i},{':'.join(map(str, a))}" for i, a in enumerate(exponents))
    fourier_rows = _complex_rows(labels, table.coeffs)
    _write_csv(
        out / "riesz_fourier.csv", config, ["character", "exponents", "re", "im"], fourier_rows
    )
    return 0 if ok else 1


def _cmd_nu_solve(plan, config, out, svg):
    d, s = plan["d"], plan["s"]
    _require(s is None or s <= d, f"s must lie in 1..{d}")
    specs = [extraction_coefficients(d, x) for x in ([s] if s else range(1, d + 1))]
    results = {"specs": [spec.to_json_obj() for spec in specs]}
    _write_json(out / "extraction.json", "nu-solve", config, results)
    return 0


def _extract_verify_once(system, d, rng, y_samples, expectation):
    poly = random_chaos_polynomial(system, d, rng)
    parts = decompose(poly)
    extracted = extract_homogeneous(poly, check=False)
    per_s = []
    worst = 0.0
    for s, (part, direct) in enumerate(zip(parts, extracted), start=1):
        target = part.values()
        err_nu = float(np.abs(direct - target).max())
        target /= (2 * d) ** s  # the scaled target is all the modulated route needs
        ys = ModulationPoint.random_batch(rng, 2 * d + 1, len(system), y_samples)
        modulated = extract_homogeneous_modulated(part, ys, check=False)
        # an axis-0 sum adds the rows in order; the block is dropped before the next is built
        mean = modulated.sum(axis=0) / y_samples
        # a max is exact in any order, so the moduli are taken a row at a time
        err_mod = max(float(np.abs(row - target).max()) for row in modulated)
        del modulated
        err_mean = float(np.abs(mean - target).max())
        per_s.append(
            {
                "s": s,
                "max_error_extraction": err_nu,
                "max_error_modulated": err_mod,
                "error_of_mean_over_y": err_mean,
            }
        )
        worst = max(worst, err_mean) if expectation else max(worst, err_nu, err_mod)
    return per_s, worst


def _cmd_extract_verify(plan, config, out, svg):
    system, d = plan["system"], plan["d"]
    # a d past the float range, or a chaos past the table limit, is refused before any trial
    extraction_coefficients(d, 1)
    _require_chaos_cells(system, d)
    try:
        require_nondegenerate(system, d)
        expectation = False
    except DegenerateOrder:
        expectation = True
    runs = []
    worst = 0.0
    for t in range(plan["trials"]):
        rng = trial_rng(plan["seed"], t)
        per_s, w = _extract_verify_once(system, d, rng, plan["y_samples"], expectation)
        runs.append({"trial": t, "per_s": per_s})
        worst = max(worst, w)
    passed = worst <= _EXTRACTION_TOL
    results = {
        "d": d,
        "mode": "expectation" if expectation else "pointwise",
        "worst_error": worst,
        "tolerance": _EXTRACTION_TOL,
        "passed": None if expectation else passed,
        "runs": runs,
        "system": system.to_json_obj(),
    }
    _write_json(out / "extract_verify.json", "extract-verify", config, results)
    return 0 if expectation or passed else 1


def _cmd_estimate(plan, config, out, svg):
    """khinchin and sidon: one constant estimate, its JSON and an appended CSV row."""
    kind = config["command"]
    system, d, seed = plan["system"], plan["d"], plan["seed"]
    estimator = estimate_khinchin_constant if kind == "khinchin" else estimate_sidon_constant
    # trials, and q with kappa_model or p with c_model: the estimator's own parameter names
    names = ("trials", "q", "kappa_model", "p", "c_model")
    options = {key: plan[key] for key in names if key in plan}
    indices = chaos_indices(system, d, tetrahedral=plan["chaos"] == "tetrahedral")
    estimate = estimator(system, d, seed=seed, indices=indices, **options)
    n_distinct, gram_max = _position_counts(system, indices)
    results = {
        "estimate": estimate.to_json_obj(),
        "chaos": plan["chaos"],
        "n_distinct": n_distinct,
        "gram_max": gram_max,
    }
    _write_json(out / f"{kind}.json", kind, config, results)
    row = f"{kind},{d},{_fmt(estimate.exponent)},{len(system)},{_fmt(estimate.constant)},{seed}"
    header = ["kind", "d", "exponent", "m", "estimate", "seed"]
    _write_csv(out / f"{kind}.csv", config, header, [row], append=True)
    if estimate.ceiling is not None and estimate.constant > estimate.ceiling:
        print(
            f"violation: estimate {estimate.constant} exceeds ceiling {estimate.ceiling}",
            file=sys.stderr,
        )
        return 1
    return 0


def _marker_m(n: int, q: float) -> int | None:
    """N^(q/2) rounded, where the scan's plot draws its marker; None past the float range."""
    try:
        return round(n ** (q / 2))
    except OverflowError:
        return None


def _cmd_discretize_scan(plan, config, out, svg):
    system, d, q, seed = plan["system"], plan["d"], plan["q"], plan["seed"]
    indices = chaos_indices(system, d, tetrahedral=plan["chaos"] == "tetrahedral")
    n = len(indices)
    records = scan_point_counts(
        system, indices, q, plan["m_grid"], plan["trials"], seed, plan["probes"]
    )
    bad = [r for r in records if r["c1"] > r["c2"] + 1e-12]
    summary = summarize_scan(records)
    marker = _marker_m(n, q)
    results = {
        "n_basis": n,
        "n_distinct": _position_counts(system, indices)[0],
        "q": float(q),
        "marker_m": marker,
        "summary": summary,
        "note": (
            "C1/C2 are probe estimates: upper/lower bounds of the true frame "
            "constants of each scheme, not the constants themselves"
        ),
    }
    _write_json(out / "discretize.json", "discretize-scan", config, results)
    rows = (
        f"{r['m']},{r['trial']},{_fmt(r['c1'])},{_fmt(r['c2'])},{_fmt(r['q'])},{r['n_basis']},{r['seed']}"
        for r in records
    )
    _write_csv(out / "discretize.csv", config, ["m", "trial", "C1", "C2", "q", "N", "seed"], rows)
    if svg:
        (out / "discretize.svg").write_text(render_scan_svg(summary, n, q, marker))
    return 0 if not bad else 1


_DISPATCH = {
    "check-dissociated": _cmd_check_dissociation,
    "riesz-report": _cmd_riesz_report,
    "nu-solve": _cmd_nu_solve,
    "extract-verify": _cmd_extract_verify,
    "khinchin": _cmd_estimate,
    "sidon": _cmd_estimate,
    "discretize-scan": _cmd_discretize_scan,
}


def run(config: dict, out_dir: str | Path = ".", svg: bool = False) -> int:
    """Validate a config dict and execute its command; returns the exit code.

    Every field is checked, and unknown ones refused, before a system or a
    table is built.
    """
    _require(isinstance(config, dict), "config must be a JSON object")
    _require_finite(config)
    command = config.get("command")
    _require(command in _COMMANDS, f"'command' must be one of {', '.join(_COMMANDS)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # every command but nu-solve runs on a system, named once: by "system", or by the
    # wire format's two keys; a key of the other spelling is refused as unknown
    builds = command != "nu-solve"
    spelling = ("system",) if "system" in config else ("orders", "characters")
    also = ("command", *spelling) if builds else ("command",)
    plan = _read(config, {**_SHARED, **_COMMANDS[command]}, "config", also)
    if builds:
        plan["system"] = _build_system(config)
    return _DISPATCH[command](plan, config, out, svg)


# built once: parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(
    prog="lacuna",
    description="Riesz products and chaos polynomials over dissociated character systems",
)
_PARSER.add_argument("--config", required=True, help="path to a JSON run config")
_PARSER.add_argument("--seed", type=int, default=None, help="override the config seed")
_PARSER.add_argument("--out", default=".", help="output directory for artifacts")
_PARSER.add_argument("--svg", action="store_true", help="also draw SVG plots")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and isinstance(config, dict):
        config = {**config, "seed": args.seed}

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
