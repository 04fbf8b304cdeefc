"""Output checks for one benchmark op.

Every op is judged from outside the library: its exit code, its artifacts
parsed as strict JSON, and numbers the benchmark recomputes with its own
arithmetic from the exponent vectors it generated.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from workloads import Op

EXTRACTION_TOL = 1e-8
# relative gap allowed between a reported constant and the benchmark's recomputation
RECOMPUTE_TOL = 1e-8

ARTIFACTS = {
    "extract-verify": ("extract_verify.json",),
    "khinchin": ("khinchin.json", "khinchin.csv"),
    "sidon": ("sidon.json", "sidon.csv"),
    "discretize-scan": ("discretize.json", "discretize.csv"),
}


class CheckFailed(Exception):
    pass


@dataclass
class Verdict:
    ok: bool
    reason: str | None = None
    # the op's worst residual and the tolerance it is held to
    residual: float | None = None
    tolerance: float | None = None
    # a Khinchin or Sidon constant the op found
    constant: float | None = None


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite JSON constant {name}")


def strict_json(path: Path):
    """Parse a JSON file, rejecting NaN and Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@lru_cache(maxsize=8)
def rademacher_tetrahedral_matrix(m: int) -> np.ndarray:
    """Values of gamma_i * gamma_j, i < j, over Z_2^m (first digit most significant)."""
    g = np.arange(2**m)
    signs = 1 - 2 * ((g[:, None] >> (m - 1 - np.arange(m))[None, :]) & 1)
    cols = [signs[:, i] * signs[:, j] for i, j in itertools.combinations(range(m), 2)]
    return np.stack(cols, axis=1).astype(np.float64)


def _recomputed_constant(op: Op, estimate: dict) -> float:
    matrix = rademacher_tetrahedral_matrix(len(op.exponents))
    coeffs = np.array([complex(re, im) for re, im in estimate["coefficients"]])
    _require(coeffs.shape == (matrix.shape[1],), "coefficient vector has the wrong length")
    values = np.abs(matrix @ coeffs)
    if op.command == "khinchin":
        q = float(op.config["q"])
        return float(np.mean(values**q) ** (1 / q) / np.linalg.norm(coeffs))
    p = float(estimate["exponent"])
    return float(np.sum(np.abs(coeffs) ** p) ** (1 / p) / values.max())


def _check_artifacts(op: Op, out: Path) -> dict:
    parsed = {}
    for name in ARTIFACTS[op.command]:
        path = out / name
        _require(path.is_file(), f"missing artifact {name}")
        if name.endswith(".json"):
            parsed[name] = strict_json(path)
    return parsed


def check_op(op: Op, rc: int | None, error: str | None, out: Path) -> Verdict:
    """Judge one finished op; never raises."""
    try:
        _require(error is None, f"exception escaped cli.main: {error}")
        _require(rc == op.expected_rc, f"exit code {rc}, expected {op.expected_rc}")
        parsed = _check_artifacts(op, out)
        return _CHECKS[op.command](op, parsed, out)
    except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return Verdict(False, f"{type(exc).__name__}: {exc}")


def _check_extract(op: Op, parsed: dict, out: Path) -> Verdict:
    results = parsed["extract_verify.json"]["results"]
    system = results["system"]
    _require(
        tuple(system["orders"]) == op.orders
        and tuple(map(tuple, system["characters"])) == op.exponents,
        "the artifact's system is not the one the config gave",
    )
    worst = results["worst_error"]
    _require(worst <= EXTRACTION_TOL and results["passed"] is True, f"worst_error {worst:.3g}")
    return Verdict(True, residual=worst, tolerance=EXTRACTION_TOL)


def _check_estimate(op: Op, parsed: dict, out: Path) -> Verdict:
    estimate = parsed[f"{op.command}.json"]["results"]["estimate"]
    constant = estimate["constant"]
    if op.command == "khinchin":
        _require(constant >= 1, f"Khinchin constant {constant} below 1")
    _require(constant > 0, f"constant {constant} is not positive")
    gap = abs(_recomputed_constant(op, estimate) - constant) / constant
    _require(gap <= RECOMPUTE_TOL, f"reported constant is {gap:.3g} off its coefficients")
    return Verdict(True, residual=gap, tolerance=RECOMPUTE_TOL, constant=constant)


def _check_scan(op: Op, parsed: dict, out: Path) -> Verdict:
    results = parsed["discretize.json"]["results"]
    m = len(op.exponents)
    _require(results["n_basis"] == m * (m - 1) // 2, f"basis size {results['n_basis']}")
    sizes = [row["m"] for row in results["summary"]]
    _require(sizes == sorted(set(op.config["m_grid"])), f"scan covered sizes {sizes}")
    for row in results["summary"]:
        _require(0 < row["worst_c1"] <= row["median_c1"], f"bad C1 at m={row['m']}")
        _require(row["median_c1"] <= row["median_c2"] <= row["worst_c2"], f"bad C2 at m={row['m']}")
    return Verdict(True)


_CHECKS = {
    "extract-verify": _check_extract,
    "khinchin": _check_estimate,
    "sidon": _check_estimate,
    "discretize-scan": _check_scan,
}
