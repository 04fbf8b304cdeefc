"""Golden results: every command's ``results`` payload on a tiny fixed config.

``tests/data/golden_results.json`` holds one payload per config below.  The
seven named after their commands produced theirs before the duplicate
power-coincidence loops, the ``HomogeneousPart`` type and the two estimator
bodies were folded into one each; ``extract-verify-d3`` produced its own
before rho_y's spectrum walk served a batch of points.  Structure, ints, strings and bools must match exactly; floats must
match within 1e-12 relative.  When a change is meant to move results,
regenerate the file with ``python tests/test_golden.py`` and say why in
CHANGES.md.

That tolerance forgives a move in the last bits, which needs a new
``__version__`` all the same.  So the same command also writes
``tests/data/golden_digests.json``: the version and the sha256 of each
payload's sorted-key JSON, which must stay byte for byte until the
version moves.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from conftest import refuse_everywhere
from lacuna import __version__
from lacuna.cli import run

GOLDEN = Path(__file__).parent / "data" / "golden_results.json"
DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"

_RADEMACHER_4 = {"rademacher": {"count": 4}}

CONFIGS = {
    "check-dissociated": (
        {
            "command": "check-dissociated",
            "system": {"hadamard": {"ratio": 3, "count": 3, "modulus": 1000, "d": 2}},
            "d": 2,
        },
        "dissociation.json",
    ),
    "riesz-report": (
        {
            "command": "riesz-report",
            "system": {"exponents": [[1, 0], [0, 1]], "orders": [5, 5]},
            "d": 2,
        },
        "riesz_report.json",
    ),
    "nu-solve": ({"command": "nu-solve", "d": 3}, "extraction.json"),
    "extract-verify": (
        {
            "command": "extract-verify",
            "system": {"exponents": [[1, 0], [0, 1]], "orders": [9, 9]},
            "d": 2,
            "trials": 2,
            "y_samples": 3,
            "seed": 5,
        },
        "extract_verify.json",
    ),
    # d = 3 divides every weight by 2d = 6, whose reciprocal is inexact: rho_y's
    # table keeps its bits only if each weight is divided, not multiplied by 1/6
    "extract-verify-d3": (
        {
            "command": "extract-verify",
            "system": {"exponents": [[1], [10]], "orders": [101]},
            "d": 3,
            "trials": 2,
            "y_samples": 4,
            "seed": 11,
        },
        "extract_verify.json",
    ),
    "khinchin": (
        {
            "command": "khinchin",
            "system": {"rademacher": {"count": 3}},
            "d": 2,
            "q": 4,
            "trials": 2,
            "seed": 7,
        },
        "khinchin.json",
    ),
    "sidon": (
        {
            "command": "sidon",
            "system": _RADEMACHER_4,
            "d": 2,
            "chaos": "tetrahedral",
            "trials": 2,
            "seed": 3,
        },
        "sidon.json",
    ),
    "discretize-scan": (
        {
            "command": "discretize-scan",
            "system": _RADEMACHER_4,
            "d": 2,
            "chaos": "tetrahedral",
            "q": 4,
            "m_grid": [6, 12],
            "trials": 3,
            "probes": 8,
            "seed": 42,
        },
        "discretize.json",
    ),
}


def _results(command: str, out: Path) -> dict:
    config, artifact = CONFIGS[command]
    assert run(config, out_dir=out) == 0
    return json.loads((out / artifact).read_text())["results"]


def _digest(results: dict) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def _assert_matches(got, want, where="results"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=1e-12), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_golden_file_covers_every_command():
    from lacuna.cli import _COMMANDS

    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CONFIGS)
    assert sorted({config["command"] for config, _ in CONFIGS.values()}) == sorted(_COMMANDS)


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_results_match_golden(tmp_path, command):
    golden = json.loads(GOLDEN.read_text())
    _assert_matches(_results(command, tmp_path), golden[command])


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_results_keep_their_bytes_until_the_version_moves(tmp_path, command):
    recorded = json.loads(DIGESTS.read_text())
    assert recorded["version"] == __version__, "regenerate the golden files"
    assert _digest(_results(command, tmp_path)) == recorded["digests"][command]


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_no_command_runs_a_forward_transform(tmp_path, monkeypatch, command):
    # every table a command reads is built in the dual group or read off a value table
    refuse_everywhere(monkeypatch, "fourier")
    config, _ = CONFIGS[command]
    assert run(config, out_dir=tmp_path) == 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payloads = {name: _results(name, Path(tmp) / name) for name in CONFIGS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payloads, sort_keys=True, indent=2) + "\n")
    digests = {name: _digest(results) for name, results in payloads.items()}
    DIGESTS.write_text(
        json.dumps({"version": __version__, "digests": digests}, sort_keys=True, indent=2) + "\n"
    )
