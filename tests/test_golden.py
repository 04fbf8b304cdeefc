"""Golden results: every command's ``results`` payload on a tiny fixed config.

``tests/data/golden_results.json`` holds one payload per config below.  The
six named after their other commands produced theirs before the duplicate
power-coincidence loops, the ``HomogeneousPart`` type and the two estimator
bodies were folded into one each; ``extract-verify`` and
``extract-verify-d3`` produced theirs once both extraction routes
synthesized each row over Q's terms.  Structure, ints, strings and bools
must match exactly; floats must match within 1e-12 relative.  When a
change is meant to move results, regenerate the file with
``python tests/test_golden.py`` and say why in CHANGES.md.

That tolerance forgives a move in the last bits, which needs a new
``__version__`` all the same.  So the same command also writes
``tests/data/golden_digests.json``: the version and the sha256 of each
payload's sorted-key JSON, which must stay byte for byte until the
version moves.

``tests/data/extract_cycle.json`` freezes one schedule cycle of the
benchmark's ``extract`` workload, and ``EXTRACT_CYCLE_DIGESTS`` pins the
sha256 of each op's results, so a change to the extraction path keeps its
bytes or moves the version.  The same command prints the cycle's digests
to pin anew.
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
EXTRACT_CYCLE = Path(__file__).parent / "data" / "extract_cycle.json"

# the version the digests below were pinned at, and one digest per config of the cycle
EXTRACT_CYCLE_VERSION = "0.9.0"
EXTRACT_CYCLE_DIGESTS = (
    "feb393fa747bd1896f740fb9fb759908a0d5ef161dc1dda34dffb7bb9f00c554",
    "76b40b9b1b07cbb3f989300bfd0a2a2d023f7d58dcee6510947c7f9afd2dfa6c",
    "0856ad06b5ed4fd0f436f2aadd96a86ab4975434be9b1220c56673b2599838b2",
    "4f133f9539007cfe7cb25386ea576762b1c8bc080c6c255d1e6d4304369fab14",
    "b5b33b504adfdd8ae6920001d5554ad63b7e70eedd9f162b2904c00332043c63",
    "8cd1cdeb2c8117c611b5c8d6acf95fb09620851022caaf8e9ed08a2e30b8406f",
    "fc822c18049ace42813968b2f9c23838191fd3dc1e8ed1cf7208be18f4ac939e",
    "60c1e032afe1eae7087057357decc9501b076aa6c51e7ee6fc34e510fd67a229",
    "b3471aa2a9468e063392fed8807c7d6661373a4b9fa54a3089b5f92772735b55",
    "93c8d44ddf16b8c1e45ed4c0d9af93001e6c14abcbadc2970b57bacef5cc3aa3",
    "c24eb6f0f0c21784fcccac272cba0c6ae8a3733e471163e5ce0ffa8172fc5c72",
    "01415dd1a11df0cc8624c0d13c5606372c72924ee7bbcd02ff632b234ba550ce",
    "2b84a5ad09ddf53f0670f2530b3fc848a8c192a720a3c0b6d0fbbda80774947b",
    "136c8bdd85fcd3590ad1c1cb38bbd1a1acf917bd61a1369d8ea25d31eb0b0abc",
    "698e56d923480904b5109a3201d3d25319936ad9f3037c88e6233c386b7f73a1",
    "8cb01e7edc16de6c418582b010cef69ea786c86afa038058b6295f32540a4e8a",
)

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


def _cycle_digests(out: Path) -> list[str]:
    digests = []
    for i, config in enumerate(json.loads(EXTRACT_CYCLE.read_text())["configs"]):
        assert run(config, out_dir=out / str(i)) == 0
        payload = json.loads((out / str(i) / "extract_verify.json").read_text())
        digests.append(_digest(payload["results"]))
    return digests


def test_extract_cycle_keeps_its_bytes_until_the_version_moves(tmp_path):
    assert EXTRACT_CYCLE_VERSION == __version__, "pin the cycle's digests anew"
    assert tuple(_cycle_digests(tmp_path)) == EXTRACT_CYCLE_DIGESTS


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
    with tempfile.TemporaryDirectory() as tmp:
        cycle = _cycle_digests(Path(tmp))
    print(f'EXTRACT_CYCLE_VERSION = "{__version__}"')
    print("EXTRACT_CYCLE_DIGESTS = (\n" + "".join(f'    "{d}",\n' for d in cycle) + ")")
