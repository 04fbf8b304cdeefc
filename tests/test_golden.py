"""Golden results: every command's ``results`` payload on a tiny fixed config.

``tests/data/golden_results.json`` holds one payload per config below.  The
six named after their other commands produced theirs before the duplicate
power-coincidence loops, the ``HomogeneousPart`` type and the two estimator
bodies were folded into one each; ``extract-verify`` and
``extract-verify-d3`` produced theirs once each term's rho_y weight was
read as the one root of unity of its summed exponent.  Structure, ints, strings and bools
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
EXTRACT_CYCLE_VERSION = "0.14.0"
EXTRACT_CYCLE_DIGESTS = (
    "fd6779f2a0042c5a1b7b44d2eb67b41486ab9287b1e9508c3da3867de97fc1fd",
    "05ef904f5672e358f3738d1278994bac06121f42d854fb20d3756eea11ac2270",
    "6c1181c6b0e7c242aadcc22eff10df3f9c3694392d68c02282127889ef87bd15",
    "67a6184dd5dbf0220e4a58043748619c98377923546d6f34aae007e8afdff2bb",
    "70e57e9cf7b4d0726da8b5469ff6a499109c2039c259b827db9e427033f620e4",
    "66a6c6a03afd457115fc108e27edb72e195a5b107b2d49491c187ddae1d02885",
    "f8934f5299e0f47ca725b684f4c43f29065d008a86aa197ed575c4192cab5b6b",
    "1d175d7e9954f43da29f0c776fe5d45a375adab5276f6292bdb3248596bf89c1",
    "d1cab5508b1ea0e7836ef3e4560a6fa4a59a7680ea015e787c75705ac3882653",
    "cab1440bc94fe43c7d1f35a7c0dc2da9a9cf167cee32e219b3d888e0a8c02664",
    "c87bafe19b123cf330f7bf246db3a1a2630ee7eb3447a55d51b9082705efd5d2",
    "d32d5c4a41db9126f0261c755d8b2eb0eb9a6c3b075fa7ee253a05ca0a81f4f8",
    "8d07f5591d544e228dbdcb66c1b6a2f361e68e613e9c0aee2069f9f891877174",
    "187a91cbe377226438b11fcd8063a3e5ad0859598fc75f5a199b3c94e9427876",
    "3d8b5a1b899a2f107e611274898c36ab0659b5fab75b6ea872afdabae7e6911a",
    "636799b19391af6b30964595007299bdba0531f3ce29066fd3a6eab6a50d7bf2",
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
