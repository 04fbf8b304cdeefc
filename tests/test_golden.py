"""Golden results: every command's ``results`` payload on a tiny fixed config.

``tests/data/golden_results.json`` holds one payload per config below.  The
six named after their other commands produced theirs before the duplicate
power-coincidence loops, the ``HomogeneousPart`` type and the two estimator
bodies were folded into one each; ``extract-verify`` and
``extract-verify-d3`` produced theirs once every term's value table,
the target's included, came from the character at the term's position.  Structure, ints, strings and bools
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
EXTRACT_CYCLE_VERSION = "0.10.0"
EXTRACT_CYCLE_DIGESTS = (
    "fd6779f2a0042c5a1b7b44d2eb67b41486ab9287b1e9508c3da3867de97fc1fd",
    "0eac3b346a680c3e6b492544b13486556b1468b39631a129244c49db8e2a9f72",
    "6c1181c6b0e7c242aadcc22eff10df3f9c3694392d68c02282127889ef87bd15",
    "3b6a47d81c0dd692a511300400f6d385a711753839f704eb83b17479ac404327",
    "70e57e9cf7b4d0726da8b5469ff6a499109c2039c259b827db9e427033f620e4",
    "bd0de16544ec41277c7e73352bfbf7343930b10be7c42631d5df823204d2d6d8",
    "620962653e6e715aa53d05c40cf3dbea4e78e4b7b400c6689de82bc5e67538a9",
    "14c693e3679455545dbdee2feab27dc020875f9d178d2b918967f3618f36e088",
    "b77f7d30ed5ffcb1a4a3580da21dbb033193385a233ee9877f020a84e6ae4237",
    "d59dc1b8f9fc778e06a1d442ec4029943d69ca5588a1e37b3abad9b3ad70c522",
    "c87bafe19b123cf330f7bf246db3a1a2630ee7eb3447a55d51b9082705efd5d2",
    "c15156bb24422a5970507629c2f7d4782456d83764d08a331c7f92458f1ac6c7",
    "8d07f5591d544e228dbdcb66c1b6a2f361e68e613e9c0aee2069f9f891877174",
    "662e27e4069285322acd8d1ece6cbfa3f444d227495daaedae9aa92fa65aa43a",
    "7b5dde786cbd37a6e182a11189b3d85246f54d7ad137be1df5c0344f295a9915",
    "7a3520c273ac426abb3964fedaa63c377e618b95423f525c5fa498ca9e12f3d3",
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
