"""CLI subcommands: artifacts, exit codes, validation, byte determinism."""

import json
import math
import tracemalloc
from pathlib import Path

import pytest

from conftest import character_at, refuse_everywhere
from lacuna import __version__
from lacuna.cli import main, run


def _write_config(tmp_path: Path, config: dict, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def _run(tmp_path, config, subdir="out", svg=False, seed=None):
    cfg = _write_config(tmp_path, config, name=f"{subdir}.json")
    out = tmp_path / subdir
    argv = ["--config", str(cfg), "--out", str(out)]
    if svg:
        argv.append("--svg")
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    return code, out


HADAMARD_EXAMPLE = {
    "command": "check-dissociated",
    "system": {"hadamard": {"ratio": 3, "count": 3, "modulus": 1000, "d": 2}},
    "d": 2,
}


def test_check_dissociated_hadamard_example(tmp_path):
    code, out = _run(tmp_path, HADAMARD_EXAMPLE)
    assert code == 0
    payload = json.loads((out / "dissociation.json").read_text())
    assert payload["results"]["report"]["dissociated"] is True
    assert payload["artifact_version"] == __version__
    assert len(payload["config_sha256"]) == 64


def test_check_dissociated_wire_format_and_failure_exit(tmp_path):
    config = {
        "command": "check-dissociated",
        "orders": [5],
        "characters": [[1], [2]],
        "d": 2,
    }
    code, out = _run(tmp_path, config)
    assert code == 1
    payload = json.loads((out / "dissociation.json").read_text())
    assert payload["results"]["report"]["witness"] == [-2, 1]


def test_check_dissociated_mitm_method(tmp_path, capsys):
    # one checker, so no field picks one
    code, out = _run(tmp_path, {**HADAMARD_EXAMPLE, "method": "mitm"})
    assert code == 2
    assert "unknown field 'method' in config" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_check_dissociated_at_huge_d(tmp_path):
    config = {"command": "check-dissociated", "orders": [5], "characters": [[1], [2]]}
    code, out = _run(tmp_path, {**config, "d": 10**17})
    assert code == 1
    payload = json.loads((out / "dissociation.json").read_text())
    # d = 10**17 is 0 mod 5: the witness of d = 5, (-4, -3), shifted down by 10**17 - 5
    assert payload["results"]["report"]["witness"] == [1 - 10**17, 2 - 10**17]
    rademacher = {"command": "check-dissociated", "system": {"rademacher": {"count": 3}}}
    code, _ = _run(tmp_path, {**rademacher, "d": 10**17}, subdir="rademacher")
    assert code == 0


def test_riesz_report_artifacts(tmp_path):
    config = {
        "command": "riesz-report",
        "system": {"exponents": [[1]], "orders": [4]},
        "d": 1,
    }
    code, out = _run(tmp_path, config)
    assert code == 0
    payload = json.loads((out / "riesz_report.json").read_text())
    stats = payload["results"]["density_stats"]
    assert stats["mass_re"] == pytest.approx(1.0)
    assert payload["results"]["probability_density_ok"] is True
    density_lines = (out / "riesz_density.csv").read_text().strip().splitlines()
    assert density_lines[0] == "element,re,im,config_sha256,artifact_version"
    assert len(density_lines) == 1 + 4
    fourier_lines = (out / "riesz_fourier.csv").read_text().strip().splitlines()
    assert len(fourier_lines) == 1 + 4
    # values match the known density (2, 1, 0, 1)
    assert density_lines[1].startswith("0,2,")


def test_riesz_fourier_csv_names_each_character_by_its_exponents(tmp_path):
    from lacuna import make_group

    config = {
        "command": "riesz-report",
        "system": {"exponents": [[1, 0], [0, 1]], "orders": [3, 4]},
        "d": 1,
    }
    code, out = _run(tmp_path, config)
    assert code == 0
    group = make_group([3, 4])
    rows = [line.split(",") for line in (out / "riesz_fourier.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [str(i) for i in range(group.size)]
    assert [row[1] for row in rows] == [
        ":".join(str(a) for a in character_at(group, i).exponents) for i in range(group.size)
    ]


def test_riesz_report_flags_non_probability_density(tmp_path):
    # a single order-2 character is 2-dissociated but the degree-2 product
    # carries the trivial power gamma^2, so the mass drifts off 1
    config = {
        "command": "riesz-report",
        "system": {"exponents": [[1]], "orders": [2]},
        "d": 2,
    }
    code, out = _run(tmp_path, config)
    assert code == 1
    payload = json.loads((out / "riesz_report.json").read_text())
    assert payload["results"]["probability_density_ok"] is False
    assert payload["results"]["density_stats"]["mass_re"] == pytest.approx(1.25)


def test_riesz_report_streams_its_csv_rows(tmp_path):
    # one formatted row at a time: as lists of rows, rademacher(14) at d = 1
    # peaked at about 30 tables of 16 |G| bytes
    config = {"command": "riesz-report", "system": {"rademacher": {"count": 14}}, "d": 1}
    tracemalloc.start()
    try:
        assert run(config, out_dir=tmp_path / "out") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 * 2**14


def test_riesz_report_checks_dissociation_first(tmp_path, capsys):
    config = {
        "command": "riesz-report",
        "system": {"exponents": [[1], [2]], "orders": [5]},
        "d": 2,
    }
    code, out = _run(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error (NotDissociated): system is not 2-dissociated; witness (-2, 1)\n"
    assert not any(out.iterdir())


def test_nu_solve_artifact(tmp_path):
    config = {"command": "nu-solve", "d": 2}
    code, out = _run(tmp_path, config)
    assert code == 0
    payload = json.loads((out / "extraction.json").read_text())
    specs = payload["results"]["specs"]
    assert [spec["s"] for spec in specs] == [1, 2]
    assert specs[0]["coefficients"][0] == 0.0
    assert specs[0]["coefficients"][1:] == [pytest.approx(-4 / 3), pytest.approx(64 / 3)]
    assert specs[0]["variation_bound"] == pytest.approx(68 / 3)


def test_extract_verify_nondegenerate(tmp_path):
    config = {
        "command": "extract-verify",
        "system": {"exponents": [[1, 0], [0, 1]], "orders": [9, 9]},
        "d": 2,
        "trials": 2,
        "y_samples": 3,
        "seed": 5,
    }
    code, out = _run(tmp_path, config)
    assert code == 0
    payload = json.loads((out / "extract_verify.json").read_text())
    assert payload["results"]["passed"] is True
    assert payload["results"]["worst_error"] <= 1e-8


def test_extract_verify_not_2d_dissociated_still_exits_one(tmp_path, capsys):
    # every order exceeds 2d, so the run is pointwise, and its regime check fails
    config = {
        "command": "extract-verify",
        "system": {"exponents": [[1], [2]], "orders": [9]},
        "d": 1,
        "trials": 1,
    }
    code, out = _run(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error (NotDissociated): system is not 2-dissociated; witness (-2, 1)\n"
    assert not any(out.iterdir())


def test_extract_verify_checks_dissociation_once_per_run(tmp_path, monkeypatch):
    import lacuna.dissociation

    calls = []
    original = lacuna.dissociation.is_d_dissociated

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lacuna.dissociation, "is_d_dissociated", counting)
    config = {
        "command": "extract-verify",
        "system": {"exponents": [[1, 0], [0, 1]], "orders": [9, 9]},
        "d": 2,
        "trials": 3,
        "y_samples": 4,
        "seed": 5,
    }
    code, _ = _run(tmp_path, config)
    assert code == 0
    # the system is the same in every trial, so it is checked once, not 3 times
    assert calls == [(calls[0][0], 4)]


def test_extract_verify_decomposes_and_builds_rho_once_per_trial(tmp_path, monkeypatch):
    import sys

    import lacuna.chaos
    import lacuna.riesz

    counts = {}
    watched = (
        (lacuna.chaos, "decompose"),
        (lacuna.riesz, "_riesz_hat"),
        (lacuna.riesz, "riesz_density"),
        (lacuna.riesz, "modulated_riesz_density"),
    )
    for module, name in watched:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        # every lacuna module that bound the function by name calls through it
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "lacuna"]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    config = {
        "command": "extract-verify",
        "system": {"exponents": [[1, 0], [0, 1]], "orders": [9, 9]},
        "d": 2,
        "trials": 3,
        "y_samples": 4,
        "seed": 5,
    }
    code, _ = _run(tmp_path, config)
    assert code == 0
    # one split of Q and one spectrum of rho per trial, however many s and y
    # samples it covers; no density is built, the spectra come off the factor terms
    assert counts == {"decompose": 3, "_riesz_hat": 3}


def test_extract_verify_expectation_mode_runs_degenerate(tmp_path, capsys):
    # an order <= 2d selects the mode: no field asks for it
    config = {
        "command": "extract-verify",
        "system": {"exponents": [[1]], "orders": [4]},
        "d": 2,
        "trials": 1,
        "y_samples": 20,
        "seed": 1,
    }
    code, out = _run(tmp_path, config)
    assert code == 0
    assert capsys.readouterr().err == ""
    payload = json.loads((out / "extract_verify.json").read_text())
    assert payload["results"]["mode"] == "expectation"
    assert payload["results"]["passed"] is None


def test_khinchin_run_and_csv(tmp_path):
    config = {
        "command": "khinchin",
        "system": {"rademacher": {"count": 4}},
        "d": 1,
        "q": 4,
        "trials": 3,
        "seed": 11,
    }
    code, out = _run(tmp_path, config)
    assert code == 0
    payload = json.loads((out / "khinchin.json").read_text())
    estimate = payload["results"]["estimate"]
    assert estimate["ceiling"] is not None
    assert estimate["constant"] <= estimate["ceiling"]
    lines = (out / "khinchin.csv").read_text().strip().splitlines()
    assert lines[0].startswith("kind,d,exponent,m,estimate,seed")
    assert lines[1].startswith("khinchin,1,4,4,")


def test_khinchin_csv_append_only(tmp_path):
    config = {
        "command": "khinchin",
        "system": {"rademacher": {"count": 3}},
        "d": 1,
        "q": 4,
        "trials": 1,
        "seed": 0,
    }
    cfg = _write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "khinchin.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + two appended runs
    assert lines[1] == lines[2]


def test_khinchin_on_coinciding_rademacher_squares_reads_sqrt_gram_max(tmp_path):
    """Every r_i^2 of base-2 Rademacher characters is the trivial character.

    The polynomial chaos at d = 2 on rademacher(10) has 55 terms at 46
    positions, 10 of them at the trivial one, so the search finds the
    constant polynomial and the ratio reads sqrt(gram_max) = sqrt(10).
    """
    config = {
        "command": "khinchin",
        "system": {"rademacher": {"count": 10}},
        "d": 2,
        "q": 4,
        "trials": 1,
        "seed": 0,
    }
    code, out = _run(tmp_path, config)
    assert code == 0
    results = json.loads((out / "khinchin.json").read_text())["results"]
    assert (results["n_distinct"], results["gram_max"]) == (46, 10)
    assert len(results["estimate"]["coefficients"]) == 55
    assert results["estimate"]["constant"] == pytest.approx(10**0.5, rel=1e-9)


@pytest.mark.parametrize("command", ["sidon", "discretize-scan"])
def test_sidon_and_scan_record_distinct_positions(tmp_path, command):
    # polynomial chaos on rademacher(4) at d = 2: 10 terms, the 4 squares all trivial
    config = {
        "command": command,
        "system": {"rademacher": {"count": 4}},
        "d": 2,
        "chaos": "polynomial",
        "trials": 1,
        **({"m_grid": [8]} if command == "discretize-scan" else {}),
    }
    code, out = _run(tmp_path, config)
    assert code == 0
    artifact = "sidon.json" if command == "sidon" else "discretize.json"
    results = json.loads((out / artifact).read_text())["results"]
    assert results["n_distinct"] == 7
    # the scan records no Gram multiplicity
    assert results.get("gram_max") == (4 if command == "sidon" else None)


def test_khinchin_trials_zero_is_config_invalid(tmp_path):
    config = {
        "command": "khinchin",
        "system": {"rademacher": {"count": 3}},
        "d": 1,
        "q": 4,
        "trials": 0,
    }
    code, _ = _run(tmp_path, config)
    assert code == 2


def test_sidon_run(tmp_path):
    config = {
        "command": "sidon",
        "system": {"rademacher": {"count": 4}},
        "d": 2,
        "chaos": "tetrahedral",
        "trials": 2,
        "seed": 3,
    }
    code, out = _run(tmp_path, config)
    assert code == 0
    payload = json.loads((out / "sidon.json").read_text())
    estimate = payload["results"]["estimate"]
    assert estimate["kind"] == "sidon"
    assert estimate["exponent"] == pytest.approx(4 / 3)
    assert (out / "sidon.csv").exists()


@pytest.mark.parametrize(
    "command,model",
    [("khinchin", {"kappa_model": 1e-300}), ("sidon", {"c_model": 1e300})],
    ids=["khinchin", "sidon"],
)
def test_estimate_past_its_ceiling_exits_one_with_its_artifacts(tmp_path, capsys, command, model):
    config = {
        "command": command,
        "system": {"rademacher": {"count": 4}},
        "d": 1,
        "trials": 2,
        **model,
    }
    code, out = _run(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("violation: estimate ") and " exceeds ceiling " in err
    estimate = json.loads((out / f"{command}.json").read_text())["results"]["estimate"]
    assert estimate["constant"] > estimate["ceiling"]
    assert len((out / f"{command}.csv").read_text().splitlines()) == 2


def test_discretize_scan_with_svg(tmp_path):
    config = {
        "command": "discretize-scan",
        "system": {"rademacher": {"count": 4}},
        "d": 2,
        "chaos": "tetrahedral",
        "q": 4,
        "m_grid": [6, 12, 36],
        "trials": 4,
        "probes": 16,
        "seed": 17,
    }
    code, out = _run(tmp_path, config, svg=True)
    assert code == 0
    payload = json.loads((out / "discretize.json").read_text())
    assert payload["results"]["n_basis"] == payload["results"]["n_distinct"] == 6
    assert payload["results"]["marker_m"] == 36
    assert "probe estimates" in payload["results"]["note"]
    lines = (out / "discretize.csv").read_text().strip().splitlines()
    assert lines[0] == "m,trial,C1,C2,q,N,seed,config_sha256,artifact_version"
    assert len(lines) == 1 + 3 * 4
    svg = (out / "discretize.svg").read_text()
    assert svg.startswith("<svg")


def test_cli_seed_override_changes_effective_config(tmp_path):
    config = {
        "command": "khinchin",
        "system": {"rademacher": {"count": 3}},
        "d": 1,
        "q": 4,
        "trials": 1,
        "seed": 0,
    }
    code, out_a = _run(tmp_path, config, subdir="a", seed=99)
    assert code == 0
    payload = json.loads((out_a / "khinchin.json").read_text())
    assert payload["config"]["seed"] == 99
    assert payload["results"]["estimate"]["seed"] == 99


def test_unknown_command_and_bad_config(tmp_path):
    code, _ = _run(tmp_path, {"command": "frobnicate"})
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["--config", str(missing)]) == 2
    # undecodable bytes, and an integer literal past Python's int-to-str digit limit
    for name, data in (("bom.json", b"\xff\xfe{}"), ("digits.json", b"1" * 5000)):
        (tmp_path / name).write_bytes(data)
        assert main(["--config", str(tmp_path / name)]) == 2


def test_incomplete_system_specs_are_config_errors(tmp_path):
    for spec in (
        {"hadamard": {"ratio": 3}},
        {"vc_staircase": {"base": 3}},
        {"rademacher": {}},
        {"exponents": [[1]]},
        "not-a-dict",
    ):
        code, _ = _run(tmp_path, {"command": "check-dissociated", "system": spec, "d": 1})
        assert code == 2


_INT = "must be an integer"
_INT_LIST = "must be a list of integers"
_INT_ROWS = "must be a list of integer lists"
_MIN_1 = "must be >= 1"
_MIN_2 = "must be >= 2"
_ORDERS = "'orders' must be a non-empty list of integers >= 2"


@pytest.mark.parametrize(
    "fields,message",
    [
        pytest.param(
            {"system": {"hadamard": {"ratio": "3", "count": 4, "modulus": 1000}}},
            _INT,
            id="hadamard0",
        ),
        pytest.param(
            {"system": {"hadamard": {"ratio": 3, "count": 4.0, "modulus": 1000}}},
            _INT,
            id="hadamard1",
        ),
        pytest.param(
            {"system": {"hadamard": {"ratio": 3, "count": 4, "modulus": [1000]}}},
            _INT,
            id="hadamard2",
        ),
        pytest.param(
            {"system": {"hadamard": {"ratio": 3, "count": 4, "modulus": 1000, "d": True}}},
            _INT,
            id="hadamard3",
        ),
        pytest.param({"system": {"rademacher": {"count": "3"}}}, _INT, id="rademacher-count-str"),
        pytest.param({"system": {"rademacher": {"count": 3.0}}}, _INT, id="rademacher-count-float"),
        pytest.param(
            {"system": {"rademacher": {"count": 3, "base": "3"}}}, _INT, id="rademacher-base"
        ),
        pytest.param(
            {"system": {"rademacher": {"count": 3, "value": 1.5}}}, _INT, id="rademacher-value"
        ),
        pytest.param(
            {"system": {"vc_staircase": {"base": "3", "position_sets": [[0]]}}},
            _INT,
            id="vc-base",
        ),
        pytest.param(
            {"system": {"vc_staircase": {"base": 3, "position_sets": [[0]], "width": 2.0}}},
            _INT,
            id="vc-width",
        ),
        pytest.param(
            {"system": {"vc_staircase": {"base": 3, "position_sets": [["0"]]}}},
            _INT_ROWS,
            id="vc-position-str",
        ),
        pytest.param(
            {"system": {"vc_staircase": {"base": 3, "position_sets": "01"}}},
            _INT_ROWS,
            id="vc-position-sets-str",
        ),
        pytest.param(
            {"system": {"vc_staircase": {"base": 3, "position_sets": [[0]], "values": [["1"]]}}},
            _INT_ROWS,
            id="vc-values",
        ),
        pytest.param({"system": {"exponents": [[1]], "orders": "77"}}, _INT_LIST, id="orders-str"),
        pytest.param({"system": {"exponents": [[1]], "orders": [7.5]}}, _INT_LIST, id="orders-float"),
        pytest.param({"system": {"exponents": [[1.0]], "orders": [7]}}, _INT_ROWS, id="exponents"),
        pytest.param({"system": {"exponents": "1", "orders": [7]}}, _INT_ROWS, id="exponents-str"),
        pytest.param({"orders": ["5"], "characters": [[1]]}, _INT_LIST, id="top-orders"),
        pytest.param({"orders": [5], "characters": [[1.5]]}, _INT_ROWS, id="characters"),
        # well-typed but below the field's minimum
        pytest.param({"system": {"rademacher": {"count": 0}}}, _MIN_1, id="rademacher-count-0"),
        pytest.param({"system": {"rademacher": {"count": -2}}}, _MIN_1, id="rademacher-count-neg"),
        pytest.param(
            {"system": {"rademacher": {"count": 3, "base": 1}}}, _MIN_2, id="rademacher-base-1"
        ),
        pytest.param(
            {"system": {"rademacher": {"count": 3, "value": 0}}}, _MIN_1, id="rademacher-value-0"
        ),
        pytest.param(
            {"system": {"rademacher": {"count": 3, "base": 3, "value": 3}}},
            "must be below 'base'",
            id="rademacher-value-base",
        ),
        pytest.param({"system": {"exponents": [[1]], "orders": []}}, _ORDERS, id="orders-empty"),
        pytest.param({"system": {"exponents": [[1]], "orders": [1]}}, _ORDERS, id="orders-1"),
        pytest.param({"orders": [], "characters": [[1]]}, _ORDERS, id="top-orders-empty"),
        pytest.param({"orders": [5, 0], "characters": [[1, 0]]}, _ORDERS, id="top-orders-0"),
        pytest.param(
            {"system": {"vc_staircase": {"base": 1, "position_sets": [[0]]}}},
            _MIN_2,
            id="vc-base-1",
        ),
        pytest.param(
            {"system": {"vc_staircase": {"base": 3, "position_sets": []}}},
            "must not be empty",
            id="vc-no-sets",
        ),
        pytest.param(
            {"system": {"hadamard": {"ratio": 1, "count": 3, "modulus": 1000}}},
            _MIN_2,
            id="hadamard-ratio-1",
        ),
        pytest.param(
            {"system": {"hadamard": {"ratio": 3, "count": 0, "modulus": 1000}}},
            _MIN_1,
            id="hadamard-count-0",
        ),
        pytest.param(
            {"system": {"hadamard": {"ratio": 3, "count": 3, "modulus": 1000, "d": 0}}},
            _MIN_1,
            id="hadamard-d-0",
        ),
    ],
)
def test_non_integer_hadamard_fields_are_config_errors(tmp_path, capsys, fields, message):
    """Every integer field of every system spec, not just hadamard's, and its minimum."""
    config = {"command": "check-dissociated", "d": 1, **fields}
    code, out = _run(tmp_path, config)
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (out / "dissociation.json").exists()


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("khinchin", "kappa_model", "x"),
        ("khinchin", "kappa_model", 0),
        ("khinchin", "kappa_model", -2.5),
        ("khinchin", "kappa_model", True),
        ("sidon", "c_model", 0),
        ("sidon", "c_model", "1"),
    ],
)
def test_model_constants_must_be_positive_numbers(tmp_path, capsys, command, key, value):
    config = {
        "command": command,
        "system": {"rademacher": {"count": 3}},
        "d": 1,
        "trials": 1,
        key: value,
    }
    code, out = _run(tmp_path, config)
    assert code == 2
    assert f"{key!r} must be a finite number > 0" in capsys.readouterr().err
    assert not (out / f"{command}.json").exists()


@pytest.mark.parametrize(
    "config",
    [
        {
            "command": "check-dissociated",
            "system": {
                "hadamard": {"ratio": 3, "count": 3, "modulus": 1000, "include_negatives": "false"}
            },
            "d": 1,
        },
    ],
    ids=["include_negatives"],
)
def test_boolean_fields_must_be_json_booleans(tmp_path, capsys, config):
    code, out = _run(tmp_path, config)
    assert code == 2
    assert "must be true or false" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "sizes", [{"m_grid": [10**12]}, {"m_grid": [6], "probes": 10**9}], ids=["m", "probes"]
)
def test_discretize_scan_bounds_cells_before_allocating(tmp_path, capsys, monkeypatch, sizes):
    import lacuna.discretize

    def refuse(*args, **kwargs):
        raise AssertionError("the scan started its trials")

    monkeypatch.setattr(lacuna.discretize, "map_indexed", refuse)
    refuse_everywhere(monkeypatch, "_character_tables")
    config = {
        "command": "discretize-scan",
        "system": {"rademacher": {"count": 4}},
        "d": 2,
        "chaos": "tetrahedral",
        "trials": 1,
        **sizes,
    }
    code, out = _run(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert "SizeLimitExceeded" in err and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "config",
    [
        {"system": {"rademacher": {"count": 10}}, "d": 2, "chaos": "tetrahedral", "q": 400,
         "m_grid": [45, 90]},
        {"system": {"rademacher": {"count": 4}}, "d": 1, "q": 1000, "m_grid": [4, 8]},
    ],
    ids=["q400", "q1000"],
)
def test_discretize_scan_past_the_float_range_is_one_error_line(tmp_path, capsys, config):
    # |f|^q overflows: q = 400 used to die in the marker's round(N^(q/2)) and
    # q = 1000 in the JSON writer, on NaN constants
    code, out = _run(tmp_path, {"command": "discretize-scan", "trials": 2, **config})
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error (InvalidQ): q = ") and str(config["q"]) in err
    assert not any(out.iterdir())


def test_khinchin_past_the_float_range_is_one_error_line(tmp_path, capsys):
    # |f|^1500 overflows: the ascent used to die in the JSON writer on an inf
    config = {"command": "khinchin", "system": {"rademacher": {"count": 4}}, "d": 1,
              "trials": 2, "q": 1500}
    code, out = _run(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error (InvalidQ): q = 1500")
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "config",
    [
        {"command": "khinchin", "system": {"rademacher": {"count": 1}}, "d": 19},
        {"command": "sidon", "system": {"rademacher": {"count": 1}}, "d": 19},
        {"command": "khinchin", "system": {"rademacher": {"count": 4}}, "d": 1,
         "kappa_model": 1e308},
        {"command": "sidon", "system": {"rademacher": {"count": 4}}, "d": 1,
         "c_model": 1e-308},
    ],
    ids=["khinchin-d19", "sidon-d19", "kappa-1e308", "c-1e-308"],
)
def test_ceiling_past_the_float_range_is_refused_before_any_trial(
    tmp_path, capsys, monkeypatch, config
):
    # the ceiling used to overflow to inf and die in the JSON writer after every trial
    refuse_everywhere(monkeypatch, "_character_tables")
    code, out = _run(tmp_path, {"trials": 1, **config})
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error (SizeLimitExceeded): ") and "ceiling" in err
    assert not any(out.iterdir())


def test_sidon_at_a_huge_p_writes_a_finite_constant(tmp_path, capsys):
    # sum |A_i|^p would overflow at p = 1e300; the numerator n^(1/p) is about 1
    config = {"command": "sidon", "system": {"rademacher": {"count": 4}}, "d": 2,
              "trials": 2, "p": 1e300}
    code, out = _run(tmp_path, config)
    assert code == 0
    assert capsys.readouterr().err == ""
    estimate = json.loads((out / "sidon.json").read_text())["results"]["estimate"]
    assert math.isfinite(estimate["constant"]) and estimate["constant"] > 0


def test_scan_marker_is_none_past_the_float_range():
    from lacuna.cli import _marker_m

    assert _marker_m(45, 4) == 2025
    assert _marker_m(1, 10**6) == 1
    assert _marker_m(45, 400) is None


@pytest.mark.parametrize("command", ["khinchin", "sidon", "discretize-scan"])
def test_value_tables_are_bounded_before_any_column(tmp_path, capsys, monkeypatch, command):
    refuse_everywhere(monkeypatch, "_character_tables")
    config = {
        "command": command,
        "system": {"rademacher": {"count": 20}},
        "d": 3,
        "trials": 1,
        **({"m_grid": [8]} if command == "discretize-scan" else {}),
    }
    code, out = _run(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert "SizeLimitExceeded" in err and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "system, error",
    [
        ({"rademacher": {"count": 20000}}, "SizeLimitExceeded"),
        (
            {"vc_staircase": {"base": 2, "position_sets": [[0], [1]], "width": 10**8}},
            "SizeLimitExceeded",
        ),
        ({"hadamard": {"ratio": 3, "count": 3 * 10**7, "modulus": 1000}}, "ModulusTooSmall"),
    ],
    ids=["rademacher", "vc_staircase", "hadamard"],
)
def test_system_sizes_are_refused_before_any_list(tmp_path, capsys, monkeypatch, system, error):
    # 2^20000 and 3^30000000 pass Python's int-to-str limit, so no message may print them
    refuse_everywhere(monkeypatch, "make_group")
    code, out = _run(tmp_path, {"command": "check-dissociated", "system": system, "d": 1})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error ({error}): ") and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "config",
    [
        {"command": "khinchin", "system": {"rademacher": {"count": 12}}, "d": 12},
        {
            "command": "discretize-scan",
            "system": {"rademacher": {"count": 20}},
            "d": 10,
            "chaos": "tetrahedral",
            "m_grid": [8],
        },
    ],
    ids=["polynomial", "tetrahedral"],
)
def test_chaos_terms_are_counted_before_they_are_listed(tmp_path, capsys, monkeypatch, config):
    # C(23, 12) = 1,352,078 polynomial terms and C(20, 10) = 184,756 tetrahedral ones
    for attr in ("enumerate_polynomial", "enumerate_tetrahedral", "_character_tables"):
        refuse_everywhere(monkeypatch, attr)
    code, out = _run(tmp_path, {**config, "trials": 1})
    assert code == 1
    err = capsys.readouterr().err
    assert "SizeLimitExceeded" in err and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "system, d",
    [({"rademacher": {"count": 12}}, 8), ({"rademacher": {"count": 1}}, 20)],
    ids=["chaos past the table limit", "d past the float range"],
)
def test_extract_verify_refuses_before_any_polynomial(tmp_path, capsys, monkeypatch, system, d):
    # C(19, 8) = 75,582 terms x 4,096 points, and mixing coefficients near 2^1118
    refuse_everywhere(monkeypatch, "random_chaos_polynomial")
    config = {"command": "extract-verify", "system": system, "d": d, "trials": 1, "y_samples": 1}
    code, out = _run(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error (SizeLimitExceeded): ") and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "config",
    [
        {"command": "sidon", "p": 1.5, "trials": 1},
        {"command": "discretize-scan", "chaos": "polynomial", "m_grid": [2], "trials": 1},
    ],
    ids=["sidon", "discretize-scan"],
)
def test_chaos_tuples_are_bounded_before_they_are_listed(tmp_path, capsys, monkeypatch, config):
    # one term of 2 points passes terms x |G|; its 2000-long tuple passes 1000 cells
    import lacuna.groups

    monkeypatch.setattr(lacuna.groups, "TABLE_CELL_LIMIT", 1000)
    refuse_everywhere(monkeypatch, "enumerate_polynomial")
    code, out = _run(tmp_path, {**config, "system": {"rademacher": {"count": 1}}, "d": 2000})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error (SizeLimitExceeded): ") and "d x rank" in err
    assert not any(out.iterdir())


def test_extract_verify_bounds_its_y_block_before_any_draw(tmp_path, capsys, monkeypatch):
    # 10^9 points of |G| = 121 would ask for 1.9 TB of rho_y tables
    refuse_everywhere(monkeypatch, "trial_rng")
    refuse_everywhere(monkeypatch, "_riesz_spectrum")
    config = {
        "command": "extract-verify",
        "system": {"orders": [121], "exponents": [[3], [40]]},
        "d": 2,
        "y_samples": 10**9,
    }
    code, out = _run(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error (SizeLimitExceeded): ") and "y_samples x |G|" in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


def test_extract_verify_runs_a_y_block_exactly_at_the_limit(tmp_path, capsys, monkeypatch):
    import lacuna.groups

    monkeypatch.setattr(lacuna.groups, "TABLE_CELL_LIMIT", 3 * 121)
    config = {
        "command": "extract-verify",
        "system": {"orders": [121], "exponents": [[3], [40]]},
        "d": 1,
        "y_samples": 3,
    }
    assert _run(tmp_path, config)[0] == 0
    code, out = _run(tmp_path, {**config, "y_samples": 4}, subdir="over")
    assert code == 1 and "y_samples x |G|" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_discretize_scan_reads_m_grid_before_building_the_basis(tmp_path, capsys, monkeypatch):
    refuse_everywhere(monkeypatch, "_character_tables")
    config = {
        "command": "discretize-scan",
        "system": {"rademacher": {"count": 4}},
        "d": 2,
        "trials": 1,
        "m_grid": "x",
    }
    code, out = _run(tmp_path, config)
    assert code == 2
    assert "'m_grid' must be" in capsys.readouterr().err
    assert not any(out.iterdir())


_KHINCHIN_3 = {"command": "khinchin", "system": {"rademacher": {"count": 3}}, "d": 1, "trials": 1}


@pytest.mark.parametrize(
    "config,field",
    [
        ({**_KHINCHIN_3, "y_sample": 100}, "'y_sample' in config"),
        ({**_KHINCHIN_3, "m_grid": [8]}, "'m_grid' in config"),
        ({"command": "nu-solve", "d": 2, "system": {"rademacher": {"count": 3}}}, "'system'"),
        (
            {**_KHINCHIN_3, "system": {"rademacher": {"count": 3}, "hadamard": {"ratio": 3}}},
            "'hadamard' in 'system'",
        ),
        (
            {**_KHINCHIN_3, "system": {"exponents": [[1]], "orders": [5], "order": [5]}},
            "'order' in 'system'",
        ),
        ({**_KHINCHIN_3, "system": {"rademacher": {"count": 3, "bases": 3}}}, "'bases' in"),
        (
            {
                **_KHINCHIN_3,
                "system": {"vc_staircase": {"base": 3, "position_sets": [[0]], "value": 2}},
            },
            "'value' in 'vc_staircase'",
        ),
        # the mode and the check are no longer settings
        (
            {
                "command": "extract-verify",
                "system": {"exponents": [[1]], "orders": [4]},
                "d": 2,
                "expectation_mode": True,
            },
            "'expectation_mode' in config",
        ),
        (
            {
                "command": "riesz-report",
                "system": {"exponents": [[1], [2]], "orders": [5]},
                "d": 2,
                "check_dissociated": False,
            },
            "'check_dissociated' in config",
        ),
        # a system is named once: by "system", or by "orders" and "characters"
        (
            {
                "command": "check-dissociated",
                "orders": [5],
                "characters": [[1], [2]],
                "system": {"rademacher": {"count": 3}},
                "d": 1,
            },
            "'orders' in config",
        ),
        ({**_KHINCHIN_3, "orders": [5]}, "'orders' in config"),
        (
            {**_KHINCHIN_3, "system": {"exponents": [[1]], "orders": [7]}, "orders": [5]},
            "'orders' in config",
        ),
        (
            {**_KHINCHIN_3, "system": {"exponents": [[1], [2]]}, "orders": [5]},
            "'orders' in config",
        ),
    ],
    ids=[
        "top-level",
        "other-command",
        "nu-solve-system",
        "two-kinds",
        "exponents",
        "spec",
        "vc",
        "expectation_mode",
        "check_dissociated",
        "wire-and-system",
        "orders-beside-system",
        "orders-twice",
        "orders-beside-exponents",
    ],
)
def test_unknown_fields_are_config_errors(tmp_path, capsys, config, field):
    code, out = _run(tmp_path, config)
    assert code == 2
    err = capsys.readouterr().err
    assert f"unknown field {field}" in err and "Traceback" not in err
    assert not any(out.iterdir())


def test_nu_solve_null_s_solves_every_s(tmp_path):
    code, out = _run(tmp_path, {"command": "nu-solve", "d": 2, "s": None})
    assert code == 0
    specs = json.loads((out / "extraction.json").read_text())["results"]["specs"]
    assert [spec["s"] for spec in specs] == [1, 2]


@pytest.mark.parametrize(
    "config",
    [
        {"command": "nu-solve", "d": 20},
        {"command": "sidon", "system": {"rademacher": {"count": 3}}, "d": 20, "trials": 1},
        {"command": "khinchin", "system": {"rademacher": {"count": 1}}, "d": 1000, "trials": 1},
        {
            "command": "extract-verify",
            "system": {"hadamard": {"ratio": 41, "count": 2, "modulus": 200000}},
            "d": 20,
        },
    ],
    ids=["nu-solve", "sidon-ceiling", "khinchin-ceiling", "extract-verify"],
)
def test_d_past_the_float_range_is_a_size_limit(tmp_path, capsys, config):
    # the largest mixing coefficient at d = 20 is about 2^1117, past the float range
    code, out = _run(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert "SizeLimitExceeded" in err and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "command,key",
    [("khinchin", "q"), ("khinchin", "kappa_model"), ("sidon", "p"), ("sidon", "c_model")],
)
def test_integers_past_the_float_range_are_config_errors(tmp_path, capsys, command, key):
    config = {**_KHINCHIN_3, "command": command, key: 10**400}
    code, out = _run(tmp_path, config)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{key!r} must be a finite number" in err and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "fragment",
    ['"q": 1e400', '"q": Infinity', '"q": NaN', '"q": 4, "kappa_model": -1e999'],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, fragment):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        '{"command": "khinchin", "system": {"rademacher": {"count": 3}}, '
        '"d": 2, "trials": 1, ' + fragment + "}"
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "khinchin.json").exists()


def test_json_artifacts_refuse_non_finite_floats(tmp_path):
    from lacuna.cli import _write_json

    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", "nu-solve", {}, {"worst_error": float("nan")})


def test_module_error_surfaces_with_context(tmp_path, capsys):
    config = {
        "command": "check-dissociated",
        "system": {"hadamard": {"ratio": 3, "count": 3, "modulus": 10}},
        "d": 1,
    }
    code, _ = _run(tmp_path, config)
    assert code == 1
    assert "ModulusTooSmall" in capsys.readouterr().err


def test_run_rejects_non_dict():
    from lacuna.errors import ConfigInvalid

    with pytest.raises(ConfigInvalid):
        run(["not", "a", "dict"])


_SCAN_CONFIG = {
    "command": "discretize-scan",
    "system": {"rademacher": {"count": 4}},
    "d": 2,
    "chaos": "tetrahedral",
    "q": 4,
    "m_grid": [6, 12],
    "trials": 4,
    "probes": 8,
    "seed": 42,
}

DETERMINISM_CONFIGS = [
    (
        {
            "command": "khinchin",
            "system": {"rademacher": {"count": 4}},
            "d": 2,
            "q": 4,
            "trials": 2,
            "seed": 42,
        },
        ["khinchin.json", "khinchin.csv"],
        False,
    ),
    (_SCAN_CONFIG, ["discretize.json", "discretize.csv", "discretize.svg"], True),
    (
        {
            "command": "riesz-report",
            "system": {"exponents": [[1, 0], [0, 1]], "orders": [5, 5]},
            "d": 2,
        },
        ["riesz_report.json", "riesz_density.csv", "riesz_fourier.csv"],
        False,
    ),
    (
        {
            "command": "sidon",
            "system": {"rademacher": {"count": 5}},
            "d": 2,
            "chaos": "tetrahedral",
            "trials": 3,
            "seed": 42,
        },
        ["sidon.json", "sidon.csv"],
        False,
    ),
    (
        # the grid runs past |G| = 16, so sequences resample points
        dict(_SCAN_CONFIG, m_grid=[6, 12, 36]),
        ["discretize.json", "discretize.csv", "discretize.svg"],
        True,
    ),
]


@pytest.mark.parametrize("config,artifacts,svg", DETERMINISM_CONFIGS)
def test_cli_byte_determinism(tmp_path, config, artifacts, svg):
    cfg = _write_config(tmp_path, config)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    argv1 = ["--config", str(cfg), "--out", str(out1)] + (["--svg"] if svg else [])
    argv2 = ["--config", str(cfg), "--out", str(out2)] + (["--svg"] if svg else [])
    assert main(argv1) == 0
    assert main(argv2) == 0
    for name in artifacts:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_main_twice_in_one_process_writes_what_two_fresh_interpreters_write(tmp_path):
    import os
    import subprocess
    import sys

    import lacuna

    cfg = _write_config(tmp_path, _SCAN_CONFIG)
    extras = [["--svg", "--seed", "5"], []]
    for i, extra in enumerate(extras):
        assert main(["--config", str(cfg), "--out", str(tmp_path / f"here{i}"), *extra]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(lacuna.__file__).parent.parent)}
    code = "import sys; from lacuna.cli import main; sys.exit(main(sys.argv[1:]))"
    for i, extra in enumerate(extras):
        argv = ["--config", str(cfg), "--out", str(tmp_path / f"fresh{i}"), *extra]
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=120)
        assert done.returncode == 0
    for i in range(2):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        names = sorted(path.name for path in here.iterdir())
        assert names == sorted(path.name for path in fresh.iterdir())
        assert ("discretize.svg" in names) == (i == 0)
        for name in names:
            assert (here / name).read_bytes() == (fresh / name).read_bytes()
    # a missing --config still exits through argparse, on every call
    for _ in range(2):
        with pytest.raises(SystemExit) as exited:
            main(["--out", str(tmp_path)])
        assert exited.value.code == 2


# base-2 hosts, whose value matrices are real, so that every product of the
# ascent and the scan is a real BLAS call; a complex host's khinchin bytes
# may still move with the thread count
BLAS_THREAD_CONFIGS = {
    "khinchin": (
        {
            "command": "khinchin",
            "system": {"rademacher": {"count": 8}},
            "d": 2,
            "chaos": "tetrahedral",
            "q": 4,
            "trials": 4,
            "seed": 5,
        },
        ["khinchin.json", "khinchin.csv"],
    ),
    "discretize-scan": (
        {
            "command": "discretize-scan",
            "system": {"rademacher": {"count": 10}},
            "d": 2,
            "chaos": "tetrahedral",
            "q": 4,
            "m_grid": [45, 90, 2025, 4050],
            "trials": 2,
            "seed": 5,
        },
        ["discretize.json", "discretize.csv"],
    ),
}


@pytest.mark.parametrize("command", sorted(BLAS_THREAD_CONFIGS))
def test_real_hosts_write_the_same_bytes_at_every_blas_thread_count(tmp_path, command):
    import os
    import subprocess
    import sys

    import lacuna

    config, artifacts = BLAS_THREAD_CONFIGS[command]
    cfg = _write_config(tmp_path, config)
    code = "import sys; from lacuna.cli import main; sys.exit(main(sys.argv[1:]))"
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(lacuna.__file__).parent.parent),
            "OPENBLAS_NUM_THREADS": threads,
        }
        argv = ["--config", str(cfg), "--out", str(tmp_path / threads)]
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=120)
        assert done.returncode == 0
    for name in artifacts:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_extract_verify_peak_on_a_dense_host(tmp_path):
    # rademacher(7, base=5) at d = 2 reaches all 78125 characters, so each
    # part's (Y, |G|) block of rows is Y dense tables
    config = {
        "command": "extract-verify",
        "system": {"rademacher": {"count": 7, "base": 5}},
        "d": 2,
        "trials": 1,
        "y_samples": 10,
    }
    assert run(config, out_dir=tmp_path / "warm") == 0
    tracemalloc.start()
    try:
        assert run(config, out_dir=tmp_path / "out") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block and its moduli (Y / 2) beside four tables read 20.0, and
    # holding the last part's block through the next part's walk 35.6; with
    # the moduli taken a row at a time the rho_y walk beside the extracted
    # rows and the target peaks, at 18.1
    assert peak < 19 * 16 * 78125


def test_cli_trials_start_no_thread(tmp_path, monkeypatch):
    import threading

    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    # a set LACUNA_THREADS must not start a worker pool
    monkeypatch.setenv("LACUNA_THREADS", "4")
    for config in (DETERMINISM_CONFIGS[0][0], _SCAN_CONFIG):
        cfg = _write_config(tmp_path, config)
        assert main(["--config", str(cfg), "--out", str(tmp_path / config["command"])]) == 0
    assert started == []
