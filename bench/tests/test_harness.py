"""Tests for the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import lacuna  # noqa: E402
import lacuna.cli  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402


def _bindings() -> dict:
    """Every function-valued attribute of every lacuna module, by (module, name)."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "lacuna" or name.startswith("lacuna.")):
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    found[(name, attr)] = value
    found[("ChaosPolynomial", "values")] = lacuna.ChaosPolynomial.values
    return found


def _small_ops() -> list[workloads.Op]:
    rng = random.Random(7)
    orders, exponents = workloads._staircase(rng, 40, 60, 1, 2)
    spec = {"exponents": [list(e) for e in exponents], "orders": list(orders)}
    extract = workloads.Op(
        "extract-verify",
        {"command": "extract-verify", "system": spec, "d": 1, "trials": 1, "y_samples": 2, "seed": 3},
        0, orders, exponents, True, "small",
    )
    khinchin = workloads.Op(
        "khinchin",
        {"command": "khinchin", "system": {"rademacher": {"count": 4}}, "d": 2,
         "chaos": "tetrahedral", "q": 4, "trials": 4, "seed": 5, "kappa_model": 10.0},
        0, (2,) * 4, tuple(tuple(int(i == j) for j in range(4)) for i in range(4)), False, "m=4",
    )
    return [extract, khinchin]


def _artifacts(runner: Runner, op, config) -> dict[str, bytes]:
    out = runner.workdir / "kept"
    out.mkdir(parents=True)
    assert runner.cli.main(["--config", str(config), "--out", str(out)]) == op.expected_rc
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    for p in out.iterdir():
        p.unlink()
    out.rmdir()
    return files


def test_traced_ops_match_untraced_and_wrappers_are_restored(tmp_path, monkeypatch):
    monkeypatch.setenv("LACUNA_THREADS", "2")
    runner = Runner(lacuna.cli, checks, tmp_path)
    ops = _small_ops()
    configs = runner.write_configs(ops)
    before = _bindings()
    plain = [_artifacts(runner, op, c) for op, c in zip(ops, configs)]

    tracer = tracing.Tracer()
    with tracer:
        # wrapped at every import site, not only where the function is defined
        assert lacuna.riesz.fourier is not before[("lacuna.groups", "fourier")]
        assert lacuna.cli.fourier is lacuna.groups.fourier
        traced = []
        for i, (op, c) in enumerate(zip(ops, configs)):
            tracer.op = i
            traced.append(_artifacts(runner, op, c))

    assert traced == plain
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "groups.fourier", "analysis.trial", "dissociation.is_d_dissociated"} <= names
    by_id = {s.id: s for s in tracer.spans}
    for span in tracer.spans:
        # every span chains up to the op's cli.main, across trial threads too
        top = span
        while top.parent is not None:
            top = by_id[top.parent]
        assert top.name == "cli.main" and top.op == span.op
    layer = tracer.layer_metrics()
    assert layer["parallel.trials"] == 4
    assert layer["groups.transform.naive_calls"] > 0


def test_checks_accept_every_small_op(tmp_path):
    runner = Runner(lacuna.cli, checks, tmp_path)
    ops = _small_ops()
    for op, config in zip(ops, runner.write_configs(ops)):
        _, verdict, size = runner.run(op, config)
        assert verdict.ok, verdict.reason
        assert size > 0


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(1, None, "root", 0.0, 10.0, 0, 1),
        S(2, 1, "a", 1.0, 3.0, 0, 1),
        S(3, 1, "b", 2.0, 5.0, 0, 2),  # overlaps a, as trials on two threads do
        S(4, 1, "c", 8.0, 12.0, 0, 2),  # runs past its parent's end
        S(5, 2, "a.child", 1.5, 2.0, 0, 1),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(1.5)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "n, value, percentile, beyond",
    [
        (200, 190, 95.0, 10),
        (1000, 990, 99.0, 10),
        (21, 11, 100 * 11 / 21, 10),
        (20, 10, 50.0, 10),
        (7, 4, 50.0, 3),
    ],
)
def test_tail_latency_keeps_ten_samples_beyond(n, value, percentile, beyond):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    assert metrics.tail_latency(samples) == (value, pytest.approx(percentile), beyond)


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        first = [op.config for op in workloads.generate(name, 11, 40)]
        assert first == [op.config for op in workloads.generate(name, 11, 40)]
        assert first != [op.config for op in workloads.generate(name, 12, 40)]


def test_strict_json_rejects_nan(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"x": float("nan")}))
    with pytest.raises(checks.CheckFailed):
        checks.strict_json(bad)


@pytest.mark.parametrize("build", [workloads._dilated_lacunary, workloads._staircase])
@pytest.mark.parametrize("band, d", [((121, 169), 1), ((480, 512), 2), ((960, 1024), 1)])
def test_extract_systems_are_nondegenerate(build, band, d):
    """Every order exceeds 2d and no relation with coefficients in [-2d, 2d] holds."""
    rng = random.Random(f"{build.__name__}{band}{d}")
    for _ in range(20):
        orders, exponents = build(rng, *band, d, 2)
        assert band[0] <= math.prod(orders) <= band[1]
        for e in exponents:
            order = math.lcm(*(m // math.gcd(x, m) for x, m in zip(e, orders)))
            assert order > 2 * d
        for coeffs in itertools.product(range(-2 * d, 2 * d + 1), repeat=len(exponents)):
            if any(coeffs):
                assert any(
                    sum(k * e[i] for k, e in zip(coeffs, exponents)) % m
                    for i, m in enumerate(orders)
                )


def test_missing_functions_fail_the_traced_run(monkeypatch):
    tracer = tracing.Tracer()
    names = [m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]
    assert tracer.missing(names) == []
    assert tracer.missing(["groups.no_such_function.calls"]) == ["groups.no_such_function"]
    monkeypatch.delattr(lacuna.discretize, "_evaluate_with_probes")
    monkeypatch.delattr(lacuna.groups, "convolve")
    absent = tracing.Tracer().missing(names)
    assert "discretize._evaluate_with_probes" in absent
    assert "groups.convolve" in absent
