"""Fuzz the CLI with near-valid configs: typed refusals only, strict JSON out."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.cli import main

_BASE_CONFIGS = [
    {"command": "check-dissociated", "system": {"rademacher": {"count": 3}}, "d": 2},
    {
        "command": "check-dissociated",
        "system": {"hadamard": {"ratio": 3, "count": 3, "modulus": 1000, "d": 2}},
        "d": 2,
        "method": "mitm",
    },
    {"command": "riesz-report", "system": {"exponents": [[1, 0], [0, 1]], "orders": [9, 9]}, "d": 1},
    {"command": "nu-solve", "d": 2},
    {
        "command": "extract-verify",
        "system": {"vc_staircase": {"base": 7, "position_sets": [[0], [1]]}},
        "d": 2,
        "trials": 1,
        "y_samples": 2,
    },
    {"command": "khinchin", "system": {"rademacher": {"count": 4}}, "d": 2, "trials": 2, "q": 4},
    {"command": "sidon", "system": {"rademacher": {"count": 4}}, "d": 2, "trials": 2},
    {
        "command": "discretize-scan",
        "system": {"rademacher": {"count": 4}},
        "d": 2,
        "trials": 2,
        "m_grid": [4, 8],
        "probes": 4,
    },
]

# optional fields a config may carry, beside the ones the base configs set
_OPTIONAL = [
    "seed", "q", "p", "s", "chaos", "method", "probes", "expectation_mode",
    "check_dissociated", "kappa_model", "c_model",
]

# small sizes only: ints <= 12, lists <= 4
_ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(-12, 12)
    | st.text(max_size=4)
    | st.sampled_from(["polynomial", "tetrahedral", "direct", "mitm", "auto"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# plain small integers half the time, so that many configs stay valid and run
_SMALL_JSON = st.one_of(st.integers(0, 12), _ANY_JSON)


@st.composite
def _near_valid_configs(draw):
    config = copy.deepcopy(draw(st.sampled_from(_BASE_CONFIGS)))
    for _ in range(draw(st.integers(1, 2))):
        target, keys = config, sorted(set(config) - {"command"}) + _OPTIONAL
        system = config.get("system")
        if isinstance(system, dict) and draw(st.booleans()):
            target, keys = system, sorted(system)
            spec = next(iter(system.values()), None)
            if isinstance(spec, dict) and draw(st.booleans()):
                target, keys = spec, sorted(spec)
        if keys:
            target[draw(st.sampled_from(keys))] = draw(_SMALL_JSON)
    return config


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(config=_near_valid_configs())
def test_cli_refuses_bad_configs_with_exit_codes_only(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        for artifact in out.glob("*.json"):
            json.loads(artifact.read_text(), parse_constant=_reject_constant)
