"""Fuzz the CLI with near-valid configs: typed refusals only, strict JSON out."""

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.cli import _COMMANDS, _SHARED, _SYSTEMS, main

_BASE_CONFIGS = [
    {"command": "check-dissociated", "system": {"rademacher": {"count": 3}}, "d": 2},
    {
        "command": "check-dissociated",
        "system": {"hadamard": {"ratio": 3, "count": 3, "modulus": 1000, "d": 2}},
        "d": 2,
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
    # refused for size, C(1003, 3) terms or 2^25 probes, until a mutation shrinks d or probes
    {"command": "khinchin", "system": {"rademacher": {"count": 4}}, "d": 1000, "trials": 1},
    {"command": "sidon", "system": {"rademacher": {"count": 4}}, "d": 1000, "trials": 1},
    {
        "command": "discretize-scan",
        "system": {"rademacher": {"count": 4}},
        "d": 2,
        "trials": 1,
        "m_grid": [4],
        "probes": 2**25,
    },
]

# small sizes only: ints <= 12, lists <= 4
_ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(-12, 12)
    | st.text(max_size=4)
    | st.sampled_from(["polynomial", "tetrahedral"]),
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
        # the fields the target may hold, so that a mutated config still reaches execution
        target, fields = config, {**_SHARED, **_COMMANDS[config["command"]]}
        system = config.get("system")
        if isinstance(system, dict) and draw(st.booleans()):
            target, fields = system, {}
            kind = next(iter(system), None)
            if kind in _SYSTEMS and isinstance(system[kind], dict) and draw(st.booleans()):
                target, fields = system[kind], _SYSTEMS[kind][1]
        keys = sorted((set(target) | set(fields)) - {"command"})
        if keys:
            key = draw(st.sampled_from(keys))
            # a field's own default now and then: a valid value of its own type
            default = fields.get(key, (None, None))[1]
            valid = st.just(default) if default not in (None, ...) else st.nothing()
            target[key] = draw(_SMALL_JSON | valid)
    return config


@contextlib.contextmanager
def _counting_calls(attr):
    """Wrap ``attr`` at every lacuna import site; yields the list of its calls."""
    calls, sites = [], []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lacuna" and hasattr(module, attr):
            sites.append((module, getattr(module, attr)))

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapper

    for module, fn in sites:
        setattr(module, attr, counted(fn))
    try:
        yield calls
    finally:
        for module, fn in sites:
            setattr(module, attr, fn)


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(config=_near_valid_configs())
def test_cli_refuses_bad_configs_with_exit_codes_only(config):
    with tempfile.TemporaryDirectory() as tmp, _counting_calls("_character_tables") as calls:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        # a size refused by a limit is refused before any value table is built
        if "SizeLimitExceeded" in err.getvalue():
            assert not calls, "a value table was built before a SizeLimitExceeded refusal"
        for artifact in out.glob("*.json"):
            json.loads(artifact.read_text(), parse_constant=_reject_constant)
