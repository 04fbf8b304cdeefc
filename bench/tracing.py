"""Spans and counters recorded from outside lacuna.

``Tracer.install`` replaces the public functions of every lacuna module
(plus a few private ones that mark work worth counting) with timing
wrappers, at every import site: ``fourier`` is bound by name in ``riesz``
and ``cli`` as well as in ``groups``, so patching one module alone would miss
calls.  ``Tracer.restore`` puts every original back.

A span is (id, parent, name, start, end, op, thread).  Parents follow the
call stack of each thread; trials that ``parallel.map_indexed`` runs on
worker threads get the map's span as their parent.  Spans stay in memory
and are written as JSONL once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

PACKAGE = "lacuna"
LAYERS = ("cli", "groups", "dissociation", "chaos", "riesz", "analysis", "discretize", "parallel")

# private functions wrapped as well, because they mark work the metrics count
_PRIVATE = {
    "analysis": ("_grad_lq_q_matrix",),
    "discretize": ("_evaluate_with_probes",),
    "cli": ("_write_json", "_write_csv"),
}
_METHODS = {"chaos": (("ChaosPolynomial", "values"),)}

_TRANSFORMS = ("groups.fourier", "groups.inverse_fourier")
_EXTRACTS = ("riesz.extract_homogeneous", "riesz.extract_homogeneous_modulated")
_CHECKS = ("dissociation.is_d_dissociated",)

# per-layer metrics derived from the spans of other functions, and those functions
_DERIVED = {
    "groups.transform.naive_calls": _TRANSFORMS,
    "groups.transform.fft_calls": _TRANSFORMS,
    "groups.transform.points": _TRANSFORMS,
    "groups.transform.cmacs_computed": _TRANSFORMS,
    "riesz.transforms_per_extract": _TRANSFORMS + _EXTRACTS,
    "dissociation.tuples_computed": _CHECKS,
    "dissociation.unique_ratio": _CHECKS,
    "analysis.ascent_steps": ("analysis._grad_lq_q_matrix",),
    "discretize.probe_evals": ("discretize._evaluate_with_probes",),
    "discretize.probe_evals.self_s": ("discretize._evaluate_with_probes",),
    "parallel.trials": ("parallel.map_indexed",),
    "parallel.trial_busy_s": ("parallel.map_indexed",),
    "parallel.efficiency": ("parallel.map_indexed",),
    "cli.write.self_s": ("cli._write_json", "cli._write_csv"),
}
# per-layer metrics the harness measures itself
HARNESS_METRICS = ("cli.artifact_bytes", "trace.ops", "trace.spans", "trace.untraced_s", "trace.overhead_s")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int | None
    thread: int


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    result = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for child in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s.id] = (s.end - s.start) - covered
    return result


def _transform_path(groups_module, args, kwargs) -> tuple[int, str, float]:
    """(|G|, "naive" or "fft", complex multiply-adds) for one transform call."""
    group = args[0].group
    method = kwargs.get("method", args[1] if len(args) > 1 else "auto")
    cutoff = groups_module.NAIVE_TRANSFORM_CUTOFF
    naive = method == "naive" or (method == "auto" and group.size <= cutoff)
    if naive:
        return group.size, "naive", float(group.size) ** 2
    return group.size, "fft", group.size * sum(math.log2(m) for m in group.orders)


def _check_key(args, kwargs):
    system = args[0]
    d = kwargs.get("d", args[1] if len(args) > 1 else None)
    exps = tuple(chi.exponents for chi in system.characters)
    return (system.group.orders, exps, d), len(exps), d


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._checks_by_op: dict[int | None, list] = defaultdict(list)
        self._maps: list[tuple[int, int]] = []  # (map span id, workers used)
        # counters are also bumped from trial threads
        self._lock = threading.Lock()

    # -- call stack -------------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, parent: int | None = None) -> tuple[int, int | None]:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        sid = next(self._ids)
        stack.append((sid, name))
        return sid, parent

    def _leave(self, sid: int, parent: int | None, name: str, start: float, end: float, op):
        self._stack().pop()
        self.spans.append(Span(sid, parent, name, start, end, op, threading.get_ident()))

    # -- wrappers ---------------------------------------------------------------------

    def _count(self, name: str, args, kwargs, ok: bool):
        with self._lock:
            self._count_locked(name, args, kwargs, ok)

    def _count_locked(self, name: str, args, kwargs, ok: bool):
        if name in _TRANSFORMS:
            size, path, cmacs = _transform_path(sys.modules[f"{PACKAGE}.groups"], args, kwargs)
            self.counters[f"groups.transform.{path}_calls"] += 1
            self.counters["groups.transform.points"] += size
            self.counters["groups.transform.cmacs_computed"] += cmacs
            if any(n in _EXTRACTS for _, n in self._stack()):
                self.counters["riesz.transforms_in_extract"] += 1
        elif name in _CHECKS:
            key, m, d = _check_key(args, kwargs)
            self._checks_by_op[self.op].append(key)
            if ok:
                self.counters["dissociation.tuples_computed"] += (2 * d + 1) ** m

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            sid, parent = tracer._enter(name)
            if name == "parallel.map_indexed":
                args, kwargs = tracer._adapt_map(sid, op, args, kwargs)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                tracer._leave(sid, parent, name, start, end, op)
                tracer._count(name, args, kwargs, ok)

        return traced

    def _adapt_map(self, map_sid: int, op, args, kwargs):
        """Give each trial its own span, parented to the map's span across threads."""
        fn, count = args[0], args[1]
        workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
        self._maps.append((map_sid, min(workers, count) if workers > 1 and count > 1 else 1))
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.trial"

        def trial(i):
            sid, parent = self._enter(name, parent=map_sid)
            start = perf_counter()
            try:
                return fn(i)
            finally:
                self._leave(sid, parent, name, start, perf_counter(), op)
                with self._lock:
                    self.counters["parallel.trials"] += 1

        return (trial, *args[1:]), kwargs

    def _targets(self):
        """(function, span name) per function to wrap; (class, method, function, span name) per method."""
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in _PRIVATE.get(layer, ()):
                    continue
                yield fn, f"{layer}.{attr}"
            for cls_name, method in _METHODS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                if inspect.isfunction(getattr(cls, method, None)):
                    yield cls, method, getattr(cls, method), f"{layer}.{cls_name}.{method}"

    def missing(self, metric_names) -> list[str]:
        """What the metrics need that this lacuna lacks.

        A metric of a function that is gone would read 0 and look like an
        improvement, so the run must fail instead.
        """
        wrapped = {target[-1] for target in self._targets()}
        needed = {f"{layer}.{fn}" for layer, fns in _PRIVATE.items() for fn in fns}
        needed |= {f"{layer}.{cls}.{m}" for layer, methods in _METHODS.items() for cls, m in methods}
        for name in metric_names:
            layer, _, rest = name.partition(".")
            if name in HARNESS_METRICS or (rest == "layer.self_s" and layer in LAYERS):
                continue
            base, _, kind = name.rpartition(".")
            if name in _DERIVED:
                needed.update(_DERIVED[name])
            elif kind in ("calls", "self_s"):
                needed.add(base)
            else:
                needed.add(name)
        absent = sorted(needed - wrapped)
        if not hasattr(sys.modules[f"{PACKAGE}.groups"], "NAIVE_TRANSFORM_CUTOFF"):
            absent.append("groups.NAIVE_TRANSFORM_CUTOFF")
        return absent

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for target in self._targets():
            if len(target) == 4:
                cls, method, fn, name = target
                self._patches.append((cls, method, fn))
                setattr(cls, method, self._wrap(name, fn))
            else:
                fn, name = target
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        # rebind every import site of a wrapped function, in every lacuna module
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ----------------------------------------------------------------------

    def write_jsonl(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per wrapped name, per layer, and the derived counts."""
        own = self_times(self.spans)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        durations = {}
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += own[s.id]
            self_s[s.name.split(".", 1)[0] + ".layer"] += own[s.id]
            durations[s.id] = s.end - s.start
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
        for name, value in self_s.items():
            out[f"{name}.self_s"] = value
        out.update(self.counters)
        extracts = sum(calls[n] for n in _EXTRACTS)
        out["riesz.transforms_per_extract"] = (
            self.counters["riesz.transforms_in_extract"] / extracts if extracts else 0.0
        )
        checks = [keys for keys in self._checks_by_op.values() if keys]
        total = sum(len(keys) for keys in checks)
        out["dissociation.unique_ratio"] = (
            sum(len(set(keys)) for keys in checks) / total if total else 1.0
        )
        busy = sum(durations[s.id] for s in self.spans if s.name.endswith(".trial"))
        capacity = sum(durations[sid] * workers for sid, workers in self._maps)
        out["parallel.trial_busy_s"] = busy
        out["parallel.efficiency"] = busy / capacity if capacity else 0.0
        out["analysis.ascent_steps"] = calls["analysis._grad_lq_q_matrix"]
        out["discretize.probe_evals"] = calls["discretize._evaluate_with_probes"]
        out["discretize.probe_evals.self_s"] = self_s["discretize._evaluate_with_probes"]
        out["cli.write.self_s"] = self_s["cli._write_json"] + self_s["cli._write_csv"]
        return out
