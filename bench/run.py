"""lacuna benchmark: closed-loop CLI workloads, checked outputs, optional trace.

Usage (from the repository root):

    python3 bench/run.py --workload extract --seed 1 --seconds 55 --trace 0

Each op is one in-process ``lacuna.cli.main(["--config", ..., "--out", ...])``
call on a config generated from ``--seed``; the next op starts when the
previous one returns.  Every op gets a fresh, empty output directory and is
checked after it returns (see checks.py).  ``--trace 0`` measures for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs a fixed
list of ops untraced, then the same list traced, and reports per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Seconds between set-up samples.  The machine's speed drifts over seconds,
# so set-up is sampled through the whole run, like the ops; setup_s adds
# the medians of the samples' import and set-up times.
SETUP_EVERY_S = 5.0
# schedule cycles whose configs set-up writes; later ones are written as the
# run reaches them, between ops and outside the timer
SETUP_CYCLES = 2

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_margin_digits": "digits",
    "objective_gmean": "1",
}


def _pin_environment(threads: int):
    # BLAS threads change both timings and the last bits of results
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["LACUNA_THREADS"] = str(threads)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(numpy) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lacuna").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {
            var: os.environ[var]
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LACUNA_THREADS")
        },
    }


def _import_seconds() -> float:
    """Time to import numpy and lacuna in a fresh interpreter with the pinned environment."""
    code = "import time; t = time.perf_counter(); import numpy, lacuna.cli; print(time.perf_counter() - t)"
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout)


class Runner:
    """Runs ops of one workload in a private work directory."""

    def __init__(self, cli, checks, workdir: Path):
        self.cli = cli
        self.checks = checks
        self.workdir = workdir
        self.count = 0

    def write_configs(self, ops, folder: str = "configs", start: int = 0) -> list[Path]:
        folder = self.workdir / folder
        folder.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, op in enumerate(ops, start):
            path = folder / f"{i:05d}.json"
            path.write_text(json.dumps(op.config))
            paths.append(path)
        return paths

    def run(self, op, config: Path):
        """One op in a fresh output directory: (latency, verdict, artifact bytes)."""
        out = self.workdir / "ops" / str(self.count)
        self.count += 1
        out.mkdir(parents=True)
        argv = ["--config", str(config), "--out", str(out)]
        rc = error = None
        start = perf_counter()
        try:
            # looked up on every call, so a traced run reaches the wrapped main
            rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a raw exception is a failed op
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        latency = perf_counter() - start
        verdict = self.checks.check_op(op, rc, error, out)
        size = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        return latency, verdict, size


class Pool:
    """The workload's op stream with its configs on disk, one schedule cycle at a time."""

    def __init__(self, runner: Runner, stream, cycle: int, folder: str):
        self.runner = runner
        self.stream = stream
        self.cycle = cycle
        self.folder = folder
        self.ops: list = []
        self.configs: list[Path] = []

    def extend(self):
        ops = list(itertools.islice(self.stream, self.cycle))
        self.configs += self.runner.write_configs(ops, self.folder, len(self.ops))
        self.ops += ops

    def __getitem__(self, i: int):
        while i >= len(self.ops):
            self.extend()
        return self.ops[i], self.configs[i]


class SetUp(NamedTuple):
    import_s: float
    set_up_s: float
    pool: Pool
    verdicts: list


def _set_up(runner, name: str, seed: int, attempt: int) -> SetUp:
    """Import lacuna afresh, write the first cycles' configs and run the warm-up ops."""
    import_s = _import_seconds()
    start = perf_counter()
    pool = Pool(runner, workloads.stream(name, seed), workloads.WORKLOADS[name].cycle, f"configs{attempt}")
    for _ in range(SETUP_CYCLES):
        pool.extend()
    warm = workloads.warmup_ops(name)
    verdicts = [runner.run(op, c)[1] for op, c in zip(warm, runner.write_configs(warm, f"warm-up{attempt}"))]
    return SetUp(import_s, perf_counter() - start, pool, verdicts)


def _cycles(records, cycle: int) -> list[list]:
    """Consecutive complete passes through the schedule; all records if there is none."""
    blocks = [records[i : i + cycle] for i in range(0, len(records) - cycle + 1, cycle)]
    return blocks or [records]


def _end_to_end(records, cycle: int, setup_s: float, rss_before_mb: float, metrics) -> tuple[dict, dict]:
    blocks = _cycles(records, cycle)
    # timings over complete cycles only, so that every run times the same mix
    latencies = [r[0] for b in blocks for r in b]
    tail, pct, beyond = metrics.tail_latency(latencies)
    margins = []
    for block in blocks:
        judged = [r[1] for r in block if r[1].ok and r[1].residual is not None]
        if judged:
            margins.append(min(metrics.margin_digits(v.residual, v.tolerance) for v in judged))
    constants = [r[1].constant for r in records if r[1].ok and r[1].constant is not None]
    failed = sum(not r[1].ok for r in records)
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # median over cycles of each cycle's worst residual
        "residual_margin_digits": statistics.median(margins) if margins else math.nan,
        # the geometric mean over no constants is 1
        "objective_gmean": math.exp(statistics.fmean(map(math.log, constants))) if constants else 1.0,
    }
    notes = {
        "fail_ratio": failed / len(records),
        # ru_maxrss when the first timed op started: interpreter, numpy, lacuna and harness
        "rss_before_ops_mb": rss_before_mb,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "samples": len(latencies),
        "cycles": len(blocks),
        "ops": len(records),
        "timed_s": sum(r[0] for r in records),
    }
    return values, notes


def _mix(done, cutoff: int) -> dict:
    """Input properties of the ops a run made, overall and per schedule class."""
    transforming = [op for op in done if op.transforms]
    naive = sum(op.group_size <= cutoff for op in transforming)
    mix = {
        "naive_share": naive / len(transforming) if transforming else 0.0,
        "group_size_min": min(op.group_size for op in done),
        "group_size_max": max(op.group_size for op in done),
    }
    slots = {}
    for op in done:
        slots.setdefault(op.slot, []).append(op)
    for slot, ops in [("all", done), *sorted(slots.items())]:
        # an op repeats if an earlier op of the run had its system, or its group
        mix[f"repeat_share.system.{slot}"] = 1 - len({op.system_key for op in ops}) / len(ops)
        mix[f"repeat_share.group.{slot}"] = 1 - len({op.orders for op in ops}) / len(ops)
    return mix


def _print_report(title: str, values: dict, units: dict):
    print(title)
    for name, value in values.items():
        print(f"  {name:40s} {value:.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if not (SRC / "lacuna" / "__init__.py").is_file():
        print(f"error: no lacuna sources under {SRC}", file=sys.stderr)
        return 2
    # must happen before numpy is imported
    _pin_environment(workload.threads)
    sys.path.insert(0, str(SRC))
    import numpy

    import lacuna.cli

    imported = perf_counter() - started
    import checks
    import metrics
    import tracing

    env = _environment(numpy)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(lacuna.cli, checks, workdir)
    try:
        setups = [_set_up(runner, args.workload, args.seed, 0)]
        print(f"import here: {imported:.4f} s")
        if args.trace:
            result = _traced(runner, workload, setups[0].pool, args, tracing)
        else:
            result = _measured(runner, workload, setups, args, metrics)
        # the warm-up ops are attempted too
        for verdict in (v for setup in setups for v in setup.verdicts):
            result["attempted"] += 1
            if not verdict.ok:
                result["correct"] = False
                result["failed"] += 1
                print(f"  warm-up failed: {verdict.reason}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measured(runner, workload, setups, args, metrics) -> dict:
    """Closed loop for ``--seconds``, with set-up samples in between; report the end-to-end metrics."""
    rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pool = setups[0].pool
    records = []
    start = perf_counter()
    deadline = start + args.seconds
    while perf_counter() < deadline:
        if perf_counter() >= start + SETUP_EVERY_S * len(setups):
            setups.append(_set_up(runner, args.workload, args.seed, len(setups)))
        records.append(runner.run(*pool[len(records)]))
    setup_s = statistics.median(s.import_s for s in setups) + statistics.median(s.set_up_s for s in setups)
    print(
        f"setup: {len(setups)} samples, import "
        + ", ".join(f"{s.import_s:.4f}" for s in setups)
        + " s; set-up "
        + ", ".join(f"{s.set_up_s:.4f}" for s in setups)
        + " s"
    )
    values, notes = _end_to_end(records, workload.cycle, setup_s, rss_before_mb, metrics)
    notes.update(_mix(pool.ops[: len(records)], workloads.NAIVE_CUTOFF))
    reasons = [r[1].reason for r in records if not r[1].ok]
    _print_report(
        f"workload {args.workload} seed {args.seed}: {len(records)} ops, {len(reasons)} failed",
        {**values, **notes},
        {**END_TO_END_UNITS, "fail_ratio": "1", "timed_s": "s", "op_tail_percentile": "%", "rss_before_ops_mb": "MB"},
    )
    for reason in reasons[:5]:
        print(f"  failure: {reason}")
    return {
        "correct": not reasons and all(math.isfinite(v) for v in values.values()),
        "attempted": len(records),
        "failed": len(reasons),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()},
    }


def _traced(runner, workload, pool, args, tracing) -> dict:
    """Run each op of the workload's fixed list untraced and traced; report per-layer metrics."""
    tracer = tracing.Tracer()
    names = per_layer_names()
    absent = tracer.missing([name for name, _ in names])
    for name in absent:
        print(f"  missing from lacuna: {name}")
    plain, traced = [], []
    artifact_bytes = 0
    start = perf_counter()
    for i in range(workload.trace_ops):
        op, config = pool[i]
        # alternate which run of the pair goes first, so warm caches favour neither
        for with_trace in (i % 2 == 1, i % 2 == 0):
            if with_trace:
                tracer.op = i
                with tracer:
                    record = runner.run(op, config)
                traced.append(record)
                artifact_bytes += record[2]
            else:
                plain.append(runner.run(op, config))
        # a slow program gets fewer ops rather than a longer run
        if perf_counter() - start > args.seconds:
            break
    tracer.op = None
    n = len(traced)
    untraced_s = sum(r[0] for r in plain)

    spans_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    layer = tracer.layer_metrics()
    layer["cli.artifact_bytes"] = artifact_bytes
    layer["trace.ops"] = n
    layer["trace.spans"] = len(tracer.spans)
    layer["trace.untraced_s"] = untraced_s
    layer["trace.overhead_s"] = sum(r[0] for r in traced) - untraced_s

    # a function that is wrapped but never called reads 0
    values = {name: float(layer.get(name, 0.0)) for name, _ in names}
    _print_report(
        f"workload {args.workload} seed {args.seed}: {n} ops traced, spans in {spans_path}",
        values,
        dict(names),
    )
    failed = sum(not r[1].ok for r in plain + traced)
    return {
        "correct": failed == 0 and not absent,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
