#!/usr/bin/env python3
"""nexusopt benchmark: four workloads through the public entry points.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload mlp_nexus --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced operations and prints the end-to-end metrics;
``--trace 1`` runs the same workload under the span tracer (perfbench/spans.py)
and prints the per-layer metrics. Either way the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --self-check

runs every workload once at small size, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted with its unit and that
tracing leaves the output digests unchanged.

Each workload is a closed loop: one operation at a time, in this process, and
the next starts when the previous one returns. Operations repeat until
``--seconds`` have passed (at least MIN_OPS of them).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASE_CONFIG = os.path.join("configs", "mlp_mechanism.cfg")
LAYER_MAP = os.path.join(HERE, "layer_map.json")
OUT = os.path.join(HERE, "out")

# Every workload runs with one BLAS thread: mlp_sweep already runs two sweep
# threads on a two-core machine, and one fixed value keeps workloads comparable.
BLAS_THREADS = "1"
SWEEP_THREADS = "2"
MIN_OPS = 2  # two operations give the repetition the digest check needs
SETUP_REPS = 9
SETUP_BRACKET_S = 0.05  # speed sampling around each fresh interpreter
HVP_PROBE_BATCHES, HVP_PROBE_CALLS = 5, 20
SMALL_STEPS = 10  # total_steps of the training workloads in --self-check

SWEEP_AXES = ["--set", "optimizer.kind=adamw,nexus_adamw", "--num-seeds", "2"]
SWEEP_RUNS = 4  # two optimizer kinds x two derived seeds
NEGATIVE_CONTROL = ["validate", "--suite", "second_order", "--gamma", "10"]

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the nexusopt subcommand: run, sweep or validate
    overrides: tuple = ()  # (key, JSON literal) replaced in mlp_mechanism.cfg
    # wall_s in calibrated seconds (speed.py), or in raw seconds: a sweep's
    # long operations are timed raw, since samples taken only around them
    # tracked the machine's speed worse than raw wall time does
    calibrate: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mlp_nexus", "run"),
        Workload("mlp_emit", "run", (("optimizer.kind", '"nsgd_adamw"'), ("metric_cadence", "1"))),
        Workload("theory_validate", "validate"),
        # half the shipped total_steps, so that a 20 s run holds three sweeps
        Workload("mlp_sweep", "sweep", (("total_steps", "200"),), calibrate=False),
    )
}


@dataclass
class Op:
    """One operation: its wall time, the gate verdict and what it wrote."""

    wall_s: float
    calibrated_s: float | None = None  # untraced runs only; see speed.py
    error: str | None = None
    digest: str | None = None
    steps: int = 0
    run_dirs: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    layers: dict | None = None
    largest_child: str = "-"


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    digest: str | None
    lines: list
    ops: list

    def to_json(self) -> str:
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": self.metrics})


# --------------------------------------------------------------------------
# Inputs


def workload_config(workload: Workload, work: str, small: bool) -> str:
    """Path of the config the workload runs: mlp_mechanism.cfg as shipped, or
    a copy in ``work`` with the workload's keys replaced."""
    overrides = dict(workload.overrides)
    if small:
        overrides["total_steps"] = str(SMALL_STEPS)
    if not overrides:
        return BASE_CONFIG
    lines, seen = [], set()
    with open(BASE_CONFIG, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            key = line.split("#", 1)[0].partition("=")[0].strip()
            if key in overrides:
                line = f"{key} = {overrides[key]}"
                seen.add(key)
            lines.append(line)
    lines += [f"{key} = {value}" for key, value in overrides.items() if key not in seen]
    path = os.path.join(work, f"{workload.name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def op_argv(workload: Workload, config: str, out: str, seed: int) -> list:
    if workload.command == "validate":
        return ["validate", "--suite", "all", "--out", os.path.join(out, "report.json")]
    argv = [workload.command, "--config", config, "--out", out, "--seed", str(seed)]
    return argv + SWEEP_AXES if workload.command == "sweep" else argv


# --------------------------------------------------------------------------
# Correctness gate


def expected_rows(total_steps: int, cadence: int) -> int:
    """Rows train() emits: step 0, every cadence-th step and the last step."""
    if total_steps == 0:
        return 0
    return 1 + sum(1 for s in range(1, total_steps + 1) if s % cadence == 0 or s == total_steps)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run_dir(run_dir: str, total_steps: int, cadence: int):
    """(error or None, metrics.csv digest, summary) of one run directory."""
    csv_path = os.path.join(run_dir, "metrics.csv")
    summary_path = os.path.join(run_dir, "summary.json")
    if not os.path.isfile(csv_path):
        return f"{run_dir}: metrics.csv missing", None, None
    if not os.path.isfile(summary_path):
        return f"{run_dir}: summary.json missing", None, None
    with open(csv_path, "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    want = expected_rows(total_steps, cadence)
    if len(rows) != want:
        return f"{run_dir}: metrics.csv has {len(rows)} rows, expected {want}", None, None
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    for key in ("train_loss", "ood_loss", "mean_pairwise_cos", "wall_clock"):
        value = summary.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{run_dir}: summary.json {key} is {value!r}", None, None
    first_loss = float(rows[0].split(",")[2])
    if not summary["train_loss"] < first_loss:
        return f"{run_dir}: train loss {summary['train_loss']} did not fall below {first_loss}", None, None
    return None, sha256_file(csv_path), summary


def check_op(workload: Workload, rc, out: str, total_steps: int, cadence: int, op: Op) -> None:
    """Fill op.error, op.digest, op.steps, op.run_dirs and op.summaries."""
    if rc != 0:
        op.error = f"exit {rc}"
        return
    if workload.command == "validate":
        path = os.path.join(out, "report.json")
        if not os.path.isfile(path):
            op.error = "report.json missing"
            return
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        failing = [c["check_name"] for c in report.get("checks", []) if c.get("status") != "pass"]
        if not report.get("all_passed") or failing or not report.get("checks"):
            op.error = f"validate checks failed: {failing}"
            return
        op.digest = sha256_file(path)
        return
    if workload.command == "sweep":
        index_path = os.path.join(out, "sweep.json")
        if not os.path.isfile(index_path):
            op.error = "sweep.json missing"
            return
        with open(index_path, "r", encoding="utf-8") as fh:
            labels = sorted(json.load(fh))
        if len(labels) != SWEEP_RUNS:
            op.error = f"sweep.json lists {len(labels)} runs, expected {SWEEP_RUNS}"
            return
    else:
        labels = [""]
    digest = hashlib.sha256()
    for label in labels:
        run_dir = os.path.join(out, label) if label else out
        error, csv_digest, summary = check_run_dir(run_dir, total_steps, cadence)
        if error:
            op.error = error
            return
        digest.update(f"{label}:{csv_digest}\n".encode())
        op.run_dirs.append(run_dir)
        op.summaries.append(summary)
    op.digest = digest.hexdigest()
    op.steps = total_steps * len(labels)


# --------------------------------------------------------------------------
# Operations


def call_cli(argv: list, env: dict, sampler=None):
    """Run ``nexusopt.cli.main(argv)`` in this process; (exit code, wall s, output).

    With a SpeedSampler, the machine speed is sampled just before and just
    after the call, and the sampler holds the call's own wall time.
    """
    from nexusopt import cli

    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured), \
                (sampler or contextlib.nullcontext()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed operation; the loop goes on
        rc = "crash"
        captured.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - start
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return rc, wall, captured.getvalue()


def run_op(workload, config, work, seed, total_steps, cadence, tracer=None, op_id=0, sampler=None) -> Op:
    out = os.path.join(work, "op")
    shutil.rmtree(out, ignore_errors=True)
    if workload.command == "validate":
        os.makedirs(out)
    env = {"NEXUS_OPT_THREADS": SWEEP_THREADS} if workload.command == "sweep" else {}
    argv = op_argv(workload, config, out, seed)
    root_span = tracer.begin_op(op_id) if tracer else None
    rc, wall, output = call_cli(argv, env, sampler)
    if tracer:
        tracer.end_op(root_span)
    op = Op(sampler.wall_s, sampler.calibrated_s) if sampler else Op(wall)
    check_op(workload, rc, out, total_steps, cadence, op)
    if op.error and output.strip():
        op.error += " | " + output.strip().splitlines()[-1]
    if tracer and not op.error:
        op.layers = layer_metrics(tracer.op_spans(op_id), op)
    return op


def negative_control(work: str) -> str | None:
    """The gate must be able to fail: a huge-gamma second-order check exits 1
    and writes a report in which a check has status fail."""
    path = os.path.join(work, "control.json")
    rc, _, _ = call_cli(NEGATIVE_CONTROL + ["--out", path], {})
    failing = []
    if os.path.isfile(path):
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        failing = [c for c in report.get("checks", []) if c.get("status") == "fail"]
        if report.get("all_passed") is not False:
            failing = []
    if rc == 1 and failing:
        return None
    return (f"negative control {' '.join(NEGATIVE_CONTROL)} exited {rc} with "
            f"{len(failing)} failing checks, expected exit 1 and a failing check")


def measure_setup(workload: Workload, config: str) -> list:
    """Calibrated seconds to import nexusopt (and build the problem) in fresh
    interpreters, each scaled by the speed sampled just before and after it."""
    from speed import SpeedSampler

    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    if workload.command != "validate":
        cmd.append(config)
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    sampler = SpeedSampler(SETUP_BRACKET_S)
    samples = []
    for _ in range(SETUP_REPS):
        with sampler:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) * sampler.scale)
    return samples


def hvp_probe_us(seed: int) -> float:
    """Median microseconds per MLPTask.hvp at theta0 of mlp_mechanism.cfg."""
    import numpy as np
    from nexusopt import config, harness, numerics

    cfg = config.load_config(BASE_CONFIG).with_overrides({"seed": seed})
    problem = harness.build_problem(cfg, numerics.rng_root(cfg["seed"]))
    task = problem.taskset[0]
    v = np.random.default_rng(seed).standard_normal(len(problem.theta0))
    samples = []
    for _ in range(HVP_PROBE_BATCHES):
        start = time.perf_counter()
        for _ in range(HVP_PROBE_CALLS):
            task.hvp(problem.theta0, v)
        samples.append((time.perf_counter() - start) / HVP_PROBE_CALLS * 1e6)
    return statistics.median(samples)


# --------------------------------------------------------------------------
# Per-layer metrics of one traced operation


def layer_metrics(spans: list, op: Op) -> dict:
    from spans import aggregate, has_ancestor

    agg = aggregate(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def per_call_us(name):
        calls = get(name, "calls")
        return get(name, "total_s") / calls * 1e6 if calls else 0.0

    grads = [s for s in spans if s.name == "mlp.grad"]
    inner_grads = sum(1 for s in grads if has_ancestor(s, "nexus.inner_loop"))
    emit_grads = sum(1 for s in grads if s.in_emit)
    emit_s = sum(s.duration for s in spans if s.in_emit and not (s.parent is not None and s.parent.in_emit))
    train_s = get("harness.train", "total_s")
    emits = k_emits = 0
    written = 0
    for run_dir in op.run_dirs:
        with open(os.path.join(run_dir, "metrics.csv"), "r", encoding="utf-8") as fh:
            rows = len(fh.read().splitlines()) - 1
        with open(os.path.join(run_dir, "config.resolved.json"), "r", encoding="utf-8") as fh:
            k = json.load(fh)["problem.k"]
        emits += rows
        k_emits += k * rows
        written += sum(os.path.getsize(os.path.join(run_dir, f))
                       for f in ("metrics.csv", "summary.json", "config.resolved.json"))
    walls = [s["wall_clock"] for s in op.summaries]
    is_sweep = len(op.run_dirs) > 1

    def final(key):
        return statistics.fmean(s[key] for s in op.summaries) if op.summaries else 0.0

    metrics = {
        "mlp.grad.calls": len(grads),
        "mlp.grad.total_s": get("mlp.grad", "total_s"),
        "mlp.grad.us_per_call": per_call_us("mlp.grad"),
        "mlp.loss.calls": get("mlp.loss", "calls"),
        "mlp.loss.total_s": get("mlp.loss", "total_s"),
        "nexus.inner_loop.calls": get("nexus.inner_loop", "calls"),
        "nexus.inner_loop.self_s": get("nexus.inner_loop", "self_s"),
        "nexus.grad_evals_per_outer_step": (inner_grads / get("nexus.inner_loop", "calls")
                                            if get("nexus.inner_loop", "calls") else 0.0),
        "optimizers.adamw_step.calls": get("optimizers.adamw_step", "calls"),
        "optimizers.adamw_step.total_s": get("optimizers.adamw_step", "total_s"),
        "analysis.cosine_matrix.total_s": get("analysis.cosine_matrix", "total_s"),
        "tasks.train_grad.total_s": get("tasks.train_grad", "total_s"),
        "tasks.train_loss.total_s": get("tasks.train_loss", "total_s"),
        "emit.share": emit_s / train_s if train_s else 0.0,
        "emit.unique_grad_ratio": k_emits / emit_grads if emit_grads else 0.0,
        "emit.count": emits,
        "harness.build_problem.total_s": get("harness.build_problem", "total_s"),
        "harness.write_outputs.total_s": get("harness.write_outputs", "total_s"),
        "harness.write_outputs.bytes": written,
        "harness.train.self_s": get("harness.train", "self_s"),
        "harness.sweep.run_wall_s_mean": statistics.fmean(walls) if is_sweep else 0.0,
        "harness.sweep.overlap": sum(walls) / op.wall_s if is_sweep else 0.0,
        "tasks.tensor_operator_bound.calls": get("tasks.tensor_operator_bound", "calls"),
        "tasks.tensor_operator_bound.total_s": get("tasks.tensor_operator_bound", "total_s"),
        "tasks.random_cubic_task.total_s": get("tasks.random_cubic_task", "total_s"),
        "oracles.expected_pseudo_gradient_exact.calls": get("oracles.expected_pseudo_gradient_exact", "calls"),
        "oracles.expected_pseudo_gradient_exact.total_s": get("oracles.expected_pseudo_gradient_exact", "total_s"),
        "oracles.enumerated_sequences": get("oracles.expected_pseudo_gradient_exact", "count"),
        "config.load_config.total_s": get("config.load_config", "total_s"),
        "final_train_loss": final("train_loss"),
        "final_ood_loss": final("ood_loss"),
        "final_mean_pairwise_cos": final("mean_pairwise_cos"),
    }
    from nexusopt.validate import SUITES

    for suite in SUITES[1:]:
        metrics[f"validate.{suite}.wall_s"] = get(f"validate.{suite}", "total_s")
    op.largest_child = largest_child(agg)
    return metrics


def largest_child(agg: dict) -> str:
    """The wrapped layer with the most self time below the operation's root."""
    layers = {n: a["self_s"] for n, a in agg.items() if n != "op"}
    return max(layers, key=layers.get) if layers else "-"


# --------------------------------------------------------------------------
# One benchmark run


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_id = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "nexusopt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src.update(f"{name}:{sha256_file(os.path.join(pkg, name))}\n".encode())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def load_units() -> dict:
    """Unit of every per-layer metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> Result:
    workload = WORKLOADS[name]
    work = os.path.join(OUT, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run_workload(workload, work, seed, seconds, trace, small)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(workload, work, seed, seconds, trace, small) -> Result:
    config = workload_config(workload, work, small)
    total_steps = cadence = 0
    if workload.command != "validate":
        from nexusopt.config import load_config

        cfg = load_config(config)
        total_steps, cadence = cfg["total_steps"], cfg["metric_cadence"]
    lines = [f"machine {json.dumps(machine_record(), sort_keys=True)}"]
    setup = [] if trace else measure_setup(workload, config)

    from nexusopt import cli  # noqa: F401  (imported before the first timed operation)

    tracer = sampler = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    else:
        from speed import SpeedSampler

        sampler = SpeedSampler() if workload.calibrate else None
    t0 = time.perf_counter()
    deadline = t0 + seconds
    ops = []
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        # a traced run alternates untraced and traced operations, so that the
        # tracing overhead compares like with like
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
        try:
            ops.append(run_op(workload, config, work, seed, total_steps, cadence,
                              tracer if traced else None, len(ops), sampler))
        finally:
            if traced:
                tracer.uninstall()

    reference = next((op.digest for op in ops if op.digest), None)
    for i, op in enumerate(ops):
        if op.digest and op.digest != reference:
            op.error = f"output digest {op.digest[:12]} differs from the first operation's {reference[:12]}"
            op.layers = None
    problems = [f"op {i}: {op.error}" for i, op in enumerate(ops) if op.error]
    failed = len(problems)
    control = negative_control(work) if workload.command == "validate" else None
    if control:
        problems.append(control)

    lines.append(f"workload {workload.name} seed {seed} trace {int(trace)}: {len(ops)} operations, "
                 f"{failed} failed, digest {str(reference)[:16]}")
    lines += [f"  FAIL {p}" for p in problems]
    if tracer:
        metrics, more = traced_metrics(ops, seed, tracer, workload.name, t0)
    else:
        metrics, more = untraced_metrics(ops, setup, workload.calibrate)
    lines += more
    return Result(not problems, len(ops), failed, metrics, reference, lines, ops)


def untraced_metrics(ops: list, setup: list, calibrated: bool):
    times = [op.calibrated_s if calibrated else op.wall_s for op in ops]
    wall = statistics.median(times)
    raw = [op.wall_s for op in ops]
    kind = "calibrated" if calibrated else "raw"
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    lines = [f"  {'setup_s':<24} {values['setup_s']:.4f} s   (calibrated; median of {len(setup)} fresh interpreters)",
             f"  {'wall_s':<24} {wall:.4f} s   ({kind}; median of {len(ops)})",
             f"  {'raw wall':<24} {statistics.median(raw):.4f} s   (median; min {min(raw):.4f}, max {max(raw):.4f})",
             f"  per operation ({kind} s): " + " ".join(f"{t:.3f}" for t in times),
             f"  {'peak_rss_mb':<24} {values['peak_rss_mb']:.1f} MB"]
    steps = [op.steps / t for op, t in zip(ops, times) if op.steps]
    if steps:
        lines.append(f"  {'outer_steps_per_s':<24} {statistics.median(steps):.2f} 1/s ({kind}; median of {len(steps)})")
    failed = sum(1 for op in ops if op.error)
    lines.append(f"  {'failed_frac':<24} {failed / len(ops):.4f}     ({failed}/{len(ops)})")
    summaries = ops[0].summaries
    for key in ("train_loss", "ood_loss", "mean_pairwise_cos"):
        if summaries:
            lines.append(f"  {'final_' + key:<24} {statistics.fmean(s[key] for s in summaries)!r}")
    return metrics, lines


def traced_metrics(ops: list, seed: int, tracer, name: str, t0: float):
    units = load_units()
    plain, traced = ops[0::2], [op for op in ops[1::2] if op.layers is not None]
    values = {key: 0.0 for key in units}
    largest = "-"
    if traced:
        for key in traced[0].layers:
            values[key] = statistics.median(op.layers[key] for op in traced)
        largest = traced[0].largest_child
        values["trace.overhead_s"] = (statistics.median(op.wall_s for op in traced)
                                      - statistics.median(op.wall_s for op in plain))
    values["mlp.hvp.us_per_call"] = hvp_probe_us(seed)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{name}.json")
    tracer.dump(trace_path, t0)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    lines = [f"  {len(traced)} traced operations (medians below), {len(plain)} untraced; "
             f"spans written to {os.path.relpath(trace_path, ROOT)}"]
    if tracer.missing:
        lines.append(f"  trace targets not found: {', '.join(tracer.missing)}")
    lines.append(f"  largest layer by self time: {largest}")
    lines += [f"  {k:<46} {values[k]:.6g} {units[k]}" for k in units]
    return metrics, lines


# --------------------------------------------------------------------------
# Self-check


def self_check() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(LAYER_MAP, "r", encoding="utf-8") as fh:
        layer_map = json.load(fh)
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(declared) != set(layer_map):
        problems.append("per_layer metrics of BENCHMARK.json and layer_map.json differ")
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, entry in layer_map.items():
        if entry["moves"] not in e2e or not set(entry["on"]) <= set(WORKLOADS):
            problems.append(f"layer_map.json {name}: unknown metric or workload")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("workloads of BENCHMARK.json and run.py differ")
    for name in WORKLOADS:
        digests = []
        for trace in (False, True):
            result = run_workload(name, 1, 0, trace, small=True)
            want = declared if trace else {m["name"]: m["unit"] for m in spec["end_to_end"]}
            got = {k: v["unit"] for k, v in result.metrics.items()}
            status = "ok"
            if not result.correct:
                status = "incorrect: " + "; ".join(l.strip() for l in result.lines if "FAIL" in l)
            elif got != want:
                status = f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
            elif any(not isinstance(v["value"], (int, float)) for v in result.metrics.values()):
                status = "non-numeric metric value"
            if status != "ok":
                problems.append(f"{name} trace={int(trace)}: {status}")
            # the traced run's odd operations are the traced ones
            digest = result.ops[1].digest if trace else result.digest
            digests.append(digest)
            print(f"self-check {name} trace={int(trace)}: {status} ({result.attempted} ops, "
                  f"digest {str(digest)[:16]})")
        if digests[0] is None or digests[0] != digests[1]:
            problems.append(f"{name}: traced and untraced digests differ {digests}")
    for p in problems:
        print(f"self-check FAIL {p}")
    print("self-check " + ("PASSED" if not problems else "FAILED"))
    return 0 if not problems else 1


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once at small size and check the metric set")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required unless --self-check is given")
    if not (os.path.isfile(os.path.join(SRC, "nexusopt", "cli.py")) and os.path.isfile(os.path.join(ROOT, BASE_CONFIG))):
        print(f"error: no nexusopt source tree (src/nexusopt, {BASE_CONFIG}) under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # fixed before numpy is first imported, for this process and the setup probes
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, SRC)
    if args.self_check:
        return self_check()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.lines:
        print(line)
    print(result.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
