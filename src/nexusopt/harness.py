"""Experiment execution: problem construction, the training loop, metric
records, and on-disk outputs. ``run_into`` is the one path from a config to
its output directory, for a single run and for each run of a sweep, which
runs in forked worker processes through ``parallel.map_in_workers`` when more
than one worker is asked for; each worker writes the directories of its runs,
and the parent writes the error record of a run whose worker died.

A run reads one validated config: ``build_problem`` reads seed and the
problem.* keys of its problem.kind, and ``train`` reads the rest (total_steps,
metric_cadence, name, and the optimizer.*, schedule.* and nexus.* keys).
Every random choice flows from the config seed through labeled substreams
(problem, init, tasks), so two runs of the same config produce bit-identical
metric logs. A run directory has one lifecycle, in ``run_into``: it is made
and any old summary.json removed before the run starts; after the run,
``write_outputs`` writes every outcome, finished or failed, from the record
kept in memory: metrics.csv (fsync'd), config.resolved.json, and summary.json
last, renamed into place, so a directory without a summary is incomplete.

A metrics emit runs one forward and one backward pass per task
(``losses_and_grads``): the K losses average to the training loss, and the
(K, d) gradient matrix gives both the training-gradient norm and the pairwise
cosines; the summary reuses the row emitted at the last step. The outer step
right after an emit starts from the emit's parameters, so it takes its
gradients from the emit's matrix: adamw and sgd its mean, the dual-loop kinds
the first inner step's. The matrix is dropped as soon as the parameters move.

Every training mode takes the same outer step: the mode supplies a direction
(the full training gradient for adamw and sgd, the inner-loop pseudo-gradient
for the dual-loop kinds), the direction is clipped when clip_norm > 0, and the
outer optimizer consumes it. nsgd_adamw is the dual loop with one inner step.
Each outer step of a dual-loop mode chooses its inner steps' task indices here,
drawn i.i.d. from the run's "tasks" stream or walked round-robin, and
``inner_loop`` returns the pseudo-gradient as an array.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .config import DUAL_LOOP_MODES, ExperimentConfig
from .errors import ConfigError, DegenerateGradient, DimensionMismatch, NexusError, NonFiniteValue
from .mlp import MLPSpec, MLPTask, make_synthetic_sources
from .nexus import NexusConfig, inner_loop
from .numerics import RngStream, norm, rng_root, rng_substream
from .optimizers import AdamWState, Schedule, adamw_step, clip_grad, schedule_lr, sgd_step
from .parallel import map_in_workers
from .tasks import (
    TaskFamily,
    TaskSet,
    closeness,
    is_quadratic,
    losses_and_grads,
    mean_grad,
    mean_pairwise_cosine,
    random_cubic_task,
    sample_family,
    taskset_from_json,
    train_grad,
)


@dataclass
class MetricsRow:
    """One metrics.csv row; its fields are the file's columns, in order."""

    step: int
    lr: float
    train_loss: float
    ood_loss: float | None
    mean_pairwise_cos: float | None
    grad_norm: float
    pseudo_grad_norm: float | None

    def to_csv(self) -> str:
        step, *values = (getattr(self, f.name) for f in fields(self))
        return ",".join([str(step), *("" if x is None else repr(float(x)) for x in values)])


CSV_HEADER = ",".join(f.name for f in fields(MetricsRow))


@dataclass
class RunRecord:
    config: dict
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    wall_clock: float | None = None
    final_theta: np.ndarray | None = None


@dataclass
class Problem:
    taskset: TaskSet
    theta0: np.ndarray
    ood_task: object = None


def build_problem(cfg: ExperimentConfig, rng: RngStream) -> Problem:
    kind = cfg["problem.kind"]
    prob_rng = rng_substream(rng, "problem")
    init_rng = rng_substream(rng, "init")
    if kind == "quadratic_family":
        family = TaskFamily(
            np.zeros(cfg["problem.dim"]), cfg["problem.variance"], cfg["problem.curvature"], cfg["problem.depth"]
        )
        ts = sample_family(family, cfg["problem.k"], rng_substream(prob_rng, "train"))
        ood = family.sample_task(rng_substream(prob_rng, "ood"))
        theta0 = cfg["problem.init_scale"] * init_rng.generator.standard_normal(cfg["problem.dim"])
        return Problem(ts, theta0, ood)
    if kind == "cubic_set":
        tasks = [
            random_cubic_task(cfg["problem.dim"], rng_substream(prob_rng, f"train/{k}"), cfg["problem.third_bound"])
            for k in range(cfg["problem.k"])
        ]
        ood = random_cubic_task(cfg["problem.dim"], rng_substream(prob_rng, "ood"), cfg["problem.third_bound"])
        theta0 = cfg["problem.init_scale"] * init_rng.generator.standard_normal(cfg["problem.dim"])
        return Problem(TaskSet(tasks), theta0, ood)
    if kind == "mlp_multisource":
        spec = MLPSpec(tuple(cfg["problem.widths"]), cfg["problem.activation"])
        sources, held_out = make_synthetic_sources(
            cfg["problem.k"],
            spec.layer_widths[0],
            spec.layer_widths[-1],
            cfg["problem.n_per_source"],
            cfg["problem.shared_fraction"],
            rng_substream(prob_rng, "data"),
        )
        ts = TaskSet([MLPTask(spec, src) for src in sources])
        ood = MLPTask(spec, held_out)
        theta0 = cfg["problem.init_scale"] * spec.init_params(init_rng)
        return Problem(ts, theta0, ood)
    if kind == "custom_taskset_file":
        path = cfg["problem.path"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                ts = taskset_from_json(fh.read())
        except (OSError, KeyError, TypeError, ValueError, RecursionError, DimensionMismatch, NonFiniteValue) as exc:
            raise ConfigError(f"cannot read task set {path!r}: {type(exc).__name__}: {exc}", "problem.path") from exc
        theta0 = cfg["problem.init_scale"] * init_rng.generator.standard_normal(ts.dim)
        return Problem(ts, theta0, None)
    raise ValueError(f"unknown problem kind {kind!r}")


def make_nexus_config(cfg: ExperimentConfig) -> NexusConfig:
    kind = cfg["optimizer.kind"]
    inner_steps = 1 if kind == "nsgd_adamw" else cfg["nexus.inner_steps"]
    variant = "dot" if kind == "nexus_dot_adamw" else "cosine"
    return NexusConfig(cfg["nexus.gamma"], inner_steps, variant, cfg["nexus.grad_floor"])


def train(cfg: ExperimentConfig, problem: Problem) -> RunRecord:
    """Deterministic training loop of a validated config on its built problem.

    Reads total_steps, metric_cadence, name, seed (for the "tasks" stream), the
    schedule.* keys, optimizer.kind and optimizer.clip_norm, the other
    optimizer.* keys for the AdamW kinds and the nexus.* keys for the
    DUAL_LOOP_MODES. adamw and sgd step along the full training gradient, the
    dual-loop kinds along the pseudo-gradient of ``make_nexus_config(cfg)``.
    Their inner steps take task indices drawn uniformly with replacement from
    the "tasks" stream under iid_uniform nexus.sampling; fixed_sequence walks
    the tasks round-robin across outer steps. Any direction is clipped to
    clip_norm when that is > 0; the pseudo_grad_norm column is taken before
    clipping. When every task is a quadratic, a QuadraticTask without a
    third-derivative tensor, the summary adds the closeness of the final
    parameters; a cubic_set task has a tensor even at problem.third_bound = 0.
    An emit whose train_loss, ood_loss, grad_norm or pseudo_grad_norm is not
    finite raises NonFiniteValue naming the step: the run has diverged.
    """
    ts, ood_task = problem.taskset, problem.ood_task
    total_steps, metric_cadence = cfg["total_steps"], cfg["metric_cadence"]
    mode, clip_norm = cfg["optimizer.kind"], cfg["optimizer.clip_norm"]
    try:
        schedule = Schedule(cfg["schedule.kind"], cfg["schedule.base_lr"], total_steps,
                            cfg["schedule.warmup_steps"], cfg["schedule.decay_steps"])
    except ValueError as exc:
        # a validated config gets here only by a wsd decay that does not fit in the run
        raise ConfigError(f"invalid schedule.decay_steps: {exc}", "schedule.decay_steps") from exc
    theta = np.array(problem.theta0, dtype=np.float64)
    task_rng = rng_substream(rng_root(cfg["seed"]), "tasks")
    opt_state = None if mode == "sgd" else AdamWState.init(
        len(theta), cfg["optimizer.beta1"], cfg["optimizer.beta2"], cfg["optimizer.eps"], cfg["optimizer.weight_decay"]
    )
    dual_loop = mode in DUAL_LOOP_MODES
    nexus_cfg = make_nexus_config(cfg) if dual_loop else None

    record = RunRecord(config=cfg.resolved())
    last_pg_norm: float | None = None

    def pairwise_cos(G: np.ndarray) -> float | None:
        try:
            value = mean_pairwise_cosine(G)
        except DegenerateGradient:
            return None
        return value if math.isfinite(value) else None

    def emit(step: int) -> tuple:
        """(the row measured at theta, the gradient matrix G it was measured from)."""
        # one forward pass per task gives its loss and its row of G, which gives grad_norm and the cosines
        lr = schedule_lr(schedule, step)
        # theta can stay finite while a loss or a norm overflows; such a run has diverged. Every
        # value is checked below, so numpy's overflow warnings would only precede the one error
        with np.errstate(over="ignore"):
            losses, G = losses_and_grads(ts, theta)
            tl = sum(losses) / len(ts)
            ood = ood_task.loss(theta) if ood_task is not None else None
            grad_norm = norm(mean_grad(G))
            for quantity, value in (
                ("train_loss", tl), ("ood_loss", ood), ("grad_norm", grad_norm), ("pseudo_grad_norm", last_pg_norm)
            ):
                if value is not None and not math.isfinite(value):
                    raise NonFiniteValue(f"step {step}: {quantity} is {value}")
            row = MetricsRow(step, lr, tl, ood, pairwise_cos(G), grad_norm, last_pg_norm)
        return row, G

    start = time.perf_counter()
    # the gradient matrix of the row emitted at the current theta; None once theta moves
    G = None
    if total_steps > 0:
        row, G = emit(0)
        record.rows.append(row)
    for step in range(1, total_steps + 1):
        lr = schedule_lr(schedule, step)
        if dual_loop:
            M = nexus_cfg.inner_steps
            if cfg["nexus.sampling"] == "fixed_sequence":
                sequence = [((step - 1) * M + m) % len(ts) for m in range(M)]
            else:
                sequence = task_rng.generator.integers(0, len(ts), size=M)
            try:
                direction = inner_loop(
                    theta, ts, nexus_cfg, sequence, first_grad=None if G is None else G[sequence[0]]
                )
            except DegenerateGradient as exc:
                raise DegenerateGradient(f"outer step {step}, task {exc.task_index}: {exc}", exc.task_index) from exc
            last_pg_norm = norm(direction)
        else:
            direction = train_grad(ts, theta) if G is None else mean_grad(G)
        G = None
        if clip_norm > 0:
            direction = clip_grad(direction, clip_norm)
        if opt_state is None:
            theta = sgd_step(theta, direction, lr)
        else:
            opt_state, theta = adamw_step(opt_state, theta, direction, lr)
        if step % metric_cadence == 0 or step == total_steps:
            row, G = emit(step)
            record.rows.append(row)
    record.wall_clock = time.perf_counter() - start
    record.final_theta = theta
    # the row of step total_steps was measured at the final theta
    final = record.rows[-1] if record.rows else emit(0)[0]
    record.summary = {
        "train_loss": final.train_loss,
        "ood_loss": final.ood_loss,
        "mean_pairwise_cos": final.mean_pairwise_cos,
        "steps": total_steps,
        "name": cfg["name"],
    }
    if all(is_quadratic(t) for t in ts.tasks):
        record.summary["closeness_mean_sq"] = closeness(theta, ts)
    return record


def run(cfg: ExperimentConfig) -> RunRecord:
    """Execute one experiment described by a validated config."""
    return train(cfg, build_problem(cfg, rng_root(cfg["seed"])))


def write_json_atomic(path: str, doc) -> None:
    """Write doc as JSON to a temporary file beside path, then rename it over path.

    A reader sees either the previous file or the complete new one; a failed
    write leaves no file behind.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_outputs(record: RunRecord, out_dir: str) -> None:
    """Write a run's record into out_dir, which ``run_into`` has made and
    cleared of summary.json: metrics.csv (fsync'd), config.resolved.json, then
    summary.json last and atomically. The summary is the record's, with its
    wall_clock when it has one; a failed run's record has none.
    """
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in record.rows:
            fh.write(row.to_csv() + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    write_json_atomic(os.path.join(out_dir, "config.resolved.json"), record.config)
    summary = record.summary if record.wall_clock is None else {**record.summary, "wall_clock": record.wall_clock}
    write_json_atomic(os.path.join(out_dir, "summary.json"), summary)


def run_into(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Run cfg and write its outcome into out_dir; return the run's summary.

    out_dir is made and its summary.json removed before the run starts, so an
    unusable path fails before any training and a crash leaves no summary.
    Every outcome goes through ``write_outputs``: a finished run's record, or
    for a NexusError the config's resolved keys, no rows and the summary
    {"error": "<class>: <message>"}. The summary returned has no wall_clock.
    """
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "summary.json"))
    try:
        record = run(cfg)
    except NexusError as exc:
        return _write_failed_run(cfg, out_dir, exc)
    write_outputs(record, out_dir)
    return record.summary


def _write_failed_run(cfg: ExperimentConfig, out_dir: str, exc: NexusError) -> dict:
    """Write a failed run's record, the summary {"error": "<class>: <message>"}, into out_dir."""
    record = RunRecord(cfg.resolved(), summary={"error": f"{type(exc).__name__}: {exc}"})
    write_outputs(record, out_dir)
    return record.summary


def run_dir_label(label: str, what: str, hint: str = "") -> str:
    """label as a run directory's name directly inside its parent: each "/" becomes "_". A label
    that no directory can take is a ConfigError naming it as what: one that holds a NUL byte or a
    lone surrogate, is "", "." or ".." after the rule, or is longer than 255 bytes (NAME_MAX) in UTF-8."""
    name = label.replace("/", "_")
    encoded = name.encode("utf-8", "replace")  # a lone surrogate, which no file name holds, becomes "?"
    if "\0" in name or name in ("", ".", "..") or len(encoded) > 255 or encoded.decode("utf-8") != name:
        raise ConfigError(f"{what} {label!r} names no run directory{hint}")
    return name


def _run_into_job(job) -> dict:
    """run_into(cfg, out_dir) for job = (cfg, out_dir): one sweep run, in the process that runs it."""
    return run_into(*job)


def _lost_run(job, exc: NexusError) -> dict:
    """The failed run's record of job = (cfg, out_dir), whose worker died: written by the parent."""
    cfg, out_dir = job
    os.makedirs(out_dir, exist_ok=True)  # the worker may have died before making it
    return _write_failed_run(cfg, out_dir, exc)


def derive_sweep_seeds(root_seed: int, count: int) -> list:
    """Independent per-run seeds derived from the root seed's sweep substream."""
    stream = rng_substream(rng_root(root_seed), "sweep")
    return [int(s) for s in stream.generator.integers(0, 2**63 - 1, size=count)]


def sweep(
    base: ExperimentConfig,
    out_dir: str,
    overrides: dict | None = None,
    num_seeds: int = 0,
    workers: int = 1,
) -> list:
    """Cartesian product of config overrides, each run in its own directory;
    returns a (label, summary) pair per run, in input order.

    ``overrides`` maps config keys to lists of values. ``num_seeds`` > 0 adds a
    seed axis with seeds derived from the base seed; a negative count, or a
    count with a "seed" key in ``overrides``, is a ConfigError. Each run is a
    ``run_into`` call, through ``map_in_workers`` in up to ``workers`` forked
    worker processes; each inherits OPENBLAS_NUM_THREADS, and 1 avoids
    oversubscribing the cores. The process that runs a config writes its
    directory, and only the summary comes back. A run that raises a NexusError
    has the error summary of ``run_into`` and the sweep goes on. So does a run
    whose worker dies (the OOM killer, a crash inside BLAS, a kill): this
    process writes that run's error record through ``write_outputs``, its
    summary naming the signal, and a new worker takes the runs left. Any other
    exception propagates at its run's position and starts no further run: the
    runs before it are on disk, its own directory has no summary, and with
    workers, the runs after it already running finish too.
    Each run directory is named after its overrides by ``run_dir_label``,
    so every run lands directly inside ``out_dir``, and a label that no
    directory can take is a ConfigError before any is made. sweep.json maps
    each label to its summary, a failed run's included; when exactly two runs
    result, a diff.json with final-metric deltas (None beside a failed run) is
    emitted alongside.
    """
    import itertools

    overrides = dict(overrides or {})
    if num_seeds < 0:
        raise ConfigError(f"num_seeds must be >= 0, got {num_seeds}")
    if num_seeds > 0:
        if "seed" in overrides:
            raise ConfigError(f"a seed axis and num_seeds={num_seeds} both set the seeds; give one of them")
        overrides["seed"] = derive_sweep_seeds(base["seed"], num_seeds)
    keys = sorted(overrides)
    combos = list(itertools.product(*(overrides[k] for k in keys))) if keys else [()]
    jobs = []
    for combo in combos:
        patch = dict(zip(keys, combo))
        label = "-".join(f"{k.split('.')[-1]}={v}" for k, v in patch.items()) or "base"
        jobs.append((base.with_overrides(patch), run_dir_label(label, "run label")))
    labels = [label for _, label in jobs]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"sweep run directories collide: {sorted(labels)}")

    run_jobs = [(cfg, os.path.join(out_dir, label)) for cfg, label in jobs]
    results = list(zip(labels, map_in_workers(_run_into_job, run_jobs, workers, on_death=_lost_run)))
    write_json_atomic(os.path.join(out_dir, "sweep.json"), dict(results))
    if len(results) == 2:
        (label_a, summary_a), (label_b, summary_b) = results
        diff = {}
        for key in ("train_loss", "ood_loss", "mean_pairwise_cos"):
            va, vb = summary_a.get(key), summary_b.get(key)
            diff[key] = None if va is None or vb is None else vb - va
        doc = {"runs": [label_a, label_b], "final_metric_deltas": diff}
        write_json_atomic(os.path.join(out_dir, "diff.json"), doc)
    return results
