import contextlib
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nexusopt
from nexusopt import harness, mlp
from nexusopt.config import (
    ALWAYS,
    OPTIMIZER_KINDS,
    PROBLEM_KINDS,
    SCHEMA,
    SCHEDULE_KINDS,
    load_config,
    parse_config_text,
)
from nexusopt.errors import ConfigError, DegenerateGradient, NexusError
from nexusopt.harness import (
    CSV_HEADER,
    build_problem,
    derive_sweep_seeds,
    run,
    run_into,
    sweep,
    write_outputs,
)
from nexusopt.mlp import MLPTask
from nexusopt.numerics import rng_root, rng_substream
from nexusopt.optimizers import AdamWState, Schedule, adamw_step, nsgd_direction, schedule_lr
from nexusopt.oracles import random_quadratic_taskset
from nexusopt.tasks import mean_pairwise_cosine, task_grads, taskset_from_json, taskset_to_json


def train_loss(ts, theta):
    """L_train, the plain average of the task losses, summed in task order."""
    return sum(t.loss(theta) for t in ts.tasks) / len(ts)


def make_cfg(extra=""):
    return parse_config_text(
        "seed = 123\n"
        "total_steps = 10\n"
        "metric_cadence = 5\n"
        "problem.kind = \"quadratic_family\"\n"
        "problem.k = 3\n"
        "problem.dim = 3\n"
        "schedule.kind = \"constant\"\n"
        "schedule.base_lr = 0.05\n" + extra
    )


def test_run_is_deterministic_and_cadenced(tmp_path):
    cfg = make_cfg()
    rec_a = run(cfg)
    rec_b = run(cfg)
    assert [r.step for r in rec_a.rows] == [0, 5, 10]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    write_outputs(rec_a, dir_a)
    write_outputs(rec_b, dir_b)
    assert (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()
    assert (dir_a / "summary.json").exists()
    assert (dir_a / "config.resolved.json").exists()


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# metrics.csv sha256 of 60-step runs of the shipped MLP config, keyed by
# optimizer.kind and nexus.sampling, as recorded in CHANGES.md; a refactor of
# the training path must keep every byte
MLP_60_STEP_DIGESTS = {
    ("adamw", "iid_uniform"): "047b8911260c7f273870903057cc00d95416f91ae856df9c575a5e3dd1350a75",
    ("nsgd_adamw", "iid_uniform"): "f3bb8dfa3fe4be84944826ba7f4d9a8719999527429f6c5132b3029528149470",
    ("nexus_adamw", "iid_uniform"): "25ffdec633f2514eda1d58100d195a556caf51c2630a41638b21fdb0d6d7b7b1",
    ("nexus_dot_adamw", "iid_uniform"): "fe8396f66a935e98d9f9a3021e7d149a9105addf811898337068bab1ba14172e",
    ("nexus_adamw", "fixed_sequence"): "fc792e048e5d63b2e1f60f355c0023fd5d69fd940b83c45734bfb70c5884777e",
    ("nsgd_adamw", "fixed_sequence"): "3c1bbc8367b7731f9e46dea0c912069e653688342f91c9b7fdd896050d7e1841",
}


@pytest.mark.parametrize("kind, sampling", [
    pytest.param(kind, sampling, id=kind if sampling == "iid_uniform" else f"{kind}-{sampling}")
    for kind, sampling in sorted(MLP_60_STEP_DIGESTS)
])
def test_seeded_mlp_runs_write_the_recorded_metrics_bytes(kind, sampling, tmp_path):
    cfg = load_config(os.path.join(REPO_ROOT, "configs", "mlp_mechanism.cfg")).with_overrides(
        {"total_steps": 60, "optimizer.kind": kind, "nexus.sampling": sampling}
    )
    write_outputs(run(cfg), tmp_path)
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == MLP_60_STEP_DIGESTS[kind, sampling]


def test_the_plain_expressions_write_the_recorded_metrics_bytes(monkeypatch, tmp_path):
    # the first-layer fold off: the shipped shapes take it, so this keeps the
    # plain expressions of the MLP pass covered on a shipped config
    monkeypatch.setattr(mlp, "_fold_keeps_bits", lambda *shape: False)
    builds = []
    monkeypatch.setattr(mlp, "_with_ones", builds.append)
    cfg = load_config(os.path.join(REPO_ROOT, "configs", "mlp_mechanism.cfg")).with_overrides(
        {"total_steps": 60, "optimizer.kind": "nexus_adamw"}
    )
    write_outputs(run(cfg), tmp_path)
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == MLP_60_STEP_DIGESTS["nexus_adamw", "iid_uniform"]
    assert builds == []


# the same for 60-step runs with further overrides: a metrics row after every
# step, so each step starts where a row was just emitted, and a relu network
MLP_60_STEP_OVERRIDE_DIGESTS = {
    "sgd-cadence1": (
        {"optimizer.kind": "sgd", "metric_cadence": 1},
        "5f8a0c9452f1e258068bfa37bfb7636646a1d820219a551cdd757e8e0014caac",
    ),
    "adamw-cadence1": (
        {"optimizer.kind": "adamw", "metric_cadence": 1},
        "19ec53fab42e7ea475f786096c93e54ed7bb9e71dc063e3186f1278844fe41d4",
    ),
    "nsgd_adamw-cadence1": (
        {"optimizer.kind": "nsgd_adamw", "metric_cadence": 1},
        "193097f541ff71902dd3cf6ec8c12bc118dd5039a2d11b6f7bb288d506dc16d5",
    ),
    "nexus_adamw-relu": (
        {"optimizer.kind": "nexus_adamw", "problem.activation": "relu"},
        "547b66ddb793279bdfeaac3fcc0a91c71ebce410155ea76f92941275dfd05236",
    ),
}


@pytest.mark.parametrize("name", sorted(MLP_60_STEP_OVERRIDE_DIGESTS))
def test_seeded_mlp_runs_with_overrides_write_the_recorded_metrics_bytes(name, tmp_path):
    overrides, expected = MLP_60_STEP_OVERRIDE_DIGESTS[name]
    cfg = load_config(os.path.join(REPO_ROOT, "configs", "mlp_mechanism.cfg")).with_overrides(
        {"total_steps": 60, **overrides}
    )
    write_outputs(run(cfg), tmp_path)
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == expected


def test_zero_steps_leaves_theta_and_metrics_empty():
    cfg = make_cfg().with_overrides({"total_steps": 0})
    rec = run(cfg)
    assert rec.rows == []
    problem = build_problem(cfg, rng_root(cfg["seed"]))
    assert_allclose(rec.final_theta, problem.theta0)


def test_cadence_includes_final_partial_step():
    cfg = make_cfg().with_overrides({"total_steps": 7, "metric_cadence": 5})
    rec = run(cfg)
    assert [r.step for r in rec.rows] == [0, 5, 7]


def test_rows_carry_schedule_lr():
    cfg = make_cfg().with_overrides({"schedule.kind": "wsd", "total_steps": 10,
                                     "schedule.warmup_steps": 2, "schedule.decay_steps": 2,
                                     "metric_cadence": 1})
    rec = run(cfg)
    assert rec.rows[0].lr == 0.0
    assert rec.rows[2].lr == 0.05
    assert rec.rows[-1].lr == 0.0


def test_all_optimizer_modes_run():
    for kind in ("adamw", "sgd", "nsgd_adamw", "nexus_adamw", "nexus_dot_adamw"):
        cfg = make_cfg().with_overrides({"optimizer.kind": kind, "total_steps": 5,
                                         "nexus.gamma": 0.01, "nexus.inner_steps": 2})
        rec = run(cfg)
        assert np.isfinite(rec.summary["train_loss"])
        if kind.startswith("nexus") or kind == "nsgd_adamw":
            assert rec.rows[-1].pseudo_grad_norm is not None
        else:
            assert rec.rows[-1].pseudo_grad_norm is None


def test_nexus_k1_trajectory_bit_identical_to_nsgd_feed():
    base = make_cfg().with_overrides({"total_steps": 100, "nexus.gamma": 0.02,
                                      "metric_cadence": 1, "nexus.inner_steps": 1})
    rec_nexus = run(base.with_overrides({"optimizer.kind": "nexus_adamw"}))
    rec_nsgd = run(base.with_overrides({"optimizer.kind": "nsgd_adamw"}))
    assert np.array_equal(rec_nexus.final_theta, rec_nsgd.final_theta)
    for ra, rb in zip(rec_nexus.rows, rec_nsgd.rows):
        assert ra.train_loss == rb.train_loss


def nsgd_feed_by_hand(cfg, pick):
    """Final theta of feeding gamma * unit gradient of task pick(step, draws) to AdamW."""
    problem = build_problem(cfg, rng_root(cfg["seed"]))
    draws = rng_substream(rng_root(cfg["seed"]), "tasks")
    schedule = Schedule(cfg["schedule.kind"], cfg["schedule.base_lr"], cfg["total_steps"])
    theta, state = problem.theta0, AdamWState.init(len(problem.theta0))
    for step in range(1, cfg["total_steps"] + 1):
        task = problem.taskset[pick(step, draws)]
        d = nsgd_direction(task.grad(theta), cfg["nexus.gamma"], cfg["nexus.grad_floor"])
        state, theta = adamw_step(state, theta, d, schedule_lr(schedule, step))
    return theta


def test_nsgd_adamw_matches_hand_written_normalized_feed():
    cfg = make_cfg().with_overrides({"optimizer.kind": "nsgd_adamw", "total_steps": 60,
                                     "nexus.gamma": 0.02, "nexus.inner_steps": 5})
    expected = nsgd_feed_by_hand(cfg, lambda step, draws: int(draws.generator.integers(0, cfg["problem.k"])))
    assert np.array_equal(run(cfg).final_theta, expected)


def test_nsgd_adamw_honors_fixed_sequence():
    cfg = make_cfg().with_overrides({"optimizer.kind": "nsgd_adamw", "total_steps": 60,
                                     "nexus.gamma": 0.02, "nexus.sampling": "fixed_sequence"})
    expected = nsgd_feed_by_hand(cfg, lambda step, draws: (step - 1) % cfg["problem.k"])
    final = run(cfg).final_theta
    assert np.array_equal(final, expected)
    assert not np.array_equal(final, run(cfg.with_overrides({"nexus.sampling": "iid_uniform"})).final_theta)


def test_clip_norm_applies_to_the_pseudo_gradient():
    cfg = make_cfg().with_overrides({"optimizer.kind": "nexus_adamw", "total_steps": 40,
                                     "nexus.gamma": 0.05, "nexus.inner_steps": 4})
    unclipped = run(cfg)
    # a cosine pseudo-gradient has norm <= K * gamma, so this clip never binds
    loose = run(cfg.with_overrides({"optimizer.clip_norm": 4 * 0.05}))
    assert np.array_equal(loose.final_theta, unclipped.final_theta)
    tight = run(cfg.with_overrides({"optimizer.clip_norm": 0.01}))
    assert not np.array_equal(tight.final_theta, unclipped.final_theta)


def test_fixed_sequence_sampling_is_round_robin_deterministic():
    cfg = make_cfg().with_overrides({"optimizer.kind": "nexus_adamw", "total_steps": 6,
                                     "nexus.sampling": "fixed_sequence", "nexus.inner_steps": 2})
    rec_a = run(cfg)
    rec_b = run(cfg)
    assert np.array_equal(rec_a.final_theta, rec_b.final_theta)


def make_mlp_cfg():
    return parse_config_text(
        "seed = 5\n"
        "total_steps = 4\n"
        "problem.kind = \"mlp_multisource\"\n"
        "problem.k = 3\n"
        "problem.n_per_source = 32\n"
        "problem.widths = [4, 6, 1]\n"
        "optimizer.kind = \"nexus_adamw\"\n"
        "nexus.inner_steps = 3\n"
        "schedule.base_lr = 0.01\n"
    )


def test_mlp_problem_runs_and_reports_ood():
    rec = run(make_mlp_cfg())
    assert rec.summary["ood_loss"] is not None
    assert rec.rows[-1].mean_pairwise_cos is not None


def test_widths_set_the_sources_inputs_and_targets():
    cfg = make_mlp_cfg().with_overrides({"problem.widths": [4, 6, 2]})
    problem = build_problem(cfg, rng_root(cfg["seed"]))
    for task in [*problem.taskset.tasks, problem.ood_task]:
        assert task.source.inputs.shape == (32, 4)
        assert task.source.targets.shape == (32, 2)
    rec = run(cfg)
    assert len(rec.rows) == 5 and np.isfinite(rec.summary["train_loss"])


def test_emit_computes_each_task_gradient_once(monkeypatch):
    counts = {"grad": 0, "forward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_train(*args, **kwargs):
        counts.update(grad=0, forward=0)  # count over train(), not the problem build's teacher passes
        return train(*args, **kwargs)

    train = harness.train
    monkeypatch.setattr(harness, "train", counted_train)
    # _backprop is the one MLP gradient path, under both grad and loss_and_grad
    monkeypatch.setattr(MLPTask, "_backprop", counted("grad", MLPTask._backprop))
    monkeypatch.setattr(mlp, "_layer_outputs", counted("forward", mlp._layer_outputs))
    for kind in ("nsgd_adamw", "adamw"):
        cfg = make_mlp_cfg().with_overrides({"optimizer.kind": kind, "metric_cadence": 1, "total_steps": 6})
        rec = run(cfg)
        K = cfg["problem.k"]
        # K gradients per emitted row, none for the summary; every step starts
        # where a row was just emitted and steps along that row's gradients
        assert len(rec.rows) == 7
        assert counts["grad"] == K * len(rec.rows), kind
        # each emit: one pass per task for its loss and gradient, plus the held-out loss
        assert counts["forward"] == (K + 1) * len(rec.rows), kind


def test_summary_equals_a_fresh_measurement_at_the_final_theta():
    cfg = make_mlp_cfg().with_overrides({"total_steps": 7, "metric_cadence": 3})
    rec = run(cfg)
    problem = build_problem(cfg, rng_root(cfg["seed"]))
    ts, theta = problem.taskset, rec.final_theta
    assert rec.rows[-1].step == 7
    assert rec.summary["train_loss"] == train_loss(ts, theta)
    assert rec.summary["ood_loss"] == problem.ood_task.loss(theta)
    assert rec.summary["mean_pairwise_cos"] == mean_pairwise_cosine(task_grads(ts, theta))


def test_zero_step_summary_is_measured_at_theta0():
    cfg = make_mlp_cfg().with_overrides({"total_steps": 0})
    rec = run(cfg)
    problem = build_problem(cfg, rng_root(cfg["seed"]))
    assert rec.rows == []
    assert rec.summary["train_loss"] == train_loss(problem.taskset, problem.theta0)
    assert rec.summary["mean_pairwise_cos"] == mean_pairwise_cosine(task_grads(problem.taskset, problem.theta0))


@pytest.mark.parametrize("kind", ["nsgd_adamw", "nexus_adamw"])
def test_degenerate_gradient_names_outer_step_and_task(kind):
    cfg = make_cfg().with_overrides({"optimizer.kind": kind, "nexus.grad_floor": 1e9})
    with pytest.raises(DegenerateGradient) as err:
        run(cfg)
    exc = err.value
    assert exc.task_index in range(cfg["problem.k"])
    assert str(exc).startswith(f"outer step 1, task {exc.task_index}: gradient norm ")


ADAMW_ONLY = {"optimizer.beta1", "optimizer.beta2", "optimizer.eps", "optimizer.weight_decay"}
NEXUS_KEYS = {key for key in SCHEMA if key.startswith("nexus.")}

# for each key that some kind drops: a value that changes the run wherever the key applies
# (problem.path gets a second task-set file)
CHANGED = {
    "problem.k": 2,
    "problem.dim": 2,
    "problem.curvature": 3.0,
    "problem.variance": 0.2,
    "problem.depth": 0.7,
    "problem.third_bound": 0.9,
    "problem.n_per_source": 9,
    "problem.shared_fraction": 0.1,
    "problem.widths": [4, 3, 1],
    "problem.activation": "relu",
    "optimizer.beta1": 0.5,
    "optimizer.beta2": 0.7,
    "optimizer.eps": 1e-3,
    "optimizer.weight_decay": 0.1,
    "schedule.warmup_steps": 2,
    "schedule.decay_steps": 3,
    "nexus.gamma": 0.5,
    "nexus.inner_steps": 2,
    "nexus.sampling": "fixed_sequence",
    "nexus.grad_floor": 1e9,
}


def combination_cfg(tmp_path, problem_kind, optimizer_kind, schedule_kind):
    """A six-step run of the given kinds; the returned dict of changed values
    holds CHANGED plus a second task-set file for problem.path."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(taskset_to_json(random_quadratic_taskset(3, 3, rng_root(9))))
    second.write_text(taskset_to_json(random_quadratic_taskset(3, 2, rng_root(10))))
    cfg = parse_config_text(
        "seed = 3\ntotal_steps = 6\nproblem.k = 3\nproblem.dim = 3\n"
        "problem.n_per_source = 16\nproblem.widths = [4, 6, 1]\nschedule.base_lr = 0.05\n"
        "schedule.warmup_steps = 1\nschedule.decay_steps = 2\nnexus.inner_steps = 3\n"
        f"problem.path = {json.dumps(str(first))}\n"
    ).with_overrides({"problem.kind": problem_kind, "optimizer.kind": optimizer_kind, "schedule.kind": schedule_kind})
    return cfg, {**CHANGED, "problem.path": str(second)}


def csv_rows(cfg):
    """run(cfg)'s metrics.csv rows, or the NexusError it raised."""
    try:
        return [row.to_csv() for row in run(cfg).rows]
    except NexusError as exc:
        return exc


@pytest.mark.parametrize("kind, dropped", [
    ("adamw", NEXUS_KEYS),
    ("sgd", NEXUS_KEYS | ADAMW_ONLY),
    ("nsgd_adamw", {"nexus.inner_steps"}),
    ("nexus_adamw", set()),
    ("nexus_dot_adamw", {"nexus.grad_floor"}),
])
def test_resolved_config_records_only_keys_that_take_effect(tmp_path, kind, dropped):
    # under every problem and schedule kind, changing every key the record
    # drops leaves metrics.csv byte-identical
    for problem_kind, schedule_kind in itertools.product(PROBLEM_KINDS, SCHEDULE_KINDS):
        cfg, changed = combination_cfg(tmp_path, problem_kind, kind, schedule_kind)
        rec = run(cfg)
        unrecorded = set(SCHEMA) - set(rec.config)
        assert {key for key in unrecorded if key.startswith(("optimizer.", "nexus."))} == dropped
        rec_changed = run(cfg.with_overrides({key: changed[key] for key in unrecorded}))
        out = tmp_path / f"{problem_kind}-{schedule_kind}"
        out.mkdir()
        write_outputs(rec_changed, out)
        expected = CSV_HEADER + "\n" + "".join(row.to_csv() + "\n" for row in rec.rows)
        assert (out / "metrics.csv").read_bytes() == expected.encode(), (problem_kind, schedule_kind)
        assert rec_changed.config == rec.config
        assert json.loads((out / "config.resolved.json").read_text()) == rec_changed.config


# for each key recorded under every kind: a value that changes what make_cfg's run writes
ALWAYS_CHANGED = {
    "name": "renamed",
    "seed": 124,
    "total_steps": 8,
    "metric_cadence": 2,
    "problem.kind": "cubic_set",
    "problem.init_scale": 2.0,
    "optimizer.kind": "sgd",
    "optimizer.clip_norm": 0.01,
    "schedule.kind": "cosine",
    "schedule.base_lr": 0.2,
}


def test_every_key_recorded_under_every_kind_takes_effect(tmp_path):
    # config.resolved.json records each of these keys for every run, so each
    # must change what run_into writes; a key with no listed change fails too
    def written(cfg, out_dir):
        run_into(cfg, str(out_dir))
        summary = json.loads((out_dir / "summary.json").read_text())
        del summary["wall_clock"]
        return (out_dir / "metrics.csv").read_bytes(), summary

    cfg = make_cfg()
    base = written(cfg, tmp_path / "base")
    inert = [
        key for key, spec in SCHEMA.items() if spec[-1] is ALWAYS and (
            key not in ALWAYS_CHANGED
            or written(cfg.with_overrides({key: ALWAYS_CHANGED[key]}), tmp_path / key) == base
        )
    ]
    assert inert == []


def test_each_changed_value_changes_a_run_where_its_key_applies(tmp_path):
    # so the byte-identical rows above come from the table, not from values that change nothing
    kinds = itertools.product(PROBLEM_KINDS, OPTIMIZER_KINDS, SCHEDULE_KINDS)
    combos = [combination_cfg(tmp_path, *combo) for combo in kinds]
    for key, value in combos[0][1].items():
        cfg = next(cfg for cfg, _ in combos if key in cfg.resolved())
        assert csv_rows(cfg.with_overrides({key: value})) != csv_rows(cfg), key


def test_shipped_configs_record_only_the_keys_that_take_effect():
    quadratic = load_config(os.path.join(REPO_ROOT, "configs", "quadratic_baseline.cfg")).resolved()
    mlp_cfg = load_config(os.path.join(REPO_ROOT, "configs", "mlp_mechanism.cfg")).resolved()
    mlp_only = {
        "problem.n_per_source", "problem.shared_fraction", "problem.widths", "problem.activation",
    }
    quadratic_only = {"problem.curvature", "problem.variance", "problem.depth"}
    assert set(SCHEMA) - set(quadratic) == (
        NEXUS_KEYS | mlp_only | {"problem.third_bound", "problem.path", "schedule.decay_steps"}
    )
    assert set(SCHEMA) - set(mlp_cfg) == (
        quadratic_only | {"problem.dim", "problem.third_bound", "problem.path", "schedule.decay_steps"}
    )
    assert (len(quadratic), len(mlp_cfg)) == (20, 24)


def test_failed_write_outputs_leaves_no_partial_summary(tmp_path):
    rec = run(make_cfg())
    rec.summary["unserialisable"] = object()
    with pytest.raises(TypeError):
        write_outputs(rec, tmp_path)
    assert sorted(os.listdir(tmp_path)) == ["config.resolved.json", "metrics.csv"]


@pytest.mark.parametrize("stage", ["train", "write_outputs"])
def test_failed_rewrite_removes_the_previous_summary(tmp_path, monkeypatch, stage):
    # a rerun that stops with an exception other than a NexusError, in training
    # or in writing, leaves its directory marked incomplete
    run_into(make_cfg().with_overrides({"total_steps": 4}), str(tmp_path))
    assert json.loads((tmp_path / "summary.json").read_text())["steps"] == 4
    if stage == "train":
        def crash(cfg, problem):
            raise RuntimeError("crash")

        monkeypatch.setattr(harness, "train", crash)
        raised = RuntimeError
    else:
        rec = run(make_cfg())
        rec.summary["unserialisable"] = object()
        monkeypatch.setattr(harness, "run", lambda cfg: rec)
        raised = TypeError
    with pytest.raises(raised):
        run_into(make_cfg(), str(tmp_path))
    assert not (tmp_path / "summary.json").exists()


def test_a_failed_rerun_leaves_no_byte_of_the_earlier_run(tmp_path):
    run_into(make_cfg(), str(tmp_path / "d"))
    failing = make_cfg().with_overrides({"optimizer.kind": "nsgd_adamw", "nexus.grad_floor": 1e9})
    summary = run_into(failing, str(tmp_path / "d"))
    assert summary["error"].startswith("DegenerateGradient: outer step 1, task ")
    run_into(failing, str(tmp_path / "fresh"))
    names = ["config.resolved.json", "metrics.csv", "summary.json"]
    assert sorted(os.listdir(tmp_path / "d")) == names
    for name in names:
        assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert json.loads((tmp_path / "d" / "config.resolved.json").read_text()) == failing.resolved()
    assert (tmp_path / "d" / "metrics.csv").read_text() == CSV_HEADER + "\n"
    assert json.loads((tmp_path / "d" / "summary.json").read_text()) == summary == {"error": summary["error"]}


def test_custom_taskset_round_trip(tmp_path):
    ts = random_quadratic_taskset(3, 2, rng_root(9))
    path = tmp_path / "tasks.json"
    path.write_text(taskset_to_json(ts))
    cfg = parse_config_text(
        f"seed = 2\ntotal_steps = 3\nproblem.kind = \"custom_taskset_file\"\nproblem.path = {json.dumps(str(path))}\n"
    )
    rec = run(cfg)
    assert "closeness_mean_sq" in rec.summary


def test_zero_bound_cubic_set_stays_a_cubic_set(tmp_path):
    # third_bound = 0 builds zero tensors, not quadratics: no closeness, and the JSON kind stays cubic
    cfg = make_cfg().with_overrides({"problem.kind": "cubic_set", "problem.third_bound": 0.0})
    problem = build_problem(cfg, rng_root(cfg["seed"]))
    for t in problem.taskset.tasks + [problem.ood_task]:
        assert t.third is not None and not t.third.any()
    assert "closeness_mean_sq" not in run(cfg).summary
    text = taskset_to_json(problem.taskset)
    assert {doc["kind"] for doc in json.loads(text)["tasks"]} == {"cubic"}
    assert taskset_to_json(taskset_from_json(text)) == text
    path = tmp_path / "tasks.json"
    path.write_text(text)
    custom = make_cfg().with_overrides({"problem.kind": "custom_taskset_file", "problem.path": str(path)})
    assert "closeness_mean_sq" not in run(custom).summary


def test_quadratic_summary_includes_closeness():
    rec = run(make_cfg())
    assert rec.summary["closeness_mean_sq"] >= 0.0


def test_metrics_csv_format(tmp_path):
    rec = run(make_cfg())
    write_outputs(rec, tmp_path)
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,lr,train_loss,ood_loss,mean_pairwise_cos,grad_norm,pseudo_grad_norm"
    assert len(lines) == 1 + len(rec.rows)
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] == ""  # no pseudo-gradient before any step


def test_run_into_calls_run_and_write_outputs_through_the_module(tmp_path, monkeypatch):
    # the benchmark's tracer wraps these two module globals
    calls = []
    for name in ("run", "write_outputs"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    summary = run_into(make_cfg(), str(tmp_path))
    assert calls == ["run", "write_outputs"]
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written.pop("wall_clock") > 0 and written == summary
    # a failed run takes the same two calls
    calls.clear()
    summary = run_into(make_cfg().with_overrides({"optimizer.kind": "nsgd_adamw", "nexus.grad_floor": 1e9}),
                       str(tmp_path))
    assert calls == ["run", "write_outputs"]
    assert json.loads((tmp_path / "summary.json").read_text()) == summary and "error" in summary


def test_sweep_paired_runs_emit_diff(tmp_path):
    cfg = make_cfg()
    results = sweep(cfg, str(tmp_path), {"optimizer.kind": ["adamw", "nexus_adamw"]})
    assert len(results) == 2
    names = sorted(os.listdir(tmp_path))
    assert "diff.json" in names and "sweep.json" in names
    diff = json.loads((tmp_path / "diff.json").read_text())
    assert "train_loss" in diff["final_metric_deltas"]


def test_sweep_keeps_going_past_a_failed_run(tmp_path, workers=1):
    cfg = make_cfg("optimizer.kind = \"nexus_adamw\"\n")
    (ok_label, ok), (bad_label, bad) = sweep(cfg, str(tmp_path), {"nexus.grad_floor": [1e-12, 1e9]}, workers=workers)
    assert np.isfinite(ok["train_loss"])
    assert sorted(os.listdir(tmp_path / ok_label)) == ["config.resolved.json", "metrics.csv", "summary.json"]
    assert bad["error"].startswith("DegenerateGradient: outer step 1, task ")
    assert sorted(os.listdir(tmp_path / bad_label)) == ["config.resolved.json", "metrics.csv", "summary.json"]
    assert json.loads((tmp_path / bad_label / "summary.json").read_text()) == bad
    index = json.loads((tmp_path / "sweep.json").read_text())
    assert index[bad_label] == bad
    assert index[ok_label]["train_loss"] == ok["train_loss"]
    diff = json.loads((tmp_path / "diff.json").read_text())
    assert diff["runs"] == [ok_label, bad_label]
    assert diff["final_metric_deltas"] == {"train_loss": None, "ood_loss": None, "mean_pairwise_cos": None}


def test_sweep_keeps_going_past_a_failed_run_in_workers(tmp_path):
    test_sweep_keeps_going_past_a_failed_run(tmp_path, workers=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_crash_keeps_the_runs_before_it_on_disk(tmp_path, monkeypatch, workers):
    # a crash that is not a NexusError, in the second run; forked workers inherit the patch
    build = harness.build_problem

    def crash_on_custom(cfg, rng):
        if cfg["problem.kind"] == "custom_taskset_file":
            raise RuntimeError("crash")
        return build(cfg, rng)

    monkeypatch.setattr(harness, "build_problem", crash_on_custom)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        sweep(make_cfg(), str(out), {"problem.kind": ["quadratic_family", "custom_taskset_file"]}, workers=workers)
    # the crashed run's directory was made before it started, and holds no summary
    assert sorted(os.listdir(out)) == ["kind=custom_taskset_file", "kind=quadratic_family"]
    assert os.listdir(out / "kind=custom_taskset_file") == []
    assert sorted(os.listdir(out / "kind=quadratic_family")) == ["config.resolved.json", "metrics.csv", "summary.json"]


def two_task_file_with_weights(weights):
    doc = json.loads(taskset_to_json(random_quadratic_taskset(2, 2, rng_root(9))))
    doc["folded_weights"] = weights
    return json.dumps(doc)


def one_task_file_with(**fields):
    """A d = 3 one-task file whose task document has the given fields replaced."""
    doc = json.loads(taskset_to_json(random_quadratic_taskset(3, 1, rng_root(9))))
    doc["tasks"][0].update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "content",
    [
        None, "not json", "[]", '{"tasks": [{"kind": "quadratic"}]}', two_task_file_with_weights([5.0, -1.0, 7.0]),
        one_task_file_with(kind="quartic"),
        one_task_file_with(kind="cubic", third={"0,0,5": 0.1}),
        one_task_file_with(kind="cubic", third={"-1,0,0": 0.1}),
        one_task_file_with(kind="cubic", third={"0,1,2": 0.1, "2,1,0": 0.5}),
        one_task_file_with(kind="cubic", third={"2,1,0": 0.5, "0,1,2": 0.1}),
        one_task_file_with(minimizer=[float("nan"), 0.0, 0.0]),
        one_task_file_with(minimizer=[0.0, float("inf"), 0.0]),
        one_task_file_with(offset=float("nan")),
        one_task_file_with(offset=-float("inf")),
    ],
    ids=[
        "missing", "not_json", "not_an_object", "no_fields", "bad_folded_weights",
        "unknown_kind", "tensor_index_too_large", "negative_tensor_index",
        "duplicate_tensor_key", "duplicate_tensor_key_reversed",
        "nan_minimizer", "infinite_minimizer", "nan_offset", "infinite_offset",
    ],
)
def test_unreadable_taskset_file_is_a_config_error(tmp_path, content):
    path = tmp_path / "tasks.json"
    if content is not None:
        path.write_text(content)
    cfg = make_cfg().with_overrides({"problem.kind": "custom_taskset_file", "problem.path": str(path)})
    with pytest.raises(ConfigError) as err:
        build_problem(cfg, rng_root(1))
    assert err.value.path == "problem.path"


def test_sweep_keeps_going_past_a_task_file_with_a_bad_tensor_index(tmp_path):
    files = {
        "a": one_task_file_with(),
        "b": one_task_file_with(kind="cubic", third={"0,0,5": 0.1}),
        "c": one_task_file_with(kind="cubic", third={"0,1,2": 0.1}),
    }
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    out = tmp_path / "out"
    cfg = make_cfg().with_overrides({"problem.kind": "custom_taskset_file"})
    paths = [str(tmp_path / f"{name}.json") for name in files]
    results = dict(sweep(cfg, str(out), {"problem.path": paths}))
    labels = [f"path={p}".replace("/", "_") for p in paths]
    assert sorted(results) == sorted(labels)
    good_a, bad, good_c = (results[label] for label in labels)
    assert bad["error"] == (
        f"ConfigError: cannot read task set {paths[1]!r}: "
        "ValueError: third tensor index '0,0,5' out of range for dimension 3"
    )
    assert sorted(os.listdir(out / labels[1])) == ["config.resolved.json", "metrics.csv", "summary.json"]
    for label, summary in ((labels[0], good_a), (labels[2], good_c)):
        assert np.isfinite(summary["train_loss"])
        assert sorted(os.listdir(out / label)) == ["config.resolved.json", "metrics.csv", "summary.json"]
    assert json.loads((out / "sweep.json").read_text())[labels[1]] == bad


# metrics.csv sha256 of make_cfg() runs with one task; the cosine column stays
# empty and every other byte is pinned
ONE_TASK_DIGESTS = {
    "adamw": "2280e9f918bc95933c09a8cea67589f0dab34cb9b1d58218ff502db1b574d3fb",
    "nexus_adamw": "05addb61963c554c7f4d18533ef7b83f1e35176b729030a8d912396050ad8b9b",
}


@pytest.mark.parametrize("kind", sorted(ONE_TASK_DIGESTS))
def test_a_one_task_run_has_no_pairwise_cosine(kind, tmp_path):
    summary = run_into(make_cfg().with_overrides({"problem.k": 1, "optimizer.kind": kind}), str(tmp_path))
    assert summary["mean_pairwise_cos"] is None
    assert json.loads((tmp_path / "summary.json").read_text())["mean_pairwise_cos"] is None
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    column = lines[0].split(",").index("mean_pairwise_cos")
    assert [line.split(",")[column] for line in lines[1:]] == ["", "", ""]
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == ONE_TASK_DIGESTS[kind]


def test_sweep_seed_axis_derives_independent_seeds(tmp_path):
    seeds = derive_sweep_seeds(123, 5)
    assert len(set(seeds)) == 5
    assert derive_sweep_seeds(123, 5) == seeds
    results = sweep(make_cfg(), str(tmp_path), num_seeds=2)
    assert len(results) == 2
    finals = [summary["train_loss"] for _, summary in results]
    assert finals[0] != finals[1]


@pytest.mark.parametrize("overrides, num_seeds", [(None, -1), ({"seed": [1, 2]}, 2)])
def test_sweep_rejects_a_negative_num_seeds_or_one_beside_a_seed_axis(tmp_path, overrides, num_seeds):
    with pytest.raises(ConfigError, match="num_seeds"):
        sweep(make_cfg(), str(tmp_path / "out"), overrides, num_seeds=num_seeds)
    assert os.listdir(tmp_path) == []


def test_sweep_labels_stay_flat_inside_out_dir(tmp_path):
    out = tmp_path / "out"
    results = sweep(make_cfg(), str(out), {"name": ["a/b", "../c"]})
    labels = sorted(label for label, _ in results)
    assert labels == ["name=.._c", "name=a_b"]
    assert sorted(os.listdir(tmp_path)) == ["out"]
    runs = sorted(d for d in os.listdir(out) if (out / d).is_dir())
    assert runs == labels
    assert all(sorted(os.listdir(out / d)) == ["config.resolved.json", "metrics.csv", "summary.json"] for d in runs)


def test_sweep_rejects_colliding_run_directories(tmp_path):
    with pytest.raises(ConfigError):
        sweep(make_cfg(), str(tmp_path), {"name": ["a/b", "a_b"]})
    assert os.listdir(tmp_path) == []


def test_sweep_caps_workers_at_the_number_of_runs(tmp_path, forked_workers):
    kinds = ["adamw", "nexus_adamw"]
    results = sweep(make_cfg(), str(tmp_path / "two"), {"optimizer.kind": kinds}, workers=16)
    expected = [run(make_cfg().with_overrides({"optimizer.kind": kind})).summary for kind in kinds]
    assert [summary for _, summary in results] == expected
    assert forked_workers == [2]
    ((_, summary),) = sweep(make_cfg(), str(tmp_path / "one"), {"optimizer.kind": kinds[:1]}, workers=16)
    assert summary == expected[0]
    assert forked_workers == [2]  # a single run goes on in this process


def _child_pids(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as f:
        return [int(c) for c in f.read().split()]


def _running(pid):
    """True unless pid has exited; an unreaped zombie counts as exited."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs Linux /proc child lists")
def test_sweep_workers_exit_when_the_parent_is_killed(tmp_path):
    slow = make_cfg().with_overrides({"optimizer.kind": "nexus_adamw", "total_steps": 10**8, "metric_cadence": 10**8})
    script = (
        "from nexusopt.config import parse_config_text\n"
        "from nexusopt.harness import sweep\n"
        f"cfg = parse_config_text({slow.to_text()!r})\n"
        f"sweep(cfg, {str(tmp_path)!r}, num_seeds=2, workers=2)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nexusopt.__file__)))
    parent = subprocess.Popen([sys.executable, "-c", script], env=env)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and parent.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _child_pids(parent.pid)
        assert len(workers) == 2
        parent.kill()
        parent.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(timeout=10)
        for pid in filter(_running, workers):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_a_sweep_run_whose_worker_dies_fails_alone(tmp_path, monkeypatch, capsys, kill_this_worker):
    """A run that kills its worker fails alone: the sweep goes on and exits 1."""
    from nexusopt import cli

    config = os.path.join(REPO_ROOT, "configs", "quadratic_baseline.cfg")
    steps = [2000, 2001, 2002, 2003, 2004]
    sweep(load_config(config), str(tmp_path / "ref"), {"total_steps": steps})
    real_run = harness.run

    def run_or_die(cfg):
        if cfg["total_steps"] == 3:
            kill_this_worker()
        return real_run(cfg)

    monkeypatch.setattr(harness, "run", run_or_die)
    monkeypatch.setattr(cli, "worker_count", lambda: 2)
    out = tmp_path / "out"
    axis = "total_steps=2000,2001,3,2002,2003,2004"
    assert cli.main(["sweep", "--config", config, "--out", str(out), "--set", axis]) == 1
    labels = [f"total_steps={n}" for n in (2000, 2001, 3, 2002, 2003, 2004)]
    index = json.loads((out / "sweep.json").read_text())
    assert sorted(index) == sorted(labels)
    error = "NexusError: the worker process running it was killed by SIGKILL"
    assert index["total_steps=3"] == {"error": error}
    bad = out / "total_steps=3"
    assert json.loads((bad / "summary.json").read_text()) == {"error": error}
    assert (bad / "metrics.csv").read_text() == CSV_HEADER + "\n"
    resolved = load_config(config).with_overrides({"total_steps": 3}).resolved()
    assert json.loads((bad / "config.resolved.json").read_text()) == resolved
    for n in steps:
        got, ref = out / f"total_steps={n}", tmp_path / "ref" / f"total_steps={n}"
        assert sorted(os.listdir(got)) == ["config.resolved.json", "metrics.csv", "summary.json"]
        for name in ("metrics.csv", "config.resolved.json"):
            assert (got / name).read_bytes() == (ref / name).read_bytes()
        summary, ref_summary = (json.loads((d / "summary.json").read_text()) for d in (got, ref))
        assert summary.pop("wall_clock") > 0 and ref_summary.pop("wall_clock") > 0
        assert summary == ref_summary == index[f"total_steps={n}"]
    assert capsys.readouterr().err == f"run total_steps=3 failed: {error}\n"


def test_parallel_sweep_writes_the_serial_outputs(tmp_path):
    axes = {"optimizer.kind": ["adamw", "nexus_adamw", "sgd"]}
    serial = sweep(make_cfg(), str(tmp_path / "serial"), axes, num_seeds=2, workers=1)
    parallel = sweep(make_cfg(), str(tmp_path / "parallel"), axes, num_seeds=2, workers=2)
    assert [label for label, _ in parallel] == [label for label, _ in serial]
    for label, _ in serial:
        for name in ("metrics.csv", "config.resolved.json"):
            assert (tmp_path / "parallel" / label / name).read_bytes() == (tmp_path / "serial" / label / name).read_bytes()


def test_sweep_in_workers_equals_serial_in_input_order(tmp_path):
    axes = {"optimizer.kind": ["adamw", "nexus_adamw", "sgd"], "nexus.grad_floor": [1e-12, 1e9]}
    serial = sweep(make_cfg(), str(tmp_path / "serial"), axes, num_seeds=2, workers=1)
    parallel = sweep(make_cfg(), str(tmp_path / "parallel"), axes, num_seeds=2, workers=2)
    assert len(parallel) == 12 and parallel == serial
    failed = [label for label, summary in serial if "error" in summary]
    assert len(failed) == 2 and all("kind=nexus_adamw" in label for label in failed)
    for label, summary in serial:
        names = ("metrics.csv", "config.resolved.json") + (("summary.json",) if "error" in summary else ())
        for name in names:
            assert (tmp_path / "parallel" / label / name).read_bytes() == (tmp_path / "serial" / label / name).read_bytes()
    assert (tmp_path / "parallel" / "sweep.json").read_bytes() == (tmp_path / "serial" / "sweep.json").read_bytes()
