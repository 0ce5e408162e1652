"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
each criterion also enforces its stated wall-clock budget, and the whole
module targets well under five minutes on a laptop CPU.
"""

import time

import numpy as np

from nexusopt.config import parse_config_text
from nexusopt.harness import run
from nexusopt.mlp import DataSource, MLPSpec, MLPTask
from nexusopt.nexus import NexusConfig
from nexusopt.numerics import fd_gradient, rng_root, rng_substream
from nexusopt.oracles import (
    cosgrad_analytic,
    random_probe_point,
    random_quadratic_taskset,
)
from nexusopt.parallel import map_in_workers
from nexusopt.tasks import QuadraticTask, TaskSet, random_cubic_task, random_spd_matrix
from nexusopt.validate import (
    check_closeness,
    check_convergence,
    check_generalization,
    check_nsgd_identity,
    check_second_order,
    check_third_order,
)
from reference import flatness_closeness_bound, gamma2_coefficient_from_enumeration


def report(name: str, ok: bool, detail: str, started: float | None = None, budget: float | None = None) -> None:
    if started is not None and budget is not None:
        elapsed = time.perf_counter() - started
        detail = f"{detail} [{elapsed:.1f}s / budget {budget:.0f}s]"
        ok = ok and elapsed < budget
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_a1_second_order_identity():
    t0 = time.perf_counter()
    results = {r.check_name: r for r in check_second_order()}
    bound_r = results["second_order_residual_within_bound"]
    slope_r = results["second_order_residual_slope"]
    ok = bound_r.passed and slope_r.passed
    report(
        "A1",
        ok,
        f"residual/bound max {bound_r.reading}, slope nearest an edge {slope_r.reading} "
        f"over 20 quadratic sets, K in (2,3), d in (2,5)",
        t0, 30,
    )


def test_a2_cossim_gradient_formula():
    t0 = time.perf_counter()
    results = {r.check_name: r for r in check_second_order()}
    quad_cubic = results["cossim_gradient_matches_fd"]

    root = rng_root(202)
    worst_mlp = 0.0
    spec = MLPSpec((4, 6, 2), "tanh")
    for idx in range(10):
        rng = rng_substream(root, f"mlp/{idx}")
        gen = rng.generator
        tasks = [
            MLPTask(spec, DataSource(gen.standard_normal((24, 4)), gen.standard_normal((24, 2))))
            for _ in range(2)
        ]
        theta = 0.5 * gen.standard_normal(spec.n_params)

        def cossim(x):
            gi, gj = tasks[0].grad(x), tasks[1].grad(x)
            return float(gi @ gj) / (np.linalg.norm(gi) * np.linalg.norm(gj))

        fd = fd_gradient(cossim, theta, eps=1e-5)
        analytic = cosgrad_analytic(tasks[0], tasks[1], theta)
        worst_mlp = max(worst_mlp, float(np.linalg.norm(analytic - fd)) / max(np.linalg.norm(fd), 1e-12))
    ok = quad_cubic.passed and worst_mlp <= 1e-3
    report(
        "A2",
        ok,
        f"analytic vs fd similarity gradient: rel err {quad_cubic.reading} (50 quadratic/cubic "
        f"pairs), {worst_mlp:.2e} (<=1e-3, 10 MLP pairs with fd HVPs)",
        t0, 30,
    )


def test_a3_convergence_contraction():
    t0 = time.perf_counter()
    results = check_convergence()
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.check_name} {r.reading}" for r in results)
    report("A3", ok, detail, t0, 10)


def test_a4_closeness_bound_chain():
    t0 = time.perf_counter()
    results = check_closeness()
    r = results[0]
    report("A4", r.passed, f"min slack {r.reading} over 100 SPD sets, K in (2,4,8)", t0, 10)


def test_a5_quadratic_generalization():
    t0 = time.perf_counter()
    results = {r.check_name: r for r in check_generalization()}
    gap = results["quadratic_gap_matches_theory"]
    bound = results["strongly_convex_bound_holds"]
    ok = gap.passed and bound.passed
    report(
        "A5",
        ok,
        f"max |gap - a*sigma^2/K|/SE {gap.reading} over 9 grid points; anisotropic "
        f"gap + 3 SE - bound {bound.reading}",
        t0, 60,
    )


def test_a6_nsgd_nexus_identity():
    t0 = time.perf_counter()
    results = check_nsgd_identity()
    r = results[0]
    report("A6", r.passed, f"max trajectory divergence {r.reading}, 10 instances x 50 pairs", t0, 5)


def test_a7_k1_degeneration_bitwise():
    base = parse_config_text(
        "seed = 707\n"
        "total_steps = 100\n"
        "metric_cadence = 1\n"
        "problem.kind = \"quadratic_family\"\n"
        "problem.k = 4\n"
        "problem.dim = 6\n"
        "schedule.kind = \"constant\"\n"
        "schedule.base_lr = 0.01\n"
        "nexus.gamma = 0.05\n"
        "nexus.inner_steps = 1\n"
    )
    rec_nexus = run(base.with_overrides({"optimizer.kind": "nexus_adamw"}))
    rec_nsgd = run(base.with_overrides({"optimizer.kind": "nsgd_adamw"}))
    identical_theta = np.array_equal(rec_nexus.final_theta, rec_nsgd.final_theta)
    identical_rows = all(
        ra.train_loss == rb.train_loss and ra.grad_norm == rb.grad_norm
        for ra, rb in zip(rec_nexus.rows, rec_nsgd.rows)
    )
    report("A7", identical_theta and identical_rows,
           "one-inner-step trajectory bit-identical to normalized-gradient feeding over 100 steps")


def test_a8_third_order_term():
    t0 = time.perf_counter()
    results = {r.check_name: r for r in check_third_order()}
    slope = results["third_order_residual_slope"]
    zero = results["third_order_tensor_term_zero_on_quadratics"]
    ok = slope.passed and zero.passed
    report(
        "A8",
        ok,
        f"cubic K=2 residual slope after the gamma^3 term nearest an edge {slope.reading}; "
        f"quadratic tensor term {zero.reading}",
        t0, 60,
    )


def test_a9_mechanism_at_desk_scale():
    t0 = time.perf_counter()
    seeds = list(range(1, 11))
    base_text = (
        "seed = {seed}\n"
        "total_steps = 400\n"
        "metric_cadence = 5\n"
        "problem.kind = \"mlp_multisource\"\n"
        "problem.k = 8\n"
        "problem.n_per_source = 512\n"
        "problem.shared_fraction = 0.5\n"
        "problem.widths = [8, 16, 8, 1]\n"
        "schedule.kind = \"cosine\"\n"
        "schedule.base_lr = 0.005\n"
        "nexus.gamma = 0.22\n"
        "nexus.inner_steps = 8\n"
    )
    kinds = ("adamw", "nexus_adamw")
    configs = [parse_config_text(base_text.format(seed=seed)).with_overrides({"optimizer.kind": kind})
               for seed in seeds for kind in kinds]
    records = map_in_workers(run, configs, workers=2)
    wins = 0
    loss_gaps, ood_deltas = [], []
    for seed in seeds:
        cos = {}
        summaries = {}
        for kind in kinds:
            rec = next(records)
            window = [r.mean_pairwise_cos for r in rec.rows
                      if r.step >= 0.8 * 400 and r.mean_pairwise_cos is not None]
            cos[kind] = float(np.mean(window))
            summaries[kind] = rec.summary
        wins += cos["nexus_adamw"] > cos["adamw"]
        loss_gaps.append(abs(summaries["nexus_adamw"]["train_loss"] - summaries["adamw"]["train_loss"]))
        ood_deltas.append(summaries["adamw"]["ood_loss"] - summaries["nexus_adamw"]["ood_loss"])
    ok = wins >= 8 and max(loss_gaps) <= 0.02
    report(
        "A9",
        ok,
        f"final-window cosine higher for the dual loop in {wins}/10 seeds; max train-loss gap "
        f"{max(loss_gaps):.4f} <= 0.02; OOD deltas (baseline - nexus, not gated): "
        f"mean {np.mean(ood_deltas):+.4f}, min {min(ood_deltas):+.4f}, max {max(ood_deltas):+.4f}",
        t0, 180,
    )


def test_a10_flatness_closeness_expansion():
    t0 = time.perf_counter()
    root = rng_root(1010)
    worst_eq = 0.0
    for idx in range(20):
        rng = rng_substream(root, f"quad/{idx}")
        downstream = QuadraticTask(random_spd_matrix(3, rng, (0.3, 4.0)), rng.generator.standard_normal(3))
        theta = rng.generator.standard_normal(3)
        fb = flatness_closeness_bound(theta, downstream)
        worst_eq = max(worst_eq, abs(downstream.loss(theta) - fb.bound))
    holds = True
    for idx in range(50):
        rng = rng_substream(root, f"cubic/{idx}")
        downstream = random_cubic_task(3, rng, third_bound=0.25)
        theta = downstream.minimizer + 0.3 * rng.generator.standard_normal(3)
        fb = flatness_closeness_bound(theta, downstream)
        holds = holds and downstream.loss(theta) <= fb.bound + 1e-12
    ok = worst_eq <= 1e-10 and holds
    report(
        "A10",
        ok,
        f"quadratic equality gap {worst_eq:.2e} <= 1e-10 (20 instances); inequality holds on 50 cubics",
        t0, 5,
    )


def test_a11_dot_variant_scale_pathology():
    t0 = time.perf_counter()
    rng = rng_root(1111)
    ts = random_quadratic_taskset(3, 2, rng)
    theta = random_probe_point(ts, rng_substream(rng, "probe"))
    scaled = TaskSet(ts.tasks, [10.0] * len(ts))

    dot_cfg = NexusConfig(0.05, 2, variant="dot")
    c2 = gamma2_coefficient_from_enumeration(ts, theta, dot_cfg)
    c2_scaled = gamma2_coefficient_from_enumeration(scaled, theta, dot_cfg)
    ratio = float(np.linalg.norm(c2_scaled) / np.linalg.norm(c2))

    cos_cfg = NexusConfig(1e-3, 2)
    k2 = gamma2_coefficient_from_enumeration(ts, theta, cos_cfg)
    k2_scaled = gamma2_coefficient_from_enumeration(scaled, theta, cos_cfg)
    cos_shift = float(np.linalg.norm(k2_scaled - k2))

    base = parse_config_text(
        "seed = 77\ntotal_steps = 200\nproblem.kind = \"quadratic_family\"\n"
        "problem.k = 4\nproblem.dim = 4\nschedule.base_lr = 0.02\n"
        "nexus.gamma = 0.05\nnexus.inner_steps = 4\n"
    )
    loss_cos = run(base.with_overrides({"optimizer.kind": "nexus_adamw"})).summary["train_loss"]
    loss_dot = run(base.with_overrides({"optimizer.kind": "nexus_dot_adamw"})).summary["train_loss"]

    ok = abs(ratio - 100.0) <= 1.0 and cos_shift <= 1e-8
    report(
        "A11",
        ok,
        f"dot-variant gamma^2 term scales x{ratio:.2f} (100 +- 1) under 10x loss scaling; "
        f"cosine-variant shift {cos_shift:.2e} <= 1e-8; fixed-seed train-loss gap dot-cos = "
        f"{loss_dot - loss_cos:+.4f} (reported, not gated)",
        t0, 30,
    )
