"""Theorem-validation suites behind the `validate` CLI subcommand.

Each check runs deterministic seeded fixtures, measures one quantity and
reports one record: {check_name, status, measured, lower, upper, detail}. It
passes when measured is finite and lower <= measured <= upper. An open edge
is None (null in the JSON), and a measured value that is not finite is
recorded as None and fails. ``_result`` is the one place that decides a
status, so a reader can re-judge every status from the report's numbers.
The suites take no settings: their seeds, sizes and edges are constants, so
the acceptance tests call the same functions that the report runs.

The suites are independent and separately seeded, so ``validate_theorems``
runs them in forked worker processes through ``parallel.map_in_workers``, as
many as it is given (the CLI passes the sweep's worker count). It dispatches
them longest first, so that the longest suite does not start last, and joins
their results in table order: the report is the same bytes for any count. A
suite whose worker dies fails the whole report with a NexusError naming the
suite and the signal, and no further suite starts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateGradient, NexusError
from .nexus import NexusConfig
from .numerics import fd_gradient, norm, rng_root, rng_substream
from .oracles import (
    CurvatureBounds,
    closeness_bound_check,
    common_minimizer_taskset,
    convergence_contraction,
    cosgrad_analytic,
    expected_gap_exact,
    expected_pseudo_gradient_exact,
    general_gap_bound,
    measure_sgd_contraction,
    nsgd_nexus_identity_check,
    quadratic_gap,
    quadratic_smoothness_constants,
    random_probe_point,
    random_quadratic_taskset,
    second_order_direction,
    second_order_error_bound,
    third_order_direction,
)
from .parallel import map_in_workers
from .tasks import TaskSet, mean_pairwise_cosine, random_cubic_task, random_spd_matrix, task_grads


@dataclass
class CheckResult:
    check_name: str
    status: str  # "pass" | "fail"
    measured: float | None  # None when not finite
    lower: float | None  # None for an open edge
    upper: float | None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def reading(self) -> str:
        """'<measured> in [<lower>, <upper>]', an open edge shown as -inf or inf."""
        def shown(value, open_edge):
            return open_edge if value is None else f"{value:.6g}"

        return f"{shown(self.measured, 'null')} in [{shown(self.lower, '-inf')}, {shown(self.upper, 'inf')}]"


def _result(name, measured, lower, upper, detail):
    """The record of a check that passes when measured is finite and within [lower, upper]."""
    measured = float(measured)
    ok = (math.isfinite(measured) and (lower is None or lower <= measured)
          and (upper is None or measured <= upper))
    return CheckResult(name, "pass" if ok else "fail", measured if math.isfinite(measured) else None,
                       lower, upper, detail)


def _nearest_edge_result(name, values, lower, upper, detail):
    """The record of the value nearest an edge of [lower, upper], or farthest outside it, or
    not finite: it passes exactly when every value lies within the edges."""
    def excess(v):
        return max(lower - v, v - upper) if math.isfinite(v) else math.inf

    return _result(name, max(values, key=excess), lower, upper, detail)


def _loglog_slope(gammas, residuals) -> float:
    lg = np.log(np.asarray(gammas, dtype=float))
    lr = np.log(np.asarray(residuals, dtype=float))
    return float(np.polyfit(lg, lr, 1)[0])


# --------------------------------------------------------------------------


def check_second_order(gamma_override: float | None = None) -> list:
    """Residual of the two-term expansion vs. the exact enumeration, gated by
    the cubic-in-gamma error bound, plus a log-log slope check.

    ``gamma_override`` replaces the gamma grid (single value, no slope check);
    the huge-gamma negative control uses it.
    """
    root = rng_root(10130)
    n_sets = 20
    results = []
    gammas = (1e-2, 1e-3) if gamma_override is None else (gamma_override,)
    dims = (2, 5)
    Ks = (2, 3)
    worst_ratio = 0.0
    slopes = []
    for idx in range(n_sets):
        rng = rng_substream(root, f"set/{idx}")
        K = Ks[idx % len(Ks)]
        dim = dims[(idx // 2) % len(dims)]
        ts = random_quadratic_taskset(dim, K, rng)
        theta = random_probe_point(ts, rng_substream(rng, "probe"))
        residuals = []
        for gamma in gammas:
            cfg = NexusConfig(float(gamma), K)
            exact = expected_pseudo_gradient_exact(ts, theta, cfg)
            approx = second_order_direction(ts, theta, cfg)
            resid = norm(exact - approx)
            residuals.append(resid)
            try:
                consts = quadratic_smoothness_constants(ts, theta, cfg.inner_steps * float(gamma))
                bound = second_order_error_bound(consts, cfg.inner_steps, float(gamma))
            except DegenerateGradient:
                # the gradient floor assumption fails over the reachable region,
                # so the bound gives no coverage at all
                bound = 0.0
            worst_ratio = max(worst_ratio, resid / bound if bound > 0 else np.inf)
        if len(gammas) >= 2:
            slopes.append(_loglog_slope(gammas, residuals))
    results.append(
        _result("second_order_residual_within_bound", worst_ratio, None, 1.0,
                f"max residual/bound over {n_sets} quadratic sets, gammas {gammas}")
    )
    if slopes:
        results.append(
            _nearest_edge_result("second_order_residual_slope", slopes, 2.8, 3.2,
                                 "log-log residual slope nearest an edge, over all sets")
        )
    # similarity-gradient formula vs. central differences
    worst_rel = 0.0
    for idx in range(50):
        rng = rng_substream(root, f"cosgrad/{idx}")
        dim = dims[idx % 2]
        if idx % 2 == 0:
            ts = random_quadratic_taskset(dim, 2, rng)
        else:
            ts = TaskSet([random_cubic_task(dim, rng_substream(rng, str(j)), 0.4) for j in range(2)])
        theta = random_probe_point(ts, rng_substream(rng, "probe"))
        analytic = cosgrad_analytic(ts[0], ts[1], theta)
        # the mean_pairwise_cos column's function; at K = 2 it is the pair's cosine, bit for bit
        fd = fd_gradient(lambda x: mean_pairwise_cosine(task_grads(ts, x)), theta, eps=1e-6)
        denom = max(norm(fd), 1e-12)
        worst_rel = max(worst_rel, norm(analytic - fd) / denom)
    results.append(
        _result("cossim_gradient_matches_fd", worst_rel, None, 1e-6,
                "analytic similarity gradient vs central differences, 50 quadratic/cubic pairs")
    )
    return results


def check_third_order() -> list:
    """Cubic K=2 fixtures: after subtracting the full three-term expansion the
    residual must scale as gamma^4; a zero third-derivative tensor must leave
    the three-term expansion of a quadratic set exactly unchanged."""
    root = rng_root(9041)
    gammas = (1e-1, 1e-2, 1e-3)
    results = []
    slopes = []
    for idx in range(4):
        rng = rng_substream(root, f"cubic/{idx}")
        ts = TaskSet([random_cubic_task(3, rng_substream(rng, str(j)), 0.5) for j in range(2)])
        theta = random_probe_point(ts, rng_substream(rng, "probe"))
        residuals = []
        for gamma in gammas:
            cfg = NexusConfig(float(gamma), 2)
            exact = expected_pseudo_gradient_exact(ts, theta, cfg)
            residuals.append(norm(exact - third_order_direction(ts, theta, cfg)))
        slopes.append(_loglog_slope(gammas, residuals))
    results.append(
        _nearest_edge_result("third_order_residual_slope", slopes, 3.8, 4.2,
                             f"cubic K=2 residual slope nearest an edge, over gammas {gammas}")
    )
    rng = rng_substream(root, "quad")
    ts = random_quadratic_taskset(3, 2, rng)
    theta = random_probe_point(ts, rng_substream(rng, "probe"))
    # the same tasks with a zero tensor: M = 3 reaches the off-diagonal contractions too
    zero = TaskSet([replace(t, third=np.zeros((3, 3, 3))) for t in ts.tasks])
    cfg = NexusConfig(1e-2, 3)
    tensor_norm = norm(third_order_direction(zero, theta, cfg) - third_order_direction(ts, theta, cfg))
    results.append(
        _result("third_order_tensor_term_zero_on_quadratics", tensor_norm, 0.0, 0.0,
                "the third-derivative piece vanishes exactly when the tensor is zero")
    )
    return results


def check_closeness() -> list:
    root = rng_root(5150)
    n_sets, Ks, slack = 100, (2, 4, 8), -1e-10
    worst = np.inf
    for idx in range(n_sets):
        rng = rng_substream(root, f"set/{idx}")
        K = Ks[idx % len(Ks)]
        dim = 2 + idx % 4
        ts = random_quadratic_taskset(dim, K, rng)
        report = closeness_bound_check(ts)
        worst = min(worst, report.first_slack, report.second_slack)
    return [
        _result("closeness_chain_inequalities", worst, slack, None,
                f"min slack over {n_sets} random SPD sets, K in {Ks}")
    ]


def check_convergence() -> list:
    root = rng_root(77)
    steps = 200
    results = []
    for kappa in (2, 5, 10):
        mu, L = 1.0, float(kappa)
        gamma = 2.0 / (L + mu)
        factor = convergence_contraction(mu, L, gamma)
        rng = rng_substream(root, f"kappa/{kappa}")
        ts = common_minimizer_taskset(4, 4, mu, L, rng)
        theta0 = ts[0].minimizer + rng.generator.standard_normal(4)
        ratios = measure_sgd_contraction(ts, theta0, gamma, steps, rng_substream(rng, "path"))
        worst = float(ratios.max())
        results.append(
            _result(f"convergence_per_step_kappa_{kappa}", worst, None, factor + 1e-12,
                    f"max per-step squared-distance ratio over {steps} steps")
        )
        # the 200-step cumulative contraction underflows double precision, so compare logs
        log_cumulative = float(np.sum(np.log(ratios)))
        log_target = 2 * steps * math.log((kappa - 1) / (kappa + 1))
        results.append(
            _result(f"convergence_cumulative_kappa_{kappa}", log_cumulative, None, log_target + 1e-9,
                    "log of the cumulative contraction at the optimal step size")
        )
    return results


def check_generalization() -> list:
    """The gap formula a*sigma^2/K and the strongly-convex bound at kappa = 1 each equal the
    exact expected gap to a relative 1e-12 on an isotropic grid; on anisotropic Hessians the
    bound holds."""
    root = rng_root(314)
    formula_gaps, tight_gaps = [], []
    for a in (0.5, 1.0, 2.0):
        for K, sig in ((2, 0.25), (4, 0.5), (8, 1.0)):
            exact = expected_gap_exact(a * np.eye(4), K, sig)
            formula_gaps.append(exact / quadratic_gap(a, K, sig) - 1.0)
            tight_gaps.append(exact / general_gap_bound(CurvatureBounds(a, a), K, sig) - 1.0)
    excess = []
    for kappa in (2.0, 5.0):
        A = random_spd_matrix(4, rng_substream(root, f"aniso/{kappa}"), (1.0, kappa))
        lam_min, lam_max = np.linalg.eigvalsh(A)[[0, -1]]  # ascending
        K, sig = 4, 0.5
        excess.append(expected_gap_exact(A, K, sig) - general_gap_bound(CurvatureBounds(lam_min, lam_max), K, sig))
    return [
        _nearest_edge_result("quadratic_gap_matches_theory", formula_gaps, -1e-12, 1e-12,
                             "exact gap / (a*sigma^2/K) - 1 nearest an edge, over 9 grid points"),
        _result("strongly_convex_bound_holds", max(excess), None, 0.0,
                "max exact anisotropic gap - curvature bound, kappa in (2, 5)"),
        _nearest_edge_result("strongly_convex_bound_tight_at_kappa_1", tight_gaps, -1e-12, 1e-12,
                             "exact gap / (curvature bound at kappa = 1) - 1 nearest an edge, over 9 grid points"),
    ]


def check_nsgd_identity() -> list:
    root = rng_root(12)
    n_instances, n_pairs = 10, 50
    worst = 0.0
    for idx in range(n_instances):
        rng = rng_substream(root, f"inst/{idx}")
        ts = random_quadratic_taskset(3, 2, rng)
        theta0 = random_probe_point(ts, rng_substream(rng, "probe"))
        div = nsgd_nexus_identity_check(theta0, ts, gamma=0.05, n_pairs=n_pairs, rng=rng_substream(rng, "order"))
        worst = max(worst, div)
    return [
        _result("nsgd_equals_two_step_nexus", worst, None, 1e-12,
                f"max trajectory divergence over {n_instances} instances x {n_pairs} step pairs")
    ]


_SUITE_FNS = {
    "second_order": check_second_order,
    "third_order": check_third_order,
    "closeness": check_closeness,
    "convergence": check_convergence,
    "generalization": check_generalization,
    "nsgd_identity": check_nsgd_identity,
}
SUITES = ("all", *_SUITE_FNS)

# _SUITE_FNS by serial time, longest first (best of 3: about 52, 41, 23, 9, 7
# and 0.5 ms on a 2-core Xeon VM): two workers then finish in about half the serial total
_DISPATCH_ORDER = ("second_order", "closeness", "nsgd_identity", "convergence", "third_order", "generalization")


def _run_suite(job) -> list:
    """The CheckResults of one suite; job is (name, gamma_override), and the
    override reaches only second_order."""
    name, gamma_override = job
    fn = _SUITE_FNS[name]
    if name == "second_order" and gamma_override is not None:
        return fn(gamma_override=gamma_override)
    return fn()


def _lost_suite(job, exc: NexusError):
    """A suite's worker died: no check of it can be reported."""
    raise NexusError(f"suite {job[0]}: {exc}") from exc


def validate_theorems(suite: str = "all", gamma_override: float | None = None, workers: int = 1) -> list:
    """Run one suite (or all) and return the list of CheckResults, in ``_SUITE_FNS`` order.

    The suites run through ``map_in_workers`` in ``_DISPATCH_ORDER``, in up to
    ``workers`` forked worker processes (one suite runs in this process); each
    suite seeds its own fixtures, so the results are the same bits for any
    worker count. When several suites raise, the error of the first of them in
    dispatch order is the one raised; a suite whose worker dies raises a
    NexusError "suite <name>: ..." that names the signal, and the suites
    already running finish first. An unknown suite, or a gamma override
    that is not finite and > 0 or is given for a suite other than all and
    second_order, is a ConfigError, raised before any suite runs.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if gamma_override is not None:
        if suite not in ("all", "second_order"):
            raise ConfigError(f"a gamma override applies to the second_order suite (or all), not {suite!r}")
        if not (math.isfinite(gamma_override) and gamma_override > 0):
            raise ConfigError(f"a gamma override must be finite and > 0, got {gamma_override!r}")
    names = _DISPATCH_ORDER if suite == "all" else (suite,)
    jobs = [(name, gamma_override) for name in names]
    by_name = dict(zip(names, map_in_workers(_run_suite, jobs, workers, on_death=_lost_suite)))
    return [check for name in (_SUITE_FNS if suite == "all" else names) for check in by_name[name]]


def report_to_dict(results) -> dict:
    return {
        "checks": [asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
