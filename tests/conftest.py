import os
import signal

import pytest

from nexusopt import parallel
from nexusopt.mlp import MLPSpec, MLPTask, make_synthetic_sources
from nexusopt.numerics import rng_root, rng_substream
from nexusopt.tasks import QuadraticTask, TaskSet, random_cubic_task, random_spd_matrix


@pytest.fixture()
def task_sets():
    """(name, task set, theta) for a quadratic, a cubic and an MLP set with unequal weights."""
    rng = rng_root(77)
    quad = TaskSet(
        [QuadraticTask(random_spd_matrix(5, rng_substream(rng, f"A{k}")), rng.generator.standard_normal(5))
         for k in range(6)],
        weights=[1.0, 0.5, 2.0, 1.0, 3.0, 0.25],
    )
    cubic = TaskSet([random_cubic_task(4, rng_substream(rng, f"cubic{k}")) for k in range(5)])
    # wide enough (169 parameters) that a BLAS G @ G.T sums in another order than per-pair dots
    spec = MLPSpec((6, 12, 6, 1), "tanh")
    sources, _ = make_synthetic_sources(5, 6, 1, 24, 0.5, rng_substream(rng, "data"))
    mlp = TaskSet([MLPTask(spec, src) for src in sources], weights=[1.0, 2.0, 0.5, 1.5, 1.0])
    gen = rng_substream(rng, "theta").generator
    return [
        ("quadratic", quad, gen.standard_normal(quad.dim)),
        ("cubic", cubic, gen.standard_normal(cubic.dim)),
        ("mlp", mlp, gen.standard_normal(mlp.dim)),
    ]


@pytest.fixture()
def forked_workers(monkeypatch):
    """The number of workers that each map_in_workers call forked while the test
    runs, one entry per call that forked any, a replacement for a dead worker included."""
    counts, calls = [], []
    real = parallel._fork_worker

    def recording(fn, items, inherited):
        # each call forks workers over its own list of items
        if not calls or calls[-1] is not items:
            calls.append(items)
            counts.append(0)
        counts[-1] += 1
        return real(fn, items, inherited)

    monkeypatch.setattr(parallel, "_fork_worker", recording)
    return counts


@pytest.fixture()
def kill_this_worker():
    """A function that SIGKILLs the process that calls it, which must be a worker
    the test forked: in the test's own process it raises instead."""
    test_pid = os.getpid()

    def kill():
        if os.getpid() == test_pid:
            raise AssertionError("only a forked worker may kill itself")
        os.kill(os.getpid(), signal.SIGKILL)

    return kill
