import io
import json
import os
import subprocess
import sys
import threading

import pytest

import nexusopt
from nexusopt.errors import NexusError
from nexusopt.parallel import map_in_workers

CHILDREN = f"/proc/{os.getpid()}/task/{threading.get_native_id()}/children"
needs_child_lists = pytest.mark.skipif(not os.path.exists(CHILDREN), reason="needs Linux /proc child lists")


def _children():
    with open(CHILDREN) as f:
        return f.read().split()


def test_results_come_back_in_input_order_whichever_worker_finishes_first():
    def slow_when_even(x):
        if x % 2 == 0:
            threading.Event().wait(0.02)
        return x * x

    assert list(map_in_workers(slow_when_even, range(7), workers=3)) == [x * x for x in range(7)]


def test_a_dead_worker_fails_only_its_item_and_is_replaced(kill_this_worker):
    def die_first(x):
        if x < 2:  # both workers that the map starts with
            kill_this_worker()
        return x * 10

    lost = []

    def on_death(item, error):
        lost.append((item, type(error), str(error)))
        return "lost"

    assert list(map_in_workers(die_first, range(6), 2, on_death)) == ["lost", "lost", 20, 30, 40, 50]
    assert sorted(lost) == [(x, NexusError, "the worker process running it was killed by SIGKILL") for x in (0, 1)]


def test_a_dead_worker_raises_at_its_position_by_default(kill_this_worker):
    def die_at_two(x):
        if x == 2:
            kill_this_worker()
        return x

    got = []
    with pytest.raises(NexusError, match="^the worker process running it was killed by SIGKILL$"):
        for value in map_in_workers(die_at_two, range(6), 2):
            got.append(value)
    assert got == [0, 1]


class UnpicklableError(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


@pytest.mark.parametrize("outcome, named", [("result", "function"), ("exception", "UnpicklableError")])
def test_an_outcome_that_cannot_be_pickled_fails_its_item_naming_its_type(outcome, named):
    def unpicklable_at_one(x):
        if x == 1 and outcome == "exception":
            raise UnpicklableError()
        return (lambda: x) if x == 1 else x

    got = []
    with pytest.raises(NexusError) as err:
        for value in map_in_workers(unpicklable_at_one, range(4), 2):
            got.append(value)
    assert got == [0]
    assert str(err.value).startswith(f"item 1: its {outcome} of type {named} cannot be pickled")
    assert "worker" not in str(err.value)


def _pipes():
    """The pipes that this process holds an end of."""
    links = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            links.add(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the directory listing's own descriptor, closed by now
            pass
    return {link for link in links if link.startswith("pipe:")}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc fd lists")
def test_each_worker_holds_only_its_own_two_pipes():
    before = _pipes()

    def own_pipes(_):
        return len(_pipes() - before)

    # every worker starts before any result is read, the last one with the most pipes to inherit
    assert list(map_in_workers(own_pipes, range(4), 4)) == [2, 2, 2, 2]
    assert _pipes() == before


@needs_child_lists
def test_no_worker_is_left_after_the_map_returns_raises_or_is_closed():
    def fail_at_three(x):
        if x == 3:
            raise ValueError("three")
        return x

    before = _children()
    assert list(map_in_workers(fail_at_three, range(3), 2)) == [0, 1, 2]
    assert _children() == before
    with pytest.raises(ValueError, match="three"):
        list(map_in_workers(fail_at_three, range(8), 2))
    assert _children() == before
    gen = map_in_workers(fail_at_three, range(8), 2)
    assert next(gen) == 0
    gen.close()
    assert _children() == before


def test_a_line_printed_around_a_fork_appears_exactly_once(capfd, monkeypatch):
    # block-buffered, as sys.stdout is when it is a file or a pipe
    stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(1, "w", closefd=False)))
    monkeypatch.setattr(sys, "stdout", stdout)

    def noisy(x):
        print(f"item {x}")
        return x

    print("before the map")
    assert list(map_in_workers(noisy, range(4), 2)) == [0, 1, 2, 3]
    stdout.flush()
    monkeypatch.undo()
    lines = capfd.readouterr().out.splitlines()
    assert sorted(lines) == sorted(["before the map", *(f"item {x}" for x in range(4))])


def test_a_forked_worker_imports_no_module_of_its_own():
    """A fresh interpreter, where nothing has imported the modules a worker's
    set-up uses: each worker finds them loaded by the parent before the fork."""
    script = (
        "import json, sys\n"
        "from nexusopt.parallel import map_in_workers\n"
        "held = list(map_in_workers(lambda _: sorted(sys.modules), range(2), 2))\n"
        "print(json.dumps(sorted(set().union(*held) - set(sys.modules))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nexusopt.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
