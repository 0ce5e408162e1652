"""An ordered map over forked worker processes, shared by sweeps and `validate`.

``map_in_workers`` forks its workers once and reuses each for many items. A
worker has a task pipe and a result pipe. It inherits the items through the
fork, so the parent writes only an item's index to the task pipe of a free
worker, and the worker writes back (ok, value), fn's result or the exception
it raised, as a length-prefixed pickle. So fn may be any callable; only
results cross the process boundary, and floats and arrays arrive bit for bit.
A worker inherits the modules already imported and the environment,
OPENBLAS_NUM_THREADS included, and the program starts no threads that a fork
could copy mid-operation. A worker exits when its task pipe reaches EOF, and
the kernel SIGKILLs it when the thread that forked it exits.

A worker has died when its result pipe reaches EOF while it runs an item (the
OOM killer, a crash inside BLAS, a kill, or a SystemExit or KeyboardInterrupt
out of fn, which ends the worker). That item alone fails, with a NexusError
naming the signal or exit status that ``os.waitpid`` reports, and a new
worker is forked for the items left.
"""

from __future__ import annotations

import os
import pickle
import sys

from .errors import NexusError


def _exit_with_parent(parent_pid: int) -> None:
    """In a worker: on Linux the kernel SIGKILLs the worker when the thread
    that forked it, the one consuming map_in_workers, exits."""
    import ctypes
    import signal

    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        if libc.prctl(1, signal.SIGKILL, 0, 0, 0) != 0:  # 1 = PR_SET_PDEATHSIG
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent_pid:  # the parent died before the prctl call
        os._exit(1)


def _flush_stdio() -> None:
    """Flush sys.stdout and sys.stderr, so that a fork copies no buffered line and an os._exit loses none."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # None, or closed
            pass


def _serve(fn, items, tasks, results) -> None:
    """A worker's loop: run fn on each index read from tasks, write (ok, value) to results."""
    while len(index := tasks.read(4)) == 4:
        i = int.from_bytes(index, "little")
        try:
            ok, value = True, fn(items[i])
        except Exception as exc:  # raised at its item's position in the parent
            ok, value = False, exc
        try:
            data = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            what = "result" if ok else "exception"
            error = NexusError(f"item {i}: its {what} of type {type(value).__name__} cannot be pickled: {exc}")
            data = pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)
        results.write(len(data).to_bytes(8, "little"))
        results.write(data)
        results.flush()


def _fork_worker(fn, items, inherited: list):
    """Fork one worker; return (pid, its task pipe, its result pipe). inherited
    holds the parent's ends of the other workers' pipes, which the child closes."""
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    parent = os.getpid()
    _flush_stdio()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_r, task_w, result_r, result_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (task_w, result_r, *(f.fileno() for f in inherited)):
                os.close(fd)
            _exit_with_parent(parent)
            _serve(fn, items, os.fdopen(task_r, "rb"), os.fdopen(result_w, "wb"))
            code = 0
        finally:
            _flush_stdio()
            os._exit(code)
    os.close(task_r)
    os.close(result_w)
    return pid, os.fdopen(task_w, "wb", buffering=0), os.fdopen(result_r, "rb")


def _death(pid: int) -> NexusError:
    """Reap the dead worker pid: the error of the item it was running."""
    import signal

    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        signum = os.WTERMSIG(status)
        names = {s.value: s.name for s in signal.Signals}  # a real-time signal has no name
        how = f"was killed by {names.get(signum, f'signal {signum}')}"
    else:
        how = f"exited with status {os.waitstatus_to_exitcode(status)}"
    return NexusError(f"the worker process running it {how}")


def _raise(item, error):
    raise error


def map_in_workers(fn, items, workers: int = 1, on_death=_raise):
    """Yield fn(item) for each item, in input order.

    With workers <= 1, or a single item, every call runs in this process.
    Otherwise the calls run in min(workers, len(items)) forked worker
    processes, which exit when the process consuming this generator dies. An
    exception that fn raises, or that its result cannot be pickled, propagates
    at its item's position, after the results before it; no new item starts
    after it, and the items already running finish. When a worker dies, its
    item's place holds on_death(item, error), error being a NexusError naming
    the signal; by default on_death raises it. No worker is left once the
    generator returns, raises or is closed.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    # imported here: a serial start needs neither. signal is imported before the first
    # fork (ctypes comes with numpy), so that a worker finds both loaded and imports nothing
    import selectors
    import signal  # noqa: F401

    selector = selectors.DefaultSelector()
    busy = {}  # a running worker's result pipe -> (pid, task pipe, index of its item)
    pids = []  # every worker not yet reaped
    done = {}  # index -> (ok, value), until it is yielded
    pending = list(range(len(items)))[::-1]
    failed = False

    def fork():
        worker = _fork_worker(fn, items, [tasks for _, tasks, _ in busy.values()] + list(busy))
        pids.append(worker[0])
        selector.register(worker[2], selectors.EVENT_READ)
        return worker

    def retire(tasks, results):
        tasks.close()
        selector.unregister(results)
        results.close()

    def dispatch(pid, tasks, results):
        """Hand the worker the next item, or retire it when no item should start."""
        if failed or not pending:
            return retire(tasks, results)
        i = pending.pop()
        busy[results] = (pid, tasks, i)
        try:
            tasks.write(i.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # the worker is dead: its result pipe reads EOF, which fails item i

    try:
        for _ in range(workers):
            dispatch(*fork())
        for position in range(len(items)):
            while position not in done:
                for key, _ in selector.select():
                    results = key.fileobj
                    pid, tasks, i = busy.pop(results)
                    head = results.read(8)
                    size = int.from_bytes(head, "little")
                    data = results.read(size) if len(head) == 8 else b""
                    if len(head) == 8 and len(data) == size:
                        try:
                            done[i] = pickle.loads(data)
                        except Exception as exc:
                            done[i] = (False, NexusError(f"item {i}: its outcome cannot be unpickled: {exc}"))
                        failed = failed or not done[i][0]
                        dispatch(pid, tasks, results)
                        continue
                    retire(tasks, results)
                    pids.remove(pid)
                    try:
                        done[i] = (True, on_death(items[i], _death(pid)))
                    except Exception as exc:
                        done[i], failed = (False, exc), True
                    if pending and not failed:
                        dispatch(*fork())
            ok, value = done.pop(position)
            if not ok:
                raise value
            yield value
    finally:
        for results, (_, tasks, _) in busy.items():
            tasks.close()
            results.close()
        selector.close()
        for pid in pids:
            os.waitpid(pid, 0)
