"""An ordered map over forked worker processes, shared by sweeps and `validate`.

A forked worker inherits the modules already imported and the environment,
OPENBLAS_NUM_THREADS included, and the program starts no threads that a fork
could copy mid-operation. Functions and results cross the process boundary by
pickling, so a mapped function must be a module-level one; floats and arrays
arrive bit for bit.
"""

from __future__ import annotations

import os
import sys


def _exit_with_parent(parent_pid: int) -> None:
    """Worker initializer: on Linux the kernel SIGKILLs the worker when the thread
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


def map_in_workers(fn, items, workers: int = 1):
    """Yield fn(item) for each item, in input order.

    With workers <= 1, or a single item, every call runs in this process.
    Otherwise the calls run in min(workers, len(items)) forked worker
    processes, which exit when the process consuming this generator dies. An
    exception that fn raises propagates at its item's position, after the
    results before it.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    # imported here: they add about 30 ms to every start of the program
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_exit_with_parent, initargs=(os.getpid(),)) as pool:
        yield from pool.map(fn, items)
