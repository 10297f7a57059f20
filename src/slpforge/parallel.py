"""Independent jobs on a thread per CPU, for the .cay reader's row parsing,
the one stage that gains from them.  The pool of ``workers()`` threads is
created on first use; a forked child forgets its copy of the parent's, which
has no threads, and creates its own.  The calling thread waits meanwhile:
running one job on it as well measured slower on zoo-auto.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence, TypeVar

_J = TypeVar("_J")
_R = TypeVar("_R")

_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def workers() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[_J], _R], jobs: Sequence[_J]) -> list[_R]:
    """``[fn(job) for job in jobs]``, one job per pool thread when there are
    several.  Every job finishes before an error is raised, and the error
    raised is that of the first failing job in order."""
    if len(jobs) <= 1:
        return [fn(job) for job in jobs]
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # ~6 ms, paid on first use only

            _pool = ThreadPoolExecutor(workers(), "slpforge")
        futures = [_pool.submit(fn, job) for job in jobs]
    for future in futures:
        future.exception()  # wait, so that no job still runs once one has raised
    return [future.result() for future in futures]
