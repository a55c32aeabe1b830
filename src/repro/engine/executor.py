"""The process-pool execution tier: paid answering beyond the GIL.

The serving layer's thread pool scales the *numpy* parts of a request
(matvecs release the GIL), but the Python-side hot path — mechanism
dispatch, least-squares bookkeeping, noise-stream handling — serializes on
the interpreter lock, and the ``engine_throughput`` bench showed paid
answering flat (even regressing) as thread workers were added.  This module
moves the two CPU-heavy stages to a ``ProcessPoolExecutor``:

* **paid answering** — ``Plan.execute`` (noise draw + inference) runs in a
  worker process; the parent keeps the accountant, the plan cache, the
  release pool, and every other piece of authoritative state;
* **cold strategy optimization** — a :class:`~repro.engine.planner.Planner`
  with a :attr:`~repro.engine.planner.Planner.build_offload` hook ships the
  build to a worker and caches the returned plan as usual.

**What crosses the pickle boundary.**  A worker receives ``(key, plan,
workload, data, params, rng)`` and returns the :class:`~repro.mechanisms
.matrix_mechanism.MechanismResult`.  Plans are content-addressed (the
``key`` is the planner's cache key), so each worker keeps a small memo of
``key -> (plan, workload)`` and the parent ships the *key alone* first;
only a worker that has never seen the key answers with
:class:`_NeedPayload` and the parent resends the full objects once.  After
each worker has seen a hot shape, a request costs one tiny payload (the
data vector and the request's RNG state) each way instead of re-pickling
a potentially dense strategy.

**Determinism.**  The per-request :class:`numpy.random.Generator` is pickled
with its exact state, and mechanism execution is a pure function of
``(plan content, data, params, rng state)``, so a process-pool answer is
bit-for-bit the answer the parent would have computed itself —
``tests/test_engine_execution.py`` asserts exactly that against the
single-process oracle.

Workers are started with the ``spawn`` method by default: the parent runs
thread pools, and forking a multi-threaded process can clone a held lock
into the child and deadlock it.  Spawned workers re-import :mod:`repro`
(the package must be importable in the child, e.g. via ``PYTHONPATH``);
set ``REPRO_PROCESS_START_METHOD=fork`` to trade that safety for cheaper
worker start-up on platforms where it is acceptable.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import multiprocessing

__all__ = ["ProcessExecutor"]

#: Per-worker bound on memoised ``key -> (plan, workload)`` entries.  Plans
#: hold strategies (the real memory cost), and a worker only needs the hot
#: shapes; LRU keeps them and drops the tail.
WORKER_PLAN_MEMO_ENTRIES = 16

#: Worker-process memo (single-threaded per worker: no lock needed).
_PLAN_MEMO: "OrderedDict[str, tuple]" = OrderedDict()


class _NeedPayload:
    """Worker-side sentinel: "I have no plan under this key — resend it"."""


def _memo_put(key: str, plan, workload) -> None:
    _PLAN_MEMO[key] = (plan, workload)
    _PLAN_MEMO.move_to_end(key)
    while len(_PLAN_MEMO) > WORKER_PLAN_MEMO_ENTRIES:
        _PLAN_MEMO.popitem(last=False)


def _execute_in_worker(key, plan, workload, data, params, random_state):
    """Top-level worker entry point: run one plan, content-addressed.

    When ``key`` is known, the memoised ``(plan, workload)`` pair is
    preferred over a freshly unpickled one — same content (the key is a
    content digest), but the memoised mechanism keeps its factorisation
    caches warm across requests, exactly like the parent's thread path.
    """
    if key is not None:
        cached = _PLAN_MEMO.get(key)
        if cached is not None:
            _PLAN_MEMO.move_to_end(key)
            plan, workload = cached
        elif plan is None or workload is None:
            return _NeedPayload()
        else:
            _memo_put(key, plan, workload)
    return plan.execute(workload, data, params, random_state=random_state)


def _optimize_in_worker(workload, params, key, config):
    """Top-level worker entry point: build one cold plan.

    A throwaway cache-less planner reproduces the parent planner's
    configuration; the finished plan is memoised worker-side (the very next
    request for this key often lands on the same worker) and pickled back
    for the parent's authoritative plan cache.
    """
    from repro.engine.planner import Planner

    planner = Planner(cache=None, **config)
    plan = planner._build_plan(workload, params, key)
    if key is not None:
        _memo_put(key, plan, workload)
    return plan


def _pickling_failure(error: BaseException) -> bool:
    """Whether ``error`` came from the payload failing to serialize."""
    if isinstance(error, pickle.PicklingError):
        return True
    return isinstance(error, (TypeError, AttributeError)) and "pickle" in str(error)


class ProcessExecutor:
    """Executes plans (and cold plan builds) on a pool of worker processes.

    Parameters
    ----------
    workers:
        Worker-process count.  The calling threads (the server's request
        pool) block on their futures, so concurrency is bounded by whichever
        of the two pools is smaller.
    start_method:
        ``multiprocessing`` start method; default ``spawn`` (see the module
        docstring), overridable via ``REPRO_PROCESS_START_METHOD``.

    The executor degrades, never breaks: a payload that cannot be pickled,
    or a pool that died, falls back to executing inline on the calling
    thread (counted in :attr:`inline_fallbacks`) — correctness is identical
    either way, only the parallelism is lost.
    """

    def __init__(self, workers: int = 4, *, start_method: str | None = None):
        self.workers = max(1, int(workers))
        if start_method is None:
            start_method = os.environ.get("REPRO_PROCESS_START_METHOD", "spawn")
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(start_method),
        )
        self._lock = threading.Lock()
        self._closed = False
        self.executed = 0
        self.plans_offloaded = 0
        self.payload_resends = 0
        self.inline_fallbacks = 0

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut the worker pool down (idempotent); in-flight work finishes."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def warm_up(self) -> None:
        """Start one worker eagerly (pays the spawn + import cost up front)."""
        try:
            self._pool.submit(time.time).result()
        except BrokenProcessPool:  # pragma: no cover - environment-specific
            pass

    # ------------------------------------------------------------- execution
    def execute(self, plan, workload, data, params, random_state, key=None):
        """Run ``plan`` on a worker; bit-identical to running it inline.

        Ships the content-address first (``key``), the full objects only to
        a worker that asks (:class:`_NeedPayload`), so hot shapes cross the
        boundary once per worker.  ``random_state`` must be the request's
        own generator — its pickled state is what makes the worker's noise
        draw identical to the parent's.
        """
        with self._lock:
            closed = self._closed
        if closed:
            return self._inline(plan, workload, data, params, random_state)
        try:
            if key is not None:
                result = self._pool.submit(
                    _execute_in_worker, key, None, None, data, params, random_state
                ).result()
                if isinstance(result, _NeedPayload):
                    with self._lock:
                        self.payload_resends += 1
                    result = self._pool.submit(
                        _execute_in_worker, key, plan, workload, data, params, random_state
                    ).result()
            else:
                result = self._pool.submit(
                    _execute_in_worker, None, plan, workload, data, params, random_state
                ).result()
        except BrokenProcessPool:
            return self._inline(plan, workload, data, params, random_state)
        except Exception as error:
            if _pickling_failure(error):
                return self._inline(plan, workload, data, params, random_state)
            raise
        with self._lock:
            self.executed += 1
        return result

    def _inline(self, plan, workload, data, params, random_state):
        with self._lock:
            self.inline_fallbacks += 1
        return plan.execute(workload, data, params, random_state=random_state)

    # ---------------------------------------------------------- cold planning
    def optimize(self, workload, params, key, config):
        """Build a cold plan on a worker; ``None`` tells the caller to build
        inline (closed pool, unpicklable workload, dead workers)."""
        with self._lock:
            if self._closed:
                return None
        try:
            plan = self._pool.submit(
                _optimize_in_worker, workload, params, key, dict(config)
            ).result()
        except BrokenProcessPool:
            return None
        except Exception as error:
            if _pickling_failure(error):
                return None
            raise
        with self._lock:
            self.plans_offloaded += 1
        return plan

    # ------------------------------------------------------------- monitoring
    def stats(self) -> dict:
        """Lifetime counters for the execution tier."""
        with self._lock:
            return {
                "workers": self.workers,
                "executed": self.executed,
                "plans_offloaded": self.plans_offloaded,
                "payload_resends": self.payload_resends,
                "inline_fallbacks": self.inline_fallbacks,
            }
