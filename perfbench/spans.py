"""In-memory span tracing through timing shims around the engine's layers.

The engine has no span mechanism of its own yet, so the traced pass wraps
the public functions of each layer from the outside, patched at the name the
caller looks up (``repro.engine.planner.eigen_design``, not
``repro.core.eigen_design.eigen_design``).  Nothing under ``src/`` changes.

A span records its name, start, end, parent and request id.  The outermost
server entry on a worker thread (``Server.ask``, or ``Server.handle_request``
for JSON lines) opens a request and gets a fresh id; every span nested under
it on the same thread inherits that id.  Spans stay in memory until
:meth:`Tracer.write_jsonl` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "LAYER_SHIMS", "ROOT_SHIMS", "self_times"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span, or None
    request: int | None  # request id, or None outside any request
    thread: int
    value: object = None  # what the call returned, for the names in RESULT_VALUES


#: (module, attribute path, span name).  Each is patched where its caller
#: looks it up: module-level names in the calling module, methods on their
#: class.
LAYER_SHIMS = (
    ("repro.engine.session", "Session.ask", "session.ask"),
    ("repro.engine.session", "workload_from_sql", "sql.compile"),
    ("repro.engine.server", "workload_fingerprint", "planner.fingerprint"),
    ("repro.engine.planner", "workload_fingerprint", "planner.fingerprint"),
    ("repro.engine.planner", "Planner.plan", "planner.plan"),
    ("repro.engine.planner", "Planner._build_plan", "planner.build"),
    ("repro.engine.cache", "PlanCache.get", "planner.cache_get"),
    ("repro.engine.planner", "eigen_design", "eigen_design"),
    ("repro.core.workload", "Workload.eigen_decomposition", "eigen_design.eigh"),
    ("repro.core.eigen_design", "solve_weighting", "eigen_design.weighting"),
    ("repro.engine.mechanism", "expected_workload_error", "error.pricing"),
    ("repro.mechanisms.matrix_mechanism", "MatrixMechanism.run", "matrix_mechanism.run"),
    ("repro.core.strategy", "Strategy.supports", "matrix_mechanism.support_check"),
    ("repro.mechanisms.gaussian", "GaussianMechanism.answer", "gaussian.noise"),
    ("repro.mechanisms.gaussian", "GaussianMechanism.noise_scale", "gaussian.sensitivity"),
    ("repro.mechanisms.gaussian", "check_matrix", "validation.check_matrix"),
    ("repro.core.workload", "Workload.answer", "workload.answer"),
    ("repro.engine.server", "Server.sharded_answers", "server.derive"),
    ("repro.engine.store", "StateStore.save_release", "store.release_persist"),
    ("repro.engine.store", "StateStore.ledger_begin", "store.ledger"),
    ("repro.engine.store", "StateStore.ledger_settle", "store.ledger"),
    ("repro.mechanisms.accountant", "PrivacyAccountant.charge", "accountant.charge"),
    ("repro.mechanisms.accountant", "PrivacyAccountant.commit", "accountant.commit"),
    ("repro.mechanisms.accountant", "PrivacyAccountant.refund", "accountant.refund"),
)

#: Span names whose return value is kept (reduced to something small).
RESULT_VALUES = {
    "planner.cache_get": lambda plan: plan is not None,
    "eigen_design.weighting": lambda solution: int(solution.iterations),
}

#: Server entry points that open a request when no span is open on the thread.
ROOT_SHIMS = (
    ("repro.engine.server", "Server.handle_request", "server.handle_request"),
    ("repro.engine.server", "Server.ask", "server.ask"),
)


class Tracer:
    """Collects spans and per-span results while ``enabled``.

    ``dispatched`` maps a request key (``id`` of the request line, or the
    tenant) to the client's record of that request; the root shim stamps the
    record with its request id and start time, which is how the client joins
    its own latency with the spans and how queue wait is measured.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.dispatched: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_request = 0
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- shims
    def install(self, shims=LAYER_SHIMS, roots=ROOT_SHIMS) -> None:
        for module, path, name in roots:
            self._patch(module, path, name, root=True)
        for module, path, name in shims:
            self._patch(module, path, name, root=False)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, module: str, path: str, name: str, *, root: bool) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._wrap(original, name, root=root)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, function, name: str, *, root: bool):
        tracer = self

        @functools.wraps(function)
        def shim(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            if not stack and not root:
                return function(*args, **kwargs)
            opened = tracer._open(name, stack, args if root else None)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(opened, stack)
            reduce = RESULT_VALUES.get(name)
            if reduce is not None:
                tracer.spans[opened[1]].value = reduce(result)
            return result

        return shim

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: list, root_args) -> list:
        start = time.perf_counter()
        if stack:
            parent, request = stack[-1][1], stack[-1][2]
        else:
            parent = None
            with self._lock:
                self._next_request += 1
                request = self._next_request
            record = self.dispatched.pop(self._request_key(name, root_args), None)
            if record is not None:
                record["request"] = request
                record["started"] = start
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, start, start, parent, request, threading.get_ident()))
        entry = [name, index, request]
        stack.append(entry)
        return entry

    def _close(self, entry: list, stack: list) -> None:
        self.spans[entry[1]].end = time.perf_counter()
        stack.pop()

    @staticmethod
    def _request_key(name: str, args) -> object:
        # Server.handle_request(self, line) / Server.ask(self, tenant, request, ...)
        if name == "server.handle_request":
            return id(args[1])
        return args[1]

    # ------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.dispatched = {}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                            "thread": span.thread,
                            "value": span.value,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span run on the parent's thread and nest inside it, so
    they never overlap each other: their durations simply subtract.
    """
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return [max(value, 0.0) for value in own]
