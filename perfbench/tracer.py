"""Span tracing of the subqec layers, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules, and
every public method, constructor and ``__mul__`` of the classes they define,
with a wrapper that records one span per call: name, start, end and parent.
The same wrapper is then bound under every other name the package gives the
function (``simulate.recover`` is ``recovery.recover``, ``subqec.run_trials``
is ``simulate.run_trials``), so a call is traced whichever name it goes
through.  ``uninstall`` puts the originals back.

Spans are kept in memory as flat arrays and written out once, by
``write``.  Per-name call counts, inclusive time and self time (inclusive
time minus the time of wrapped children) are accumulated as spans close.
Parents are tracked per thread.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
import types
from array import array

LAYERS = ("simulate", "classical", "gf2", "pauli", "builder", "recovery")
_TRACED_DUNDERS = ("__init__", "__mul__")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.calls: list = []
        self.total_ns: list = []
        self.self_ns: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    # -- span bookkeeping ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int):
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        start = time.perf_counter_ns()
        with self._lock:
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(start)
            self.span_parent.append(parent)
        frame = [sid, nid, start, 0]
        stack.append(frame)
        return frame

    def _close(self, frame) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        sid, nid, start, child_ns = frame
        dur = end - start
        with self._lock:
            self.span_end[sid] = end
            self.calls[nid] += 1
            self.total_ns[nid] += dur
            self.self_ns[nid] += dur - child_ns
        if stack:
            stack[-1][3] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span that the benchmark itself opens."""
        frame = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(frame)

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return traced

    # -- installing wrappers ------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrapped: dict = {}
        for layer, module in zip(LAYERS, self.modules):
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif isinstance(obj, type):
                    self._install_class(layer, obj)
        for module in [self.package, *self.modules]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            name = (f"{layer}.{cls.__name__}" if attr == "__init__"
                    else f"{layer}.{cls.__name__}.{attr}")
            if isinstance(obj, types.FunctionType):
                self._set(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(obj.__func__, name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        return {name: (self.calls[i], self.total_ns[i] / 1e9, self.self_ns[i] / 1e9)
                for i, name in enumerate(self.names)}

    def write(self, path, phases: list) -> None:
        """Write every span, plus the benchmark's phase boundaries, as npz."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            phase_names=np.array([p[0] for p in phases], dtype=str),
            phase_ns=np.array([p[1:] for p in phases], dtype=np.int64).reshape(-1, 2),
        )

