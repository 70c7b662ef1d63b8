"""Span recording around the program's public entry points.

The benchmark wraps each layer's entry point at run time (the program
itself is not changed) and records one span per call: name, start,
end, parent span and the id of the op that caused it.  Spans stay in
memory and are written out when the run ends; self time is computed
from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: span name -> (module, attribute path) of the wrapped entry point.
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "frontend": ("repro.corpus.registry", "compile_fragment"),
    "synth.prepare": ("repro.core.synthesizer", "Synthesizer.__init__"),
    "synth.search": ("repro.core.synthesizer", "Synthesizer.synthesize"),
    "prove": ("repro.core.prover", "Prover.validate"),
    "sqlgen": ("repro.core.qbs", "translate"),
    "parse": ("repro.sql.database", "parse"),
    "plan": ("repro.sql.plan", "plan_select"),
    "exec": ("repro.sql.plan.physical", "PhysicalPlan.execute"),
    "insert": ("repro.sql.catalog", "Table.insert"),
    "insert_many": ("repro.sql.catalog", "Table.insert_many"),
    "pool": ("repro.service.pool", "WorkerPool.run_jobs"),
}


class TracingError(RuntimeError):
    """The traced run cannot be trusted: fail instead of reporting 0."""


#: (id, name, start, end, parent id or -1, op id, note)
Span = Tuple[int, str, float, float, int, Any, Any]


def _note(name: str, result: Any) -> Any:
    """The one fact a span keeps about its call's result."""
    if name == "exec":
        return len(result.rows)
    if name == "prove":
        return bool(result.proved)
    return None


class Tracer:
    """Installs the wrappers, records spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Any = "setup"
        self._stack: List[int] = []
        self._ids = itertools.count()
        self._paused = 0
        self._restore: List[Callable[[], None]] = []

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for name, (module_name, path) in ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            owner: Any = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            original = getattr(owner, parts[-1], None) \
                if owner is not None else None
            if original is None or not callable(original):
                self.uninstall()
                raise TracingError("entry point %s.%s no longer exists"
                                   % (module_name, path))
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, parts[-1], wrapper)
            else:
                # A module-level function: also replace every copy
                # other modules took with ``from ... import name``.
                for loaded, other in list(sys.modules.items()):
                    if loaded.split(".")[0] == "repro" and \
                            getattr(other, parts[-1], None) is original:
                        self._patch(other, parts[-1], wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            note = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                note = _note(name, result)
                return result
            except Exception as exc:
                note = "raised:" + type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op, note))

        return wrapper

    # -- control -------------------------------------------------------------

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Oracle work runs through the same entry points; keep it out."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for sid, name, start, end, parent, op, note in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "note": note}) + "\n")


@contextmanager
def maybe_paused(tracer: Optional[Tracer]) -> Iterator[None]:
    if tracer is None:
        yield
    else:
        with tracer.paused():
            yield


def set_op(tracer: Optional[Tracer], op: Any) -> None:
    if tracer is not None:
        tracer.op = op


# -- analysis -----------------------------------------------------------------


class SpanTable:
    """Inclusive and self time per span, with simple selections."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        child_time: Dict[int, float] = {}
        for sid, _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) \
                    + (end - start)
        self.self_time = {sid: (end - start) - child_time.get(sid, 0.0)
                          for sid, _, start, end, _, _, _ in spans}
        self.name_of = {span[0]: span[1] for span in spans}

    def select(self, name: str, timed_only: bool = False,
               not_under: Tuple[str, ...] = ()) -> List[Span]:
        """Spans called ``name``; ``timed_only`` drops set-up spans
        (their op id is not an int), ``not_under`` drops spans whose
        parent has one of those names."""
        return [span for span in self.spans
                if span[1] == name
                and (not timed_only or isinstance(span[5], int))
                and self.name_of.get(span[4]) not in not_under]

    def inclusive(self, spans: List[Span]) -> float:
        return sum(end - start for _, _, start, end, _, _, _ in spans)

    def own(self, spans: List[Span]) -> float:
        return sum(self.self_time[span[0]] for span in spans)

