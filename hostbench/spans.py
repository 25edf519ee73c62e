"""In-memory span recording around functions patched from outside.

The traced pass of the benchmark never edits the program: it replaces
public callables (a class attribute, or a module-level function under
every name it was imported as) with a thin wrapper that records one span
per call, and restores the originals when the pass ends.

A span is ``[name, start_ns, end_ns, parent, op, count]``: ``parent`` is
the index of the enclosing span in the same thread (``-1`` at top level),
``op`` the id of the benchmark op that was running, and ``count`` an
optional work count taken from the call (bytes, relocations, sites).
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterator

NAME, START, END, PARENT, OP, COUNT = range(6)


class SpanRecorder:
    """Keeps every span of a run in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: id of the op now running; the harness sets it around each op
        self.op: object = None
        self._pid = os.getpid()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable | None = None,
    ) -> Callable:
        """A wrapper recording one span named ``name`` per call of ``fn``.

        ``count(args, kwargs, result)`` gives the span's work count.  The
        span closes even when ``fn`` raises.  Calls made in a forked
        child process pass straight through: the parent never sees those
        spans, so recording them would only slow the child.
        """
        spans = self.spans

        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_context(self, enter_name: str, exit_name: str, fn: Callable) -> Callable:
        """Wrap a context-manager factory: span its ``__enter__`` and ``__exit__``."""
        recorder = self

        def factory(*args, **kwargs):
            return _SpannedContext(recorder, enter_name, exit_name, fn(*args, **kwargs))

        factory.__wrapped__ = fn
        return factory

    def dump(self, path: str) -> None:
        """Write every span as gzipped JSON lines (written once, at run end)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, default=str) + "\n")


class _SpannedContext:
    def __init__(self, recorder: SpanRecorder, enter_name: str, exit_name: str, cm) -> None:
        self._enter = recorder.wrap(enter_name, cm.__enter__)
        self._exit = recorder.wrap(exit_name, cm.__exit__)

    def __enter__(self):
        return self._enter()

    def __exit__(self, *exc_info):
        return self._exit(*exc_info)


# -- patching ------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One callable to span: ``module:Class.attr`` or ``module:function``.

    ``kind`` is ``"call"`` for a plain span or ``"context"`` for a
    context-manager factory whose enter and exit get spans of their own
    (``span`` + ``.enter`` / ``.exit``).
    """

    span: str
    where: str
    count: Callable | None = None
    kind: str = "call"


def _resolve(where: str):
    module_name, _, attr_path = where.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise LookupError(f"span target {where} does not exist")
    return module_name, owner, attr


class Patcher:
    """Installs wrappers; :meth:`restore` puts every original back."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: (owner, attribute, original value) per replaced binding
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _make(self, target: Target, fn: Callable) -> Callable:
        if target.kind == "context":
            return self.recorder.wrap_context(
                target.span + ".enter", target.span + ".exit", fn
            )
        return self.recorder.wrap(target.span, fn, target.count)

    def install(self, target: Target) -> None:
        """Patch one target.

        A class attribute is replaced on its class (every caller looks it
        up there).  A module-level function is replaced in its defining
        module and in every loaded ``repro`` module that imported it by
        name, so callers holding their own reference are spanned too.
        """
        module_name, owner, attr = _resolve(target.where)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                raise TypeError(f"{target.where}: static/class methods are not spanned")
            self._set(owner, attr, self._make(target, raw))
            return
        original = getattr(owner, attr)
        wrapper = self._make(target, original)
        root = module_name.split(".")[0]
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == root or name.startswith(root + ".")):
                continue
            if module.__dict__.get(attr) is original:
                self._set(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@contextmanager
def spanned(recorder: SpanRecorder, targets: list[Target]) -> Iterator[Patcher]:
    """Install every target for the duration of the block.

    A target that does not exist raises, so a wrapper never fails to attach
    silently; the originals are restored even when the block raises.
    """
    patcher = Patcher(recorder)
    try:
        for target in targets:
            patcher.install(target)
        yield patcher
    finally:
        patcher.restore()


# -- analysis ------------------------------------------------------------------


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times_ns(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part its child spans cover.

    Children may nest or overlap each other (spans from several threads
    sharing one parent); overlapping coverage is counted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        kids = children.get(index)
        duration = span[END] - span[START]
        out.append(duration - _covered_ns(span[START], span[END], kids) if kids else duration)
    return out


def outermost(spans: list[list]) -> list[bool]:
    """Per span: True unless an ancestor span carries the same name.

    A callable that (directly or through others) calls itself, or a stage
    wrapping an inner stage of the same name, is then counted once.
    """
    flags = []
    for span in spans:
        parent = span[PARENT]
        keep = True
        while parent >= 0:
            if spans[parent][NAME] == span[NAME]:
                keep = False
                break
            parent = spans[parent][PARENT]
        flags.append(keep)
    return flags
