"""Spans around calls into tridnf's modules, recorded from outside the package.

A :class:`Tracer` replaces a module attribute (for example
``tridnf.learner.reduce_uncertainty``) with a wrapper that records one span
per call: name, start, end, parent span, op id, plus optional counts taken
from the call's arguments and result.  Only calls made through that
attribute are seen, which is how the caller reaches them: ``learner.learn``
looks ``reduce_uncertainty`` up in its own module globals on every call.

Spans are kept in memory and written out by :meth:`Tracer.write`.
"""
from __future__ import annotations

import json
import time
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        # one row per span: [name, start_ns, end_ns, parent, op, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op: int | None = None

    def wrap(self, module, attr: str, name: str,
             counts: Callable[..., dict] | None = None) -> None:
        """Route calls through ``module.attr`` into a recording wrapper.

        ``counts(args, kwargs, result)`` returns integer counts kept on the span.
        """
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so their
        intervals never overlap and the sum of their durations is the part
        of the parent they cover.
        """
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, start, end, parent, op, counts) in enumerate(self.spans):
                row = {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op}
                if counts:
                    row["counts"] = counts
                handle.write(json.dumps(row) + "\n")
