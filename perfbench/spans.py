"""In-memory span tracing of named functions, installed from outside a package.

A span records one call of a traced function: its name, start and end on
``time.perf_counter``, the span that was open when it began (its parent),
an optional dict of size attributes taken from the arguments, and the
exception type if the call raised.  A span's self time is its duration
minus the part of its interval that its child spans cover.

Targets are written ``"module:function"`` or ``"module:Class.method"``
relative to the package.  A function is replaced on every module of the
package that binds it, because modules import names with
``from .transfer import ...``; a method is replaced on its class.  A target
that no longer exists is recorded in ``Tracer.absent`` instead of raising.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict | None = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            if attrs is not None:
                try:
                    span.attrs = attrs(*args, **kwargs)
                except Exception:  # a changed signature loses the sizes, not the call
                    span.attrs = None
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, package: str, targets: dict) -> None:
        """Wrap every target; ``targets`` maps target -> attrs extractor or None."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for target, attrs in targets.items():
            mod_name, _, qual = target.partition(":")
            name = f"{mod_name}.{qual}"
            try:
                mod = importlib.import_module(f"{package}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, meth = qual.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                original = vars(owner).get(meth) if isinstance(owner, type) else None
                if original is None:
                    self.absent.append(name)
                    continue
                self._replace(owner, meth, original, self.wrap(name, original, attrs))
                continue
            original = getattr(mod, qual, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, attrs)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    """Per span: duration minus the union of its children's clipped intervals."""
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        kids = [(max(c.start, sp.start), min(c.end, sp.end)) for c in children.get(i, ())]
        out.append(sp.duration - _covered([k for k in kids if k[1] > k[0]]))
    return out


@dataclass
class SpanSummary:
    """Per-name totals: calls, inclusive time (outermost calls only), self time."""

    calls: dict
    total: dict
    self_total: dict

    @classmethod
    def of(cls, spans: list) -> "SpanSummary":
        selfs = self_times(spans)
        calls: dict = {}
        total: dict = {}
        self_total: dict = {}
        for i, sp in enumerate(spans):
            calls[sp.name] = calls.get(sp.name, 0) + 1
            self_total[sp.name] = self_total.get(sp.name, 0.0) + selfs[i]
            if not _has_ancestor_named(spans, sp, sp.name):
                total[sp.name] = total.get(sp.name, 0.0) + sp.duration
        return cls(calls, total, self_total)


def _has_ancestor_named(spans: list, sp: Span, name: str) -> bool:
    p = sp.parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
