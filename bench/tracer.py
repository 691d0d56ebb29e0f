"""Outside-in span tracer for dropfed.

The benchmark records spans with wrappers that it installs around the
package's public functions and methods, replacing every binding of the
function in every ``dropfed`` module (``dropfed.harness.play_round``,
``dropfed.cli.build_schedule``, ``LogisticObjective.batch_grad``), so the
program carries no timing code.  Targets are found by name, not by module,
so a function that moves between modules is still traced.

Each thread keeps its own stack of open spans.  A span opened by a worker
thread whose stack is empty takes the main thread's innermost open span as
its parent, so a seed run in the pool nests under the call that started it.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# Timestamps come from one monotonic clock; children are compared with
# their parents without slack beyond this rounding allowance.
EPS = 1e-9


class TraceError(AssertionError):
    """A span tree violates nesting: negative self time or over-covered span."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "thread", "work")

    def __init__(self, name, start, parent, trial, thread, work):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trial = trial
        self.thread = thread
        self.work = work


class Tracer:
    """Holds the spans of one traced command in memory until it is analysed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trial=None, work: int = 0) -> Span:
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        if trial is None and parent is not None:
            trial = parent.trial
        span = Span(name, time.perf_counter(), parent, trial, threading.get_ident(), work)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise TraceError(f"span {span.name} closed out of order")
        stack.pop()

    def inside(self, name: str) -> bool:
        """True when a span of this name is open in the calling thread."""
        return any(s.name == name for s in self._stack())


# ---------------------------------------------------------------------------
# What to wrap.  A target names a module-level function or a method (or
# property) of a class, by its bare name; `span` is the span name, which
# carries the layer.  `trial` names the argument holding the seed; `work`
# maps (args, kwargs) to a work count; `after` maps the result to one.


@dataclass(frozen=True)
class Target:
    span: str
    name: str
    method: bool = False
    trial: str | None = None
    work: Callable | None = None
    after: Callable | None = None


def _batch_rows(args, kwargs) -> int:
    indices = args[2] if len(args) > 2 else kwargs["indices"]
    return len(indices)


def _schedule_entries(schedule) -> int:
    return sum(len(s) for s in schedule.active_sets)


# Time in these is the benchmark's set-up time.
SETUP = (
    Target("harness.load_config", "load_config"),
    Target("data.build_task", "build_task", trial="seed"),
    Target("harness.build_schedule", "build_schedule", trial="seed"),
    Target("schedules.build_rates", "build_rates"),
    Target("harness.initial_model", "initial_model", trial="seed"),
)
SETUP_SPANS = frozenset(t.span for t in SETUP)

LAYERS = (
    Target("harness.run_experiment", "run_experiment"),
    Target("harness.run_trial", "run_trial", trial="master_seed"),
    Target("harness.replay", "_replay_updates"),
    Target("harness.render_summary", "render_summary"),
    Target("aggregation.play_round", "play_round"),
    Target("local_trainer.local_train", "local_train"),
    Target("local_trainer.sample_batch", "sample_batch"),
    Target("rng.stream", "stream"),
    Target("objectives.batch_grad", "batch_grad", method=True, work=_batch_rows),
    Target("objectives.loss", "loss", method=True),
    Target("objectives.smoothness", "smoothness", method=True),
    Target("diagnostics.global_loss", "global_loss"),
    Target("diagnostics.global_grad", "global_grad"),
    Target("diagnostics.evaluate", "evaluate"),
    Target("diagnostics.update_variance", "update_variance"),
    Target("diagnostics.weighted_participation_bias", "weighted_participation_bias"),
    Target("diagnostics.write_metrics_csv", "write_metrics_csv"),
    Target("availability.build", "round_robin_schedule", after=_schedule_entries),
    Target("availability.build", "static_prob_schedule", after=_schedule_entries),
    Target("availability.build", "weighted_sample_schedule", after=_schedule_entries),
    Target("availability.max_staleness", "max_staleness", method=True),
    Target("schedules.check_conditions", "check_conditions"),
)


def _package_modules(package: str) -> list[types.ModuleType]:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


class Installer:
    """Patches wrappers into a package's modules and classes, and undoes it."""

    def __init__(self, package: str = "dropfed") -> None:
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def install(self, tracer: Tracer, targets) -> list[str]:
        """Wrap every binding of each target; return the span names found."""
        modules = _package_modules(self.package)
        found = []
        for target in targets:
            hits = self._methods(modules, target) if target.method else self._functions(modules, target)
            wrappers: dict[int, object] = {}
            for owner, attr, original in hits:
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(tracer, target, original)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
            if hits:
                found.append(target.span)
        return found

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _functions(self, modules, target):
        hits = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__name__ == target.name
                    and value.__module__.startswith(self.package)
                ):
                    hits.append((module, attr, value))
        return hits

    def _methods(self, modules, target):
        hits, seen = [], set()
        for module in modules:
            for value in list(vars(module).values()):
                if (
                    isinstance(value, type)
                    and value.__module__.startswith(self.package)
                    and id(value) not in seen
                    and target.name in vars(value)
                ):
                    seen.add(id(value))
                    member = vars(value)[target.name]
                    if callable(member) or isinstance(member, property):
                        hits.append((value, target.name, member))
        return hits

    @staticmethod
    def _wrap(tracer: Tracer, target: Target, original):
        if isinstance(original, property):
            fget = Installer._wrap(tracer, target, original.fget)
            return property(fget, original.fset, original.fdel, original.__doc__)
        fn = original
        span_name = target.span
        work = target.work
        after = target.after
        trial_pos = None
        params = list(inspect.signature(fn).parameters)
        if target.trial in params:
            trial_pos = params.index(target.trial)
        roles = target.name == "play_round"

        def wrapper(*args, **kwargs):
            name = span_name
            if roles:
                if kwargs.get("full_batch"):
                    name = span_name + ".expected"
                elif tracer.inside("harness.replay"):
                    name = span_name + ".replay"
                else:
                    name = span_name + ".train"
            trial = None
            if trial_pos is not None:
                trial = args[trial_pos] if len(args) > trial_pos else kwargs.get(target.trial)
            span = tracer.open(name, trial, work(args, kwargs) if work else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                span.work = after(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper


# ---------------------------------------------------------------------------
# Analysis.


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[Span, float]:
    """Each span's duration minus the part of it its children cover.

    Raises TraceError when a child lies outside its parent, when children
    cover more than the span, or when a self time comes out negative.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        duration = s.end - s.start
        if duration < 0:
            raise TraceError(f"{s.name}: negative duration {duration}")
        kids = children.get(id(s), ())
        for k in kids:
            if k.start < s.start - EPS or k.end > s.end + EPS:
                raise TraceError(f"{k.name} lies outside its parent {s.name}")
        covered = _union_length([(k.start, k.end) for k in kids])
        if covered > duration + EPS:
            raise TraceError(f"children of {s.name} cover {covered} of {duration} s")
        own = duration - covered
        if own < -EPS:
            raise TraceError(f"{s.name}: negative self time {own}")
        out[s] = max(own, 0.0)
    return out


def roots(spans: list[Span], thread: int) -> list[Span]:
    """Spans with no parent that ran on the given thread."""
    return [s for s in spans if s.parent is None and s.thread == thread]
