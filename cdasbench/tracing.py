"""Spans and counters recorded around the library's public callables.

``instrument(tracer)`` patches the functions and methods each layer of
``cdas`` exposes, in the namespaces the library calls them through, and
restores every patch on exit.  Nothing under ``src/`` knows about tracing.

Calls that happen once per step or less (select, report, learn, summarize,
write, load, restore, solve, ...) become spans.  Calls that happen once per
problem (rollouts, group advantages) are tallied instead: they add their
count and time to the layer totals and to the enclosing span's child time,
so self times stay exact while the trace stays small.  A callable a later
version no longer has, or no longer calls, is reported with zero calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

STEP = "harness.step"


@dataclasses.dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    step: int | None


class Tracer:
    """In-memory spans plus per-name call counts, total and self seconds."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.step: int | None = None
        self._ids = itertools.count()
        # Open frames: [id, name, start, child_seconds, step].
        self._stack: list[list] = []

    def open(self, name: str) -> None:
        self._stack.append([next(self._ids), name, perf_counter(), 0.0, self.step])

    def close(self, name: str) -> None:
        """Close the innermost open span called ``name`` and any opened inside it."""
        if not any(frame[1] == name for frame in self._stack):
            return
        end = perf_counter()
        while True:
            span_id, frame_name, start, child, step = self._stack.pop()
            duration = end - start
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(Span(span_id, frame_name, start, end, parent, step))
            self.calls[frame_name] += 1
            self.seconds[frame_name] += duration
            self.self_seconds[frame_name] += duration - child
            if self._stack:
                self._stack[-1][3] += duration
            if frame_name == STEP:
                self.step = None
            if frame_name == name:
                return

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close(name)

    def tally(self, name: str, seconds: float) -> None:
        """Account one per-item call without recording a span for it."""
        self.calls[name] += 1
        self.seconds[name] += seconds
        self.self_seconds[name] += seconds
        if self._stack:
            self._stack[-1][3] += seconds

    def count(self, name: str, n: int = 1) -> None:
        self.calls[name] += n

    def begin_step(self, step: int) -> None:
        self.close(STEP)
        self.step = step
        self.open(STEP)

    def end_step(self) -> None:
        self.close(STEP)

    def durations(self, name: str) -> list[float]:
        return [span.end - span.start for span in self.spans if span.name == name]

    def seconds_under(self, names: set[str], ancestor: str) -> float:
        """Total seconds of spans named in ``names`` nested inside an ``ancestor`` span."""
        by_id = {span.id: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span.name not in names:
                continue
            parent = by_id.get(span.parent)
            while parent is not None and parent.name != ancestor:
                parent = by_id.get(parent.parent)
            if parent is not None:
                total += span.end - span.start
        return total

    def write(self, path: Path) -> None:
        """One JSON object per span, in the order the spans closed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


_MISSING = object()


class _Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make_wrapper) -> None:
        original = getattr(owner, name, _MISSING)
        if original is _MISSING:
            return
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        wrapper = make_wrapper(original)
        setattr(owner, name, functools.wraps(original)(wrapper))

    def restore(self) -> None:
        for owner, name, saved in reversed(self._saved):
            if saved is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, saved)
        self._saved.clear()


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the library's layer boundaries through ``tracer`` while active."""
    from cdas import baselines, fixed_point, harness, learner, metrics, sampling

    patches = _Patches()

    def spanned(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def tallied(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                result = fn(*args, **kwargs)
                tracer.tally(name, perf_counter() - start)
                return result

            return wrapper

        return make

    def counted(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.count(name)
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- sampling (CDAS) and the core math it calls ---------------------------
    def cdas_select(fn):
        def select_batch(self, batch_size):
            warm = self.in_warmup()
            tracer.begin_step(self.step + 1)
            with tracer.span("sampling.select.warmup" if warm else "sampling.select.post_warmup"):
                batch = fn(self, batch_size)
            if not warm and getattr(self, "symmetric", False):
                competence = self.competence_value
                harder = sum(1 for pid in batch if self.record(pid).difficulty > competence)
                if harder != batch_size // 2:
                    tracer.count("sampling.backfill")
            return batch

        return select_batch

    patches.wrap(sampling.CdasSampler, "select_batch", cdas_select)
    patches.wrap(sampling.CdasSampler, "report_outcomes", spanned("sampling.report"))
    patches.wrap(sampling, "update_competence", spanned("core.update_competence"))
    patches.wrap(sampling, "update_difficulty", counted("core.update_difficulty"))
    patches.wrap(sampling, "instantaneous_difficulty", counted("core.instantaneous_difficulty"))

    # -- baselines ------------------------------------------------------------
    def baseline_select(kind):
        def make(fn):
            def select_batch(self, batch_size):
                tracer.begin_step(self.step + 1)
                with tracer.span(f"baselines.select.{kind}"):
                    return fn(self, batch_size)

            return select_batch

        return make

    for kind, cls in (
        ("random", baselines.RandomSampler),
        ("curriculum", baselines.CurriculumSampler),
        ("prioritized", baselines.PrioritizedSampler),
    ):
        patches.wrap(cls, "select_batch", baseline_select(kind))
    patches.wrap(baselines.BaselineSampler, "report_outcomes", spanned("baselines.report"))

    def dynamic_filter(fn):
        def select_and_filter(self, batch_size, rollout_fn):
            interior = 0

            def rollout(problem_id):
                nonlocal interior
                obs = rollout_fn(problem_id)
                if 0.0 < obs.pass_rate < 1.0:
                    interior += 1
                return obs

            tracer.begin_step(self.step + 1)
            with tracer.span("baselines.dynamic.filter"):
                batch, consumed = fn(self, batch_size, rollout)
            tracer.count("baselines.dynamic.rollouts", consumed)
            tracer.count("baselines.dynamic.interior", interior)
            if interior < batch_size:
                tracer.count("baselines.dynamic.padded")
            return batch, consumed

        return select_and_filter

    patches.wrap(baselines.DynamicSampler, "select_and_filter", dynamic_filter)

    # -- learner and bank -----------------------------------------------------
    patches.wrap(learner.SyntheticLearner, "rollout_group", tallied("learner.rollout"))
    patches.wrap(learner.SyntheticLearner, "learn_step", spanned("learner.learn"))
    patches.wrap(learner.ProblemBank, "content_hash", spanned("learner.bank_hash"))
    for namespace in (learner, harness):
        patches.wrap(namespace, "generate_bank", spanned("learner.generate_bank"))

    # -- grpo and metrics -----------------------------------------------------
    for namespace in (harness, metrics):
        patches.wrap(namespace, "group_advantages", tallied("grpo.advantage"))

    def summarize(fn):
        def summarize_step(*args, **kwargs):
            with tracer.span("metrics.summarize"):
                row = fn(*args, **kwargs)
            tracer.end_step()
            return row

        return summarize_step

    patches.wrap(harness, "summarize_step", summarize)

    # -- harness --------------------------------------------------------------
    for name in ("run_experiment", "resume_experiment", "compare_strategies"):
        patches.wrap(harness, name, spanned(f"harness.{name}"))
    patches.wrap(harness, "write_outputs", spanned("harness.write"))
    patches.wrap(harness, "load_checkpoint", spanned("harness.load_checkpoint"))
    patches.wrap(harness, "sampler_from_state", spanned("harness.restore"))

    # -- fixed point ----------------------------------------------------------
    patches.wrap(fixed_point, "solve", spanned("fixed_point.solve"))
    patches.wrap(fixed_point, "iterate_once", spanned("fixed_point.iterate"))

    try:
        yield tracer
    finally:
        patches.restore()
