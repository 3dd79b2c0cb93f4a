"""In-memory span recorder and the wrappers that feed it.

A span has a name, a start and end (``time.time()`` seconds, so spans
line up with the service's ``JobResult`` timestamps), a parent and a
job id; spans of one job share the id.  Spans are appended to a list
and written out once, at the end of the run.

:func:`instrument` wraps the public entry points of each layer —
``Pipeline.from_string``, ``Pipeline.run``, ``synthesize``,
``select_plan``, ``compile_pipeline``, ``ParallelPipeline.run``,
``PlanCache.get_or_compile`` and ``DistributedRunner.run`` — plus
``ReproService.submit`` (to learn which job a request belongs to), for
the length of a ``with`` block.  The program's own files are not
modified.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence


class JobRef:
    """A job id that may only become known after spans reference it
    (the server picks the id while the job may already be running)."""

    __slots__ = ("id",)

    def __init__(self, job_id: Optional[str] = None) -> None:
        self.id = job_id


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    job: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span list with a per-thread stack for parent links."""

    def __init__(self) -> None:
        self._spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: counts recorded at the same boundaries as the spans
        self.counts: Dict[str, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_job(self, job) -> None:
        """Attribute this thread's subsequent root spans to ``job``."""
        self._local.job = job

    @contextlib.contextmanager
    def span(self, name: str, job=None) -> Iterator[int]:
        stack = self._stack()
        parent_id, parent_job = stack[-1] if stack else (
            None, getattr(self._local, "job", None))
        job = job if job is not None else parent_job
        span_id = next(self._ids)
        stack.append((span_id, job))
        start = time.time()
        try:
            yield span_id
        finally:
            end = time.time()
            stack.pop()
            with self._lock:
                self._spans.append((span_id, name, start, end, parent_id, job))

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, job=None) -> int:
        """Record a span timed elsewhere (server timestamps)."""
        span_id = next(self._ids)
        with self._lock:
            self._spans.append((span_id, name, start, end, parent, job))
        return span_id

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def spans(self) -> List[Span]:
        """Recorded spans; a root span of a job that lies inside another
        span of the same job (a server span inside the client's view of
        the job) gets the smallest such span as its parent."""
        with self._lock:
            rows = list(self._spans)
        spans = [Span(sid, name, start, end, parent,
                      job.id if isinstance(job, JobRef) else job)
                 for sid, name, start, end, parent, job in rows]
        by_job: Dict[str, List[Span]] = {}
        for s in spans:
            if s.job is not None:
                by_job.setdefault(s.job, []).append(s)
        for s in spans:
            if s.parent is not None or s.job is None:
                continue
            around = [o for o in by_job[s.job] if o is not s
                      and o.start <= s.start and s.end <= o.end
                      and o.seconds > s.seconds]
            if around:
                s.parent = min(around, key=lambda o: o.seconds).span_id
        return spans

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": self.counts,
                       "spans": [asdict(s) for s in self.spans()]}, fh)


def covered(interval: tuple, others: Sequence[tuple]) -> float:
    """Length of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in others
                     if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover
    (overlapping children are counted once)."""
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.seconds - covered((s.start, s.end),
                                           children.get(s.span_id, ()))
            for s in spans}


# ---------------------------------------------------------------------------
# wrappers around the layers' entry points


def _timed(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _patch_functions(fn_name: str, replacement: Callable,
                     original: Callable, undo: list) -> None:
    """Rebind ``fn_name`` in every loaded ``repro`` module that imported
    ``original`` by name."""
    for mod_name, module in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                getattr(module, fn_name, None) is original:
            setattr(module, fn_name, replacement)
            undo.append((module, fn_name, original))


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install span wrappers on the layers' entry points; restore the
    originals on exit."""
    from repro.core.synthesis import synthesizer
    from repro.distrib.runner import DistributedRunner
    from repro.optimizer import selector
    from repro.parallel import planner
    from repro.parallel.executor import ParallelPipeline
    from repro.service.cache import PlanCache
    from repro.service.server import ReproService
    from repro.shell.pipeline import Pipeline
    import repro.workloads  # noqa: F401 - load importers before rebinding

    undo: list = []
    #: request object id -> JobRef, from ``ReproService.submit`` to the
    #: worker thread's ``PlanCache.get_or_compile`` (same request object)
    request_jobs: Dict[int, JobRef] = {}

    def patch_attr(owner, attr: str, value) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    parse = Pipeline.__dict__["from_string"].__func__
    patch_attr(Pipeline, "from_string",
               classmethod(_timed(recorder, "Pipeline.from_string", parse)))
    patch_attr(Pipeline, "run",
               _timed(recorder, "Pipeline.run", Pipeline.run))
    patch_attr(ParallelPipeline, "run",
               _timed(recorder, "ParallelPipeline.run", ParallelPipeline.run))
    patch_attr(DistributedRunner, "run",
               _timed(recorder, "DistributedRunner.run",
                      DistributedRunner.run))

    get_or_compile = PlanCache.get_or_compile

    def traced_get_or_compile(self, request):
        # a service worker thread starts each job here: its later spans
        # (execution) belong to the same job
        job = request_jobs.pop(id(request), None)
        recorder.set_job(job)
        with recorder.span("PlanCache.get_or_compile"):
            return get_or_compile(self, request)
    patch_attr(PlanCache, "get_or_compile", traced_get_or_compile)

    submit = ReproService.submit

    def traced_submit(self, request):
        job = JobRef()
        request_jobs[id(request)] = job
        with recorder.span("ReproService.submit", job=job):
            result = submit(self, request)
        job.id = result.job_id
        return result
    patch_attr(ReproService, "submit", traced_submit)

    synthesize = synthesizer.synthesize
    select_plan = selector.select_plan
    compile_pipeline = planner.compile_pipeline
    synthesize_pipeline = planner.synthesize_pipeline

    def counted_synthesize_pipeline(pipeline, *args, **kwargs):
        recorder.count("synthesis.lookups",
                       len({cmd.key() for cmd in pipeline.commands}))
        return synthesize_pipeline(pipeline, *args, **kwargs)

    for name, original, replacement in (
            ("synthesize", synthesize,
             _timed(recorder, "synthesize", synthesize)),
            ("select_plan", select_plan,
             _timed(recorder, "select_plan", select_plan)),
            ("compile_pipeline", compile_pipeline,
             _timed(recorder, "compile_pipeline", compile_pipeline)),
            ("synthesize_pipeline", synthesize_pipeline,
             counted_synthesize_pipeline)):
        _patch_functions(name, replacement, original, undo)
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
