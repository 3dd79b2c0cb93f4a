"""Load generators: an open loop on a fixed schedule and a closed loop of
tenants that each wait for their reply.

Both run in this one process with at most ``nproc`` threads, each
holding at most one HTTP connection at a time.  Every job goes through
the public client API in three calls — submit, wait (no output), fetch
(with output) — and its output is compared byte-for-byte with the
serial reference.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.parallel.executor import RunStats

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.protocol import JobRequest, JobResult

from .trace import SpanRecorder

#: seconds a job may take before it counts as failed
JOB_TIMEOUT = 60.0


@dataclass
class Job:
    """One job as the load generator saw it (``time.time()`` seconds)."""

    tenant: str
    request_index: int
    due: float                       # when it was due to be sent
    sent: float = 0.0                # when the submit call started
    submitted: float = 0.0           # when the submit call returned
    waited: float = 0.0              # when the server reported it done
    fetched: float = 0.0             # when its output arrived
    job_id: Optional[str] = None
    result: Optional[JobResult] = None
    error: Optional[str] = None
    rejected: bool = False           # HTTP 429/503 at admission
    mismatch: bool = False           # output differs from the reference
    input_bytes: int = 0
    open_loop: bool = True
    #: per-pipeline run statistics (one for a service job)
    stats: List[RunStats] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        """Open loop: due time to the server's finish time.  Closed
        loop: send to output arrival, as the waiting caller sees it."""
        if self.open_loop and self.result is not None \
                and self.result.finished_at:
            return self.result.finished_at - self.due
        return self.fetched - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


def open_schedule(counts: Sequence[int], rate: float, seconds: float,
                  tenants: int, seed: int) -> List[Tuple[float, int, str]]:
    """``(offset, request index, tenant)`` for every job of an open loop
    at a fixed ``rate``: evenly spaced jobs dealt from a seeded shuffle
    of a deck holding request *i* ``counts[i]`` times (reshuffled each
    time it runs out), each sent as a seeded draw of the tenants."""
    rng = random.Random(seed)
    deck: List[int] = []
    schedule = []
    for i in range(max(1, int(rate * seconds))):
        if not deck:
            deck = [r for r, n in enumerate(counts) for _ in range(n)]
            rng.shuffle(deck)
        schedule.append((i / rate, deck.pop(),
                         f"tenant-{rng.randrange(tenants)}"))
    return schedule


def _submit(client: ServiceClient, request: JobRequest, job: Job) -> None:
    job.sent = time.time()
    try:
        job.job_id = client.submit_request(request)
    except ServiceUnavailable as exc:
        job.rejected = exc.code in (429, 503)
        job.error = f"submit: {exc}"
    except Exception as exc:  # noqa: BLE001 - a failed job is data
        job.error = f"submit: {type(exc).__name__}: {exc}"
    job.submitted = time.time()


def _collect(client: ServiceClient, job: Job, expected: str,
             deadline: float) -> None:
    """Wait (until ``deadline`` at most) for a submitted job, fetch its
    output and check it."""
    if job.error is not None:
        return
    try:
        done = client.wait(job.job_id,
                           timeout=max(0.1, deadline - time.time()),
                           include_output=False)
        job.waited = time.time()
        job.result = client.result(job.job_id, wait=False)
        job.fetched = time.time()
        if job.result.stats is not None:
            job.stats = [job.result.stats]
    except Exception as exc:  # noqa: BLE001 - timeouts and errors are data
        job.error = f"wait: {type(exc).__name__}: {exc}"
        job.fetched = time.time()
        return
    if done.status != "done":
        job.error = f"job {done.status}: {done.error}"
    elif job.result.output != expected:
        job.mismatch = True
        job.error = "output differs from the serial reference"


def record_job(recorder: SpanRecorder, job: Job) -> None:
    """Client and server spans of one finished job, all sharing its id."""
    key = job.job_id
    root = recorder.add("job", job.due, max(job.fetched, job.submitted),
                        job=key)
    recorder.add("client.submit", job.sent, job.submitted, root, key)
    if job.waited:
        recorder.add("client.wait", job.submitted, job.waited, root, key)
        recorder.add("client.fetch", job.waited, job.fetched, root, key)
    result = job.result
    if result is not None and result.started_at and result.finished_at:
        recorder.add("service.queued", result.submitted_at,
                     result.started_at, root, key)
        recorder.add("service.running", result.started_at,
                     result.finished_at, root, key)


def run_open_loop(url: str, requests: Sequence[JobRequest],
                  expected: Sequence[str],
                  schedule: Sequence[Tuple[float, int, str]],
                  recorder: Optional[SpanRecorder] = None) -> List[Job]:
    """Send each job at its due time from this thread; a second thread
    waits for, fetches and checks results in submission order."""
    pending: "queue.Queue[Optional[Job]]" = queue.Queue()
    jobs: List[Job] = []
    start = time.time() + 0.05
    # a stalled daemon fails the remaining jobs instead of stalling us
    deadline = start + schedule[-1][0] + JOB_TIMEOUT

    def collector() -> None:
        client = ServiceClient(url, client_id="perfbench-collector",
                               timeout=JOB_TIMEOUT)
        while True:
            job = pending.get()
            if job is None:
                return
            _collect(client, job, expected[job.request_index], deadline)

    thread = threading.Thread(target=collector, name="perfbench-collector")
    thread.start()
    sender = ServiceClient(url, timeout=JOB_TIMEOUT)
    try:
        for offset, index, tenant in schedule:
            due = start + offset
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            request = requests[index]
            job = Job(tenant=tenant, request_index=index, due=due,
                      input_bytes=sum(map(len, request.files.values())))
            _submit(sender, replace(request, client_id=tenant), job)
            jobs.append(job)
            pending.put(job)
    finally:
        pending.put(None)
        thread.join()
    if recorder is not None:
        for job in jobs:
            record_job(recorder, job)
    return jobs


def run_closed_loop(url: str,
                    work: Sequence[Sequence[Tuple[JobRequest, str]]],
                    seconds: float,
                    recorder: Optional[SpanRecorder] = None) -> List[Job]:
    """One thread per tenant (the first is the calling thread); each
    sends its next job only after the previous reply arrived, until
    ``seconds`` have passed or its work list is used up."""
    jobs: List[Job] = []
    lock = threading.Lock()
    deadline = time.time() + seconds

    def tenant(index: int, items: Sequence[Tuple[JobRequest, str]]) -> None:
        name = f"tenant-{index}"
        client = ServiceClient(url, client_id=name, timeout=JOB_TIMEOUT)
        for request, expected in items:
            if time.time() >= deadline:
                return
            job = Job(tenant=name, request_index=-1, due=time.time(),
                      input_bytes=sum(map(len, request.files.values())),
                      open_loop=False)
            _submit(client, replace(request, client_id=name), job)
            _collect(client, job, expected, time.time() + JOB_TIMEOUT)
            with lock:
                jobs.append(job)

    threads = [threading.Thread(target=tenant, args=(i, items),
                                name=f"perfbench-tenant-{i}")
               for i, items in enumerate(work) if i > 0]
    for t in threads:
        t.start()
    try:
        tenant(0, work[0])
    finally:
        for t in threads:
            t.join()
    if recorder is not None:
        for job in jobs:
            record_job(recorder, job)
    return jobs
