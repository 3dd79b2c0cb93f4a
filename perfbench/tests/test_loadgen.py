"""Open-loop schedules and lateness accounting."""

from collections import Counter

import pytest

from perfbench.loadgen import Job, open_schedule
from repro.service.protocol import JobResult


def test_schedule_is_evenly_spaced_and_seeded():
    a = open_schedule([3, 1], rate=4.0, seconds=2.0, tenants=3, seed=7)
    assert [offset for offset, _, _ in a] == [i / 4.0 for i in range(8)]
    assert a == open_schedule([3, 1], 4.0, 2.0, 3, seed=7)
    assert a != open_schedule([3, 1], 4.0, 2.0, 3, seed=8)
    assert {tenant for _, _, tenant in a} <= {"tenant-0", "tenant-1",
                                              "tenant-2"}


def test_schedule_deals_each_deck_in_exact_proportion():
    counts = [7, 6, 5, 1, 1]
    schedule = open_schedule(counts, rate=10.0, seconds=6.0, tenants=2,
                             seed=1)
    assert len(schedule) == 60
    for deck in range(3):
        dealt = Counter(i for _, i, _ in schedule[deck * 20:(deck + 1) * 20])
        assert [dealt[i] for i in range(len(counts))] == counts


def test_open_loop_latency_counts_lateness_from_due_time():
    job = Job(tenant="t", request_index=0, due=100.0)
    job.sent = 102.5             # the generator ran 2.5 s late
    job.result = JobResult(job_id="x", client_id="t", status="done",
                           submitted_at=102.6, started_at=102.7,
                           finished_at=103.0)
    job.fetched = 103.2
    assert job.lag == pytest.approx(2.5)
    assert job.latency == pytest.approx(3.0)    # due -> server finish


def test_closed_loop_latency_is_what_the_caller_waits():
    job = Job(tenant="t", request_index=0, due=50.0, open_loop=False)
    job.sent = 50.0
    job.result = JobResult(job_id="x", client_id="t", status="done",
                           submitted_at=50.1, started_at=50.1,
                           finished_at=50.8)
    job.fetched = 51.0
    assert job.latency == pytest.approx(1.0)    # send -> output arrived
