"""Span recording, parent links and self-time arithmetic."""

import threading

import pytest

from perfbench.trace import (JobRef, Span, SpanRecorder, covered,
                             instrument, self_times)


def test_covered_counts_overlapping_intervals_once():
    assert covered((0, 10), [(1, 4), (3, 6), (8, 12)]) == pytest.approx(7)
    assert covered((0, 10), []) == 0
    assert covered((0, 10), [(-5, 20)]) == pytest.approx(10)
    assert covered((0, 10), [(11, 12), (-3, -1)]) == 0


def test_self_time_subtracts_union_of_children():
    spans = [Span(1, "parent", 0.0, 10.0),
             Span(2, "a", 1.0, 4.0, parent=1),
             Span(3, "b", 3.0, 6.0, parent=1),      # overlaps a
             Span(4, "c", 8.0, 12.0, parent=1),     # runs past the parent
             Span(5, "grandchild", 1.5, 3.5, parent=2)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 7)          # [1,6] + [8,10]
    assert own[2] == pytest.approx(3 - 2)
    assert own[3] == pytest.approx(3)
    assert own[5] == pytest.approx(2)


def test_recorder_links_parents_and_jobs_per_thread():
    rec = SpanRecorder()

    def work(job):
        rec.set_job(job)
        with rec.span("outer"):
            with rec.span("inner"):
                pass

    threads = [threading.Thread(target=work, args=(f"j{i}",))
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    spans = rec.spans()
    outer = {s.job: s for s in spans if s.name == "outer"}
    for s in spans:
        if s.name == "inner":
            assert s.parent == outer[s.job].span_id
    assert set(outer) == {"j0", "j1"}


def test_job_ref_resolves_late_and_roots_nest_by_containment():
    rec = SpanRecorder()
    ref = JobRef()
    root = rec.add("job", 0.0, 10.0, job="abc")
    running = rec.add("service.running", 2.0, 9.0, root, "abc")
    server = rec.add("PlanCache.get_or_compile", 3.0, 4.0, job=ref)
    ref.id = "abc"
    by_id = {s.span_id: s for s in rec.spans()}
    assert by_id[server].job == "abc"
    assert by_id[server].parent == running
    assert by_id[running].parent == root
    assert by_id[root].parent is None


def test_instrument_records_and_restores():
    from repro.parallel import planner
    from repro.shell.pipeline import Pipeline
    from repro.unixsim import ExecContext

    before = (Pipeline.__dict__["from_string"], Pipeline.run,
              planner.compile_pipeline)
    rec = SpanRecorder()
    with instrument(rec):
        context = ExecContext(fs={"in.txt": "b\na\n"}, env={})
        pipeline = Pipeline.from_string("cat in.txt | sort", context=context)
        assert pipeline.run() == "a\nb\n"
    names = [s.name for s in rec.spans()]
    assert names == ["Pipeline.from_string", "Pipeline.run"]
    assert (Pipeline.__dict__["from_string"], Pipeline.run,
            planner.compile_pipeline) == before
