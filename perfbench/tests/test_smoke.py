"""Tiny-scale runs of every workload through the same code paths as the
benchmark, plus what ``BENCHMARK.json`` and ``run.py`` promise.

Each test synthesizes a few combiners, so the module takes a minute or
two::

    python3 -m pytest perfbench/tests/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import workloads as wl
from perfbench.bench import (UNITS, end_to_end, per_layer, run_traced,
                             run_untraced)

from .conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyBatch(wl.BatchT1):
    table = (("unix50", "14.sh"),)
    scale = 300


class TinyHot(wl.SvcHot):
    # cut synthesizes in a fraction of a second; the larger input is
    # split into chunks for both executor nodes
    hot_set = (("unix50", "1.sh", 40, 3), ("unix50", "1.sh", 3000, 1))
    rate = 20.0


class TinyDistrib(wl.SvcDistrib):
    hot_set = TinyHot.hot_set
    rate = 10.0


class TinyFresh(wl.SvcFresh):
    pipelines = (("cat $IN | cut -d ' ' -f 2", wl.people_csv),)
    pool = 4


def _numbers(metrics):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in metrics.values())


@pytest.mark.parametrize("cls", [TinyBatch, TinyHot, TinyDistrib, TinyFresh],
                         ids=lambda c: c.name)
def test_workload_smoke(cls, tmp_path):
    workload = cls(ROOT, tmp_path, seed=5)
    if hasattr(workload, "build"):
        workload.build()
    phase, setup_s = run_untraced(workload, 0.5, repeats=1)
    assert phase.jobs and all(j.ok for j in phase.jobs), \
        [j.error for j in phase.jobs if not j.ok]
    assert phase.invalid == []
    metrics = end_to_end(phase, setup_s)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert _numbers(metrics) and all(v > 0 for v in metrics.values())

    traced, untraced, recorder = run_traced(workload, 0.5,
                                            tmp_path / "trace.json")
    assert traced.invalid == [] and all(j.ok for j in traced.jobs)
    layers = per_layer(traced, recorder, untraced)
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert _numbers(layers)
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["spans"] and all(s["job"] for s in trace["spans"]
                                  if s["name"] == "ParallelPipeline.run")
    if cls.name != "batch_t1":
        assert layers["plan_cache.hit_ratio"] == (
            0.0 if cls.name == "svc_fresh" else 1.0)
    if cls.name == "svc_distrib":
        assert layers["distrib.tasks_per_job"] > 0
        assert layers["distrib.fallbacks"] == 0


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert metric["unit"] == UNITS[metric["name"]]
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    why = next(w["why"] for w in SPEC["workloads"]
               if w["name"] == "batch_t1")
    for suite, script in wl.TABLE1:
        assert f"{script.removesuffix('.sh')}" in why


def test_run_py_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svc_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
