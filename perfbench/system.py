"""The system under test: a ``repro serve`` subprocess or an in-process
``ReproService``, plus peak-memory readings.

Peak RSS is each process's ``VmHWM`` from ``/proc/<pid>/status``,
summed over the daemon and every process it started (executor nodes,
worker pools).  Batch runs read ``getrusage(RUSAGE_CHILDREN)``.
"""

from __future__ import annotations

import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.service.client import ServiceClient

#: seconds a daemon gets to come up, and to exit after shutdown
START_TIMEOUT = 30.0
STOP_TIMEOUT = 15.0


def _ppid(pid: int) -> Optional[int]:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name (field 2) may contain spaces: parse after ')'
    return int(stat.rsplit(")", 1)[1].split()[1])


def descendants(pid: int) -> List[int]:
    """Live processes below ``pid`` (children, grandchildren, ...)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            ppid = _ppid(int(entry))
            if ppid is not None:
                parents[int(entry)] = ppid
    found, frontier = [], {pid}
    while frontier:
        frontier = {p for p, pp in parents.items() if pp in frontier}
        found.extend(sorted(frontier))
    return found


def vm_hwm_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set (VmHWM) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue  # exited between listing and reading
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


def cpu_times() -> List[int]:
    """The host's aggregate CPU time counters (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_times` readings (field 8 of the ``cpu`` line)."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def children_maxrss_mb() -> float:
    """Largest peak RSS among this process's reaped children, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _stop_orphans(pids: Iterable[int]) -> None:
    """Terminate, and wait for, processes that outlived their parent."""
    alive = []
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
            alive.append(pid)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + STOP_TIMEOUT
    for pid in alive:
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class Daemon:
    """``python -m repro serve`` in a subprocess, stopped on close."""

    def __init__(self, root: Path, workdir: Path, nodes: int = 0,
                 concurrency: int = 2, store: Optional[Path] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--concurrency", str(concurrency)]
        if store is not None:
            argv += ["--store", str(store)]
        if nodes:
            argv += ["--nodes", str(nodes)]
        self.nodes = nodes
        self._log_path = workdir / "daemon.log"
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=str(workdir), env=env, stdout=self._log,
            stderr=subprocess.STDOUT)
        self.client: Optional[ServiceClient] = None
        self.url = self._read_url()
        self.client = ServiceClient(self.url, client_id="perfbench-admin")

    def _read_url(self) -> str:
        """The address from the daemon's announce line."""
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline and self.proc.poll() is None:
            text = self._log_path.read_text("utf-8", "replace")
            match = re.search(r"listening on (http://\S+)", text)
            if match is not None:
                return match.group(1)
            time.sleep(0.02)
        self.close()
        raise RuntimeError("daemon did not start; see "
                           f"{self._log_path}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self) -> None:
        """Healthy, and every executor node registered."""
        self.client.wait_until_healthy(timeout=START_TIMEOUT)
        deadline = time.monotonic() + START_TIMEOUT
        while self.nodes and len(self.client.nodes()) < self.nodes:
            if time.monotonic() > deadline:
                raise RuntimeError("executor nodes did not register")
            time.sleep(0.05)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb([self.pid] + descendants(self.pid))

    def close(self) -> None:
        """Shut the daemon down and wait for it and every process it
        started (executor nodes are its children)."""
        children = descendants(self.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            try:
                if self.client is None:
                    raise RuntimeError("no address to shut down")
                self.client.shutdown()
            except Exception:  # noqa: BLE001 - fall through to terminate
                self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        _stop_orphans(children)
        self._log.close()


class InProcessDaemon:
    """``ReproService`` hosted in this process (traced runs); executor
    nodes, if any, are ``repro executor`` subprocesses."""

    def __init__(self, root: Path, workdir: Path, nodes: int = 0,
                 concurrency: int = 2, store: Optional[Path] = None) -> None:
        from repro.service.server import ReproService, ServiceConfig

        self.service = ReproService(ServiceConfig(
            port=0, concurrency=concurrency,
            store_path=str(store) if store is not None else None))
        self.service.start_http()
        self.url = self.service.url
        self.client = ServiceClient(self.url, client_id="perfbench-admin")
        self.nodes = nodes
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(workdir / "executors.log", "ab")
        self.executors = [subprocess.Popen(
            [sys.executable, "-m", "repro", "executor", "--join", self.url],
            cwd=str(workdir), env=env, stdout=self._log,
            stderr=subprocess.STDOUT) for _ in range(nodes)]

    wait_ready = Daemon.wait_ready

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb([os.getpid()] + descendants(os.getpid()))

    def close(self) -> None:
        try:
            self.service.stop()
        finally:
            for proc in self.executors:
                proc.terminate()
            for proc in self.executors:
                try:
                    proc.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            self._log.close()
