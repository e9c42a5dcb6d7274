"""Start, drive, measure and stop one ``wqrtq serve`` daemon.

The daemon runs through :mod:`serve_boot` (which installs the tracing
wrappers first when ``trace_dir`` is given) with its stdout and stderr
redirected to a log file.  It is always stopped with SIGTERM, a wait,
and SIGKILL as the fallback, and :meth:`Daemon.stop` then waits until
every process it ever saw in the daemon's tree has ended.

CPU time and peak memory come from ``/proc/<pid>/stat`` and
``/proc/<pid>/status`` of the daemon and its descendants (the pool
workers).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CLK_TCK = os.sysconf("SC_CLK_TCK")
SERVING = re.compile(r"serving on http://[^:]+:(\d+)")


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid`` (all threads)."""
    out: list[int] = []
    tasks = f"/proc/{pid}/task"
    try:
        tids = os.listdir(tasks)
    except OSError:
        return out
    for tid in tids:
        text = _read(f"{tasks}/{tid}/children")
        if text:
            out.extend(int(x) for x in text.split())
    return out


def descendants(pid: int) -> list[int]:
    seen, todo = [], [pid]
    while todo:
        for child in children_of(todo.pop()):
            if child not in seen:
                seen.append(child)
                todo.append(child)
    return seen


def _stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    text = _read(f"/proc/{pid}/stat")
    return None if text is None else text[text.rindex(")") + 2:].split()


def start_time(pid: int) -> int | None:
    """Start time of ``pid`` in clock ticks: with the pid, it names
    one process even after the pid is reused."""
    fields = _stat(pid)
    return None if fields is None else int(fields[19])


def alive(pid: int, started: int) -> bool:
    """True while the process ``(pid, started)`` exists and is not a
    zombie."""
    fields = _stat(pid)
    return (fields is not None and int(fields[19]) == started
            and fields[0] not in ("Z", "X"))


def cpu_seconds(pid: int) -> float:
    fields = _stat(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid: int) -> float:
    text = _read(f"/proc/{pid}/status") or ""
    match = re.search(r"VmHWM:\s+(\d+) kB", text)
    return int(match.group(1)) / 1024.0 if match else 0.0


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("wqrtq_")}
    except OSError:
        return set()


class Client:
    """One keep-alive HTTP/1.1 connection; JSON in, JSON out."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=60)

    def request(self, method: str, path: str, body=None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        return response.status, (json.loads(payload) if payload else {})

    def get(self, path: str):
        return self.request("GET", path)

    def close(self) -> None:
        self.conn.close()


class Daemon:
    def __init__(self, workdir: str, args: list[str], *,
                 trace_dir: str | None = None, tag: str = "daemon"):
        self.workdir = workdir
        self.args = list(args)
        self.trace_dir = trace_dir
        self.log_path = os.path.join(workdir, f"{tag}.log")
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.seen: dict[int, int] = {}   # pid -> start time
        self.setup_s: float | None = None

    def start(self, *, timeout: float = 120.0) -> None:
        env = dict(os.environ)
        root = os.path.dirname(HERE)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["OMP_NUM_THREADS"] = "1"
        env.pop("PERFBENCH_TRACE_DIR", None)
        if self.trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = self.trace_dir
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "serve_boot.py"),
                 *self.args],
                stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, cwd=self.workdir, env=env)
        deadline = start + timeout
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with "
                                   f"{self.proc.returncode}: "
                                   f"{_read(self.log_path)}")
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not announce its port")
            match = SERVING.search(_read(self.log_path) or "")
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.002)
        probe = Client(self.port)
        try:
            while True:
                try:
                    status, _ = probe.get("/health")
                    if status == 200:
                        break
                except OSError:
                    probe.close()
                    probe = Client(self.port)
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon /health never answered")
                time.sleep(0.002)
        finally:
            probe.close()
        self.setup_s = time.perf_counter() - start
        self.track()

    def track(self) -> list[int]:
        """Record (and return) every live process of the tree."""
        pids = [self.proc.pid] + descendants(self.proc.pid)
        for pid in pids:
            started = start_time(pid)
            if started is not None:
                self.seen.setdefault(pid, started)
        return pids

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.track())

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.track())

    def stop(self, *, timeout: float = 30.0) -> list[str]:
        """SIGTERM, wait, SIGKILL fallback; returns hygiene problems."""
        problems: list[str] = []
        if self.proc is None:
            return problems
        if self.proc.poll() is None:
            self.track()
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                problems.append("daemon ignored SIGTERM; killed")
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + timeout
        for pid, started in sorted(self.seen.items()):
            if pid == self.proc.pid:
                continue
            while alive(pid, started) and time.monotonic() < deadline:
                time.sleep(0.01)
            if alive(pid, started):
                problems.append(f"process {pid} outlived the daemon")
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                while (alive(pid, started)
                       and time.monotonic() < deadline + 5):
                    time.sleep(0.01)
        if self.proc.returncode not in (0, -signal.SIGTERM):
            problems.append(f"daemon exited with {self.proc.returncode}")
        return problems
