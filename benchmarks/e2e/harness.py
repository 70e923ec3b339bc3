"""Process and connection plumbing: the host block, the server
subprocess, the closed-loop HTTP clients.
"""

from __future__ import annotations

import glob
import http.client
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".bench_work"
REQUEST_TIMEOUT_S = 30.0


def usable_cpus():
    return len(os.sched_getaffinity(0))


def client_threads():
    """Closed-loop connections of the HTTP workloads."""
    return min(2, usable_cpus())


def host_block():
    """Where the record was taken, and what that host cannot show."""
    import numpy
    import scipy

    from repro.core import kernels

    kernel = kernels.describe()
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    host = {
        "usable_cpus": usable_cpus(),
        "numba": bool(kernel["numba_available"]),
        "kernel": kernel["active"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "client_threads": client_threads(),
    }
    not_covered = []
    if host["usable_cpus"] < 4:
        not_covered.append(
            "core.sharding / core.autotune: the worker pool never starts "
            "below 4 usable CPUs"
        )
    if not host["numba"]:
        not_covered.append(
            "core.kernels numba lowering: numba is not installed, the "
            "fused numpy kernel runs"
        )
    if host["client_threads"] < 32:
        not_covered.append(
            "32-client coalescing: connections are capped at the usable "
            f"CPUs, so occupancy over HTTP is <= {host['client_threads']} "
            "and only the coalescer's cost is visible"
        )
    return host, not_covered


def shm_segments():
    return set(glob.glob("/dev/shm/repro-*"))


@contextmanager
def work_dir(prefix):
    """A scratch directory inside the checkout for stores and server
    logs; the run fails if it cannot be removed again."""
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_PARENT))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_PARENT.iterdir()):
            WORK_PARENT.rmdir()
    if work.exists():
        raise RuntimeError(f"temp store {work} outlived the run")


# ----------------------------------------------------------------------
# The server under test
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.cli serve`` over a store file, default flags.

    The only non-default is ``--port 0`` (any free port); the bound
    address is read back from the server's own start-up line.
    """

    def __init__(self, dataset, scale, data_seed, store_path, log_path):
        self.log_path = Path(log_path)
        self._log = open(self.log_path, "wb")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--dataset", dataset, "--scale", repr(scale),
             "--seed", str(data_seed), "--model", str(store_path),
             "--port", "0"],
            stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        self.address = None
        self.peak_rss_mb = None

    def wait_ready(self, probe_sql, timeout_s=120.0):
        """Block until the server has answered one query (which pages
        the store in), so everything a first client would wait for is
        inside set-up."""
        deadline = time.monotonic() + timeout_s
        while self.address is None:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}:\n"
                    + self.log_path.read_text(errors="replace")
                )
            if time.monotonic() > deadline:
                raise RuntimeError("server did not print its address in time")
            for line in self.log_path.read_text(errors="replace").splitlines():
                if " at http://" in line:
                    host, port = line.rsplit("http://", 1)[1].split(":")
                    self.address = (host, int(port))
            if self.address is None:
                time.sleep(0.02)
        status, body = request_json(
            self.address, "POST", "/query",
            {"sql": probe_sql, "kind": "cardinality"},
        )
        if status != 200:
            raise RuntimeError(f"server probe failed: {status} {body}")

    def stats(self):
        status, body = request_json(self.address, "GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats failed: {status} {body}")
        return body

    def stop(self):
        """Reap the server (SIGINT = its clean shutdown path, SIGKILL if
        that hangs) and remember its peak resident set."""
        if self.process.poll() is None:
            self.peak_rss_mb = peak_rss_mb(self.process.pid)
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def peak_rss_mb(pid="self"):
    """High-water resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


# ----------------------------------------------------------------------
# HTTP clients
# ----------------------------------------------------------------------
def request_json(address, method, path, payload=None):
    connection = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class SharedSource:
    """One request list consumed by several client threads, each item
    handed out once (``next`` on ``itertools.count`` is atomic)."""

    def __init__(self, items):
        self.items = items
        self._next = itertools.count()

    def __iter__(self):
        return self

    def __next__(self):
        i = next(self._next)
        if i >= len(self.items):
            raise StopIteration
        return self.items[i]


class Sample:
    """One request as the client saw it.  ``status`` is the HTTP
    status, or 0 when the connection failed or timed out."""

    __slots__ = ("tag", "start", "end", "status", "body")

    def __init__(self, tag, start, end, status, body):
        self.tag, self.start, self.end = tag, start, end
        self.status, self.body = status, body

    @property
    def ms(self):
        return (self.end - self.start) * 1e3


def _client(address, source, stop, deadline, out):
    """Closed loop on one keep-alive connection: send, wait for the
    whole reply, send the next.  Bodies are decoded after the window."""
    connection = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
    headers = {"Content-Type": "application/json"}
    try:
        for tag, path, body in source:
            if stop.is_set() or time.perf_counter() >= deadline:
                return
            start = time.perf_counter()
            try:
                connection.request("POST", path, body=body, headers=headers)
                response = connection.getresponse()
                data = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                status, data = 0, b""
                connection.close()  # reconnects on the next request
            out.append(Sample(tag, start, time.perf_counter(), status, data))
        # This connection ran out of pre-generated requests: end the
        # window for everyone rather than repeat a text.
        stop.set()
    finally:
        connection.close()


def closed_loop(address, sources, seconds):
    """Drive one client thread per source for ``seconds`` (or until a
    source runs dry).  Returns ``(samples per source, elapsed)``."""
    stop = threading.Event()
    outs = [[] for _ in sources]
    start = time.perf_counter()
    deadline = start + seconds
    threads = [
        threading.Thread(target=_client, args=(address, source, stop,
                                               deadline, out))
        for source, out in zip(sources, outs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    end = max((s.end for out in outs for s in out), default=start)
    return outs, end - start
