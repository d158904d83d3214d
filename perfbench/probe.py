"""Host record, CPU calibration kernel and a /proc RSS sampler.

The host has no ``psutil``, so process memory comes straight from
``/proc/<pid>/status`` (VmRSS) and the process tree from
``/proc/<pid>/stat`` (ppid).
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import threading
import time


def host_record() -> dict:
    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
                break
    return {"nproc": nproc(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "mem_total_mb": mem_kb // 1024}


def nproc() -> int:
    """What `nproc` prints: the CPUs this process may use, lowered by
    ``OMP_NUM_THREADS``/``OMP_THREAD_LIMIT`` when those are set."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        return int(out.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def calibration_s() -> float:
    """Time a fixed, seeded CPU kernel (hashing plus a Python sort).
    It does no I/O and touches none of the program's code, so a change
    in its time across runs is host noise, not a program change."""
    data = random.Random(1234).randbytes(1 << 16)
    t0 = time.perf_counter()
    h = hashlib.sha256()
    for _ in range(800):
        h.update(data)
    keys = sorted(data[i:i + 8] for i in range(0, len(data), 4))
    _ = h.digest(), keys[len(keys) // 2]
    return time.perf_counter() - t0


def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command field may hold spaces; ppid is the 2nd field
        # after its closing parenthesis
        out[int(name)] = int(stat[stat.rindex(")") + 2:].split()[1])
    return out


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        for c in children.get(pid, []):
            out.append(c)
            todo.append(c)
    return out


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def adopt_orphans() -> None:
    """Make this process the subreaper of its descendants, so Ray
    workers orphaned by ``ray.shutdown()`` are re-parented here and can
    be waited for, rather than left to the container's init."""
    import ctypes
    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                                1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_descendants(timeout: float = 20.0) -> list[int]:
    """Wait until every descendant process has ended, reaping the ones
    re-parented here; SIGKILL whatever outlives ``timeout``. Returns
    the pids that had to be killed."""
    import signal
    me = os.getpid()
    killed: list[int] = []
    deadline = time.monotonic() + timeout
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        alive = descendants(me)
        if not alive:
            return killed
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.05)


class RssSampler:
    """Peak of (this process's RSS + summed RSS of the Ray workers)
    while active. The worker set is refreshed every second; RSS is
    sampled every ``interval`` seconds on a daemon thread."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        me = os.getpid()
        workers: list[int] = []
        refreshed = 0.0
        while not self._stop.is_set():
            now = time.monotonic()
            if now - refreshed > 1.0:
                workers = [p for p in descendants(me) if _is_ray_worker(p)]
                refreshed = now
            total = _rss_kb(me) + sum(_rss_kb(p) for p in workers)
            self.peak_kb = max(self.peak_kb, total)
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
