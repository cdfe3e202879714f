"""One local Ray session at a time: start, warm, measure memory, stop.

Workers get the repo root and this directory on ``PYTHONPATH`` through the
Ray ``runtime_env``, so span tasks import ``documentprocessor_ray`` whatever
the working directory is. Ray's session files go under the repository root
(``.pbr/``) when its path is short enough for Ray's unix sockets.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Ray puts "<temp>/session_<date>_<pid>/sockets/plasma_store" (62 chars past
# the temp dir) into an AF_UNIX path, which is capped at 107 bytes
_SOCKET_SUFFIX = 62
# raylet, gcs_server, dashboard, monitors, and workers (retitled "ray::...")
_RAY_MARKERS = ("/ray/core/src/ray/", "/ray/_private/", "/ray/dashboard/",
                "/ray/autoscaler/", "ray::")


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _ancestors() -> set:
    """This process and its parents, whose command lines may name Ray."""
    pids, pid = set(), os.getpid()
    while pid > 1 and pid not in pids:
        pids.add(pid)
        try:
            with open(f"/proc/{pid}/stat") as f:
                pid = int(f.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            break
    return pids


def ray_pids() -> List[int]:
    """Pids of every Ray process visible in /proc (any session)."""
    pids, skip = [], _ancestors()
    for name in os.listdir("/proc"):
        if name.isdigit() and int(name) not in skip:
            cmd = _cmdline(int(name))
            if any(m in cmd for m in _RAY_MARKERS):
                pids.append(int(name))
    return pids


def wait_no_ray(timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while ray_pids():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def vm_hwm_mb(pids: List[int]) -> float:
    """Sum of VmHWM (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # exited between listing and reading
    return total_kb / 1024.0


def _temp_dir() -> Optional[str]:
    path = os.path.join(ROOT, ".pbr")
    return path if len(path) + _SOCKET_SUFFIX <= 107 else None


def _warm_task(barrier_dir: str, n: int) -> int:
    """Import the package, then hold this worker until ``n`` distinct
    workers have done the same, so each import lands in its own process."""
    import documentprocessor_ray.pipelines.extract  # noqa: F401

    open(os.path.join(barrier_dir, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 120
    while len(os.listdir(barrier_dir)) < n:
        if time.monotonic() > deadline:
            raise TimeoutError(f"only {len(os.listdir(barrier_dir))} of "
                               f"{n} workers started")
        time.sleep(0.002)
    return os.getpid()


class Session:
    """A fresh local Ray session with ``num_cpus`` warmed workers."""

    def __init__(self, num_cpus: int):
        import ray

        if not wait_no_ray(30):
            raise RuntimeError(f"earlier Ray processes still alive: "
                               f"{ray_pids()}")
        temp = _temp_dir()
        if temp is None:
            print("perfbench: repository path too long for Ray sockets; "
                  "using Ray's default temp dir", file=sys.stderr)

        # this process's peak RSS starts from here, not from corpus
        # generation or the oracle run before the session
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 1024 * 1024, _temp_dir=temp,
                 runtime_env={"env_vars": {
                     "PYTHONPATH": os.pathsep.join([ROOT, HERE]),
                     "OMP_NUM_THREADS": "1"}})
        t1 = time.perf_counter()
        from ray._private.worker import _global_node

        self.session_dir = _global_node.get_session_dir_path()
        barrier = os.path.join(HERE, "_cache", f"barrier-{os.getpid()}")
        shutil.rmtree(barrier, ignore_errors=True)
        os.makedirs(barrier)
        try:
            warm = ray.remote(num_cpus=1)(_warm_task)
            pids = ray.get([warm.remote(barrier, num_cpus)
                            for _ in range(num_cpus)])
        finally:
            shutil.rmtree(barrier, ignore_errors=True)
        t2 = time.perf_counter()
        if len(set(pids)) != num_cpus:
            raise RuntimeError(f"warmed {len(set(pids))} of {num_cpus} workers")
        self.init_s = t1 - t0
        self.warm_s = t2 - t1
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    @property
    def setup_s(self) -> float:
        return self.init_s + self.warm_s

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb([os.getpid()] + ray_pids())

    def close(self) -> None:
        import ray

        ray.shutdown()
        if not wait_no_ray(60):
            raise RuntimeError(f"Ray processes outlived shutdown: "
                               f"{ray_pids()}")
        if self.session_dir.startswith(ROOT + os.sep):
            shutil.rmtree(self.session_dir, ignore_errors=True)
