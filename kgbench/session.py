"""Ray session, host facts and process accounting for the benchmark.

The session is fixed at 2 logical CPUs (see README.md: at 1 CPU the
distributed SPARQL join never schedules). The benchmark's work files and
every temporary file stay under the checkout; so do Ray's session files,
unless the checkout path is too long for Ray's socket paths.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths are limited to 107 bytes; Ray nests
# /session_<date>_<pid>/sockets/plasma_store (up to 64 bytes) under its
# temp dir, itself a 9-character directory made under the base
_MAX_RAY_TMP_BASE = 33
SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 600_000}


def _warm(batch):
    """Worker warm-up task: import the engine's stage modules."""
    from gitprov_ray.pipelines import flagship  # noqa: F401

    return batch


class Session:
    """Owns the Ray session. ``setup()`` may run several times; each time
    shuts down the previous session and reports init + warm-up seconds."""

    def __init__(self, root: str):
        self.root = root
        self.scratch = os.path.join(root, ".kgb")
        os.makedirs(self.scratch, exist_ok=True)
        # a private directory for Ray's session files, removed whole by
        # close(); under /tmp when the checkout path is too long for sockets
        short = len(self.scratch) <= _MAX_RAY_TMP_BASE
        self.ray_tmp = tempfile.mkdtemp(prefix="r",
                                        dir=self.scratch if short else "/tmp")
        self.work = os.path.join(self.scratch, f"work-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        tmp = os.path.join(self.scratch, "tmp")
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = root + (os.pathsep + path if path else "")
        self.peak_rss_kb = 0
        self.cpu_ticks = _cpu_ticks()

    def setup(self) -> float:
        import ray
        import ray.data as rd

        if ray.is_initialized():
            self.shutdown()
        t0 = time.perf_counter()
        ray.init(num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.ray_tmp,
                 _system_config=SYSTEM_CONFIG)
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        rd.range(NUM_CPUS, override_num_blocks=NUM_CPUS).map_batches(
            _warm, batch_format="pyarrow").materialize()
        return time.perf_counter() - t0

    def logs_dir(self) -> str | None:
        import ray

        try:
            return ray._private.worker._global_node.get_logs_dir_path()
        except AttributeError:
            return None

    def sample_rss(self) -> None:
        """Sum the peak RSS (VmHWM) of the driver and every live process
        under it (GCS, raylet, workers); keep the largest sum seen."""
        total = sum(_status_kb(p, "VmHWM") for p in _process_tree(os.getpid()))
        self.peak_rss_kb = max(self.peak_rss_kb, total)

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0

    def steal_pct(self) -> float:
        """Share of the host's CPU time stolen by the hypervisor since the
        session was made; on a shared virtual machine it tracks how much
        slower every call of the run gets."""
        d = [b - a for a, b in zip(self.cpu_ticks, _cpu_ticks())]
        return 100.0 * d[7] / max(1, sum(d))

    def shutdown(self) -> None:
        """Stop Ray and wait until every process it started has ended."""
        import ray

        children = _process_tree(os.getpid())[1:]
        ray.shutdown()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            children = [p for p in children if _alive(p)]
            if not children:
                return
            time.sleep(0.1)
        for p in children:
            try:
                os.kill(p, 9)
            except ProcessLookupError:
                pass

    def close(self) -> None:
        import ray

        if ray.is_initialized():
            self.shutdown()
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)


def _children(pid: int) -> list[int]:
    out = []
    task_dir = f"/proc/{pid}/task"
    try:
        tids = os.listdir(task_dir)
    except FileNotFoundError:
        return out
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children") as f:
                out.extend(int(c) for c in f.read().split())
        except (FileNotFoundError, ProcessLookupError):
            pass
    return out


def _process_tree(root: int) -> list[int]:
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(_children(pid))
    return out


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def _cpu_ticks() -> list[int]:
    """The host-wide CPU time counters of /proc/stat (user, nice, system,
    idle, iowait, irq, softirq, steal, ...)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().split(")")[-1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def host_facts() -> dict:
    import pyarrow
    import ray

    la = os.getloadavg()
    return {"cpus_affinity": len(os.sched_getaffinity(0)),
            "ray_num_cpus": NUM_CPUS,
            "load_avg": [round(x, 2) for x in la],
            "ray": ray.__version__, "pyarrow": pyarrow.__version__}
