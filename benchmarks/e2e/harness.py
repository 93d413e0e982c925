"""Measurement plumbing shared by the four workloads.

Statistics (the percentile rule, quartiles), the span tracer, process
handling for the daemons under test, and the ``Result`` a workload
fills in.  Nothing here knows what a workload measures.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import hostspeed

HERE = Path(__file__).resolve().parent
SRC_DIR = HERE.parent.parent / "src"
OUT_DIR = HERE / "out"

#: Load-generator threads/connections: never more than the box has cores.
GENERATOR_THREADS = min(2, os.cpu_count() or 1)
#: Seconds one request may take before its socket gives up.
SOCKET_TIMEOUT = 30.0
#: Set-ups per untraced run; ``setup_s`` is their median.  A fraction
#: of a second of graph generation or process start takes more samples
#: to pin down than a second or two of stream generation or preload.
SETUP_REPEATS = {
    "ingest-static": 5,
    "churn-recover": 3,
    "serve-query": 5,
    "serve-mixed-sharded": 3,
}

now = time.perf_counter


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def supported_percentile(count: int, nominal: float) -> float:
    """The highest whole percentile <= ``nominal`` that leaves at least
    ten samples beyond it; the median when no tail is supported."""
    if count < 20:
        return 50.0
    highest = math.floor(100.0 * (1.0 - 10.0 / count))
    return float(max(50, min(int(nominal), highest)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (need not be sorted)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


@dataclass
class Measured:
    """One metric of one run: the value plus how steady it was."""

    value: float
    unit: str
    q1: float
    q3: float
    n: int
    #: How the number was obtained (shown in the table and the README).
    how: str = ""
    #: A wall-clock value as the clock read it, before it was restated
    #: at nominal host speed (``hostspeed``); ``None`` for the rest.
    raw: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def from_trials(
    values: Sequence[float],
    unit: str,
    how: str = "",
    raw: Sequence[float] | None = None,
) -> Measured:
    """Median and quartiles over per-trial values (``raw``: the same
    trials as the clock read them)."""
    q1, median, q3 = quartiles(list(values))
    return Measured(
        median, unit, q1, q3, len(values), how,
        statistics.median(raw) if raw else None,
    )


def from_count(value: float, unit: str, how: str = "") -> Measured:
    """A count the program made: no spread by construction."""
    return Measured(value, unit, value, value, 1, how)


def _block_spread(
    samples: Sequence[float], reduce: Callable[[Sequence[float]], float]
) -> tuple[float, float]:
    """Quartiles of ``reduce`` over five consecutive blocks of the run:
    how much the figure moved while the run lasted."""
    blocks = 5
    if len(samples) < 10 * blocks:
        return quartiles(list(samples))[::2]
    size = len(samples) // blocks
    per_block = [
        reduce(samples[i * size : (i + 1) * size]) for i in range(blocks)
    ]
    return quartiles(per_block)[::2]


def latency_percentile(
    samples_ms: Sequence[float],
    nominal: float,
    how: str = "",
    scale: float = 1.0,
    raw_ms: Sequence[float] | None = None,
) -> Measured:
    """The ``nominal`` percentile of a latency sample, lowered to the
    highest percentile the sample supports (``supported_percentile``).

    Restated at nominal host speed either by ``scale``
    (``hostspeed.factor`` of the window the sample was taken in) or
    sample by sample, in which case ``raw_ms`` is what the clock read."""
    pct = supported_percentile(len(samples_ms), nominal)
    q1, q3 = _block_spread(samples_ms, lambda block: percentile(block, pct))
    note = f"p{pct:g} of {len(samples_ms)}"
    value = percentile(samples_ms, pct)
    return Measured(
        value * scale,
        "ms",
        q1 * scale,
        q3 * scale,
        len(samples_ms),
        f"{how}; {note}" if how else note,
        percentile(raw_ms, pct) if raw_ms else value,
    )


def rate_per_second(
    completions: Sequence[float],
    began: float,
    ended: float,
    how: str = "",
    weights: Sequence[float] | None = None,
    scale: float = 1.0,
) -> Measured:
    """Units completed per second over ``[began, ended]`` (one unit per
    completion unless ``weights`` says otherwise), over ``scale``; the
    quartiles are over whole one-second windows."""
    wall = ended - began
    weights = weights if weights is not None else [1.0] * len(completions)
    windows = [0.0] * max(1, int(wall))
    for stamp, weight in zip(completions, weights, strict=True):
        index = int(stamp - began)
        if 0 <= index < len(windows):
            windows[index] += weight
    q1, _, q3 = quartiles(windows)
    value = sum(weights) / wall
    return Measured(
        value / scale, "1/s", q1 / scale, q3 / scale, len(completions), how, value
    )


class Scaled:
    """Timings of like trials, each restated at nominal host speed by
    the ``hostspeed`` bursts made right before and right after it (or
    beside it).  ``burst`` is ``hostspeed.burst`` or a wrapper that
    puts a span around it."""

    def __init__(self, burst: Callable[[], float] = hostspeed.burst) -> None:
        self.raw: list[float] = []
        self.factors: list[float] = []
        self._burst = burst

    def __len__(self) -> int:
        return len(self.raw)

    def add(self, seconds: float, *burst_ms: float) -> None:
        self.raw.append(seconds)
        self.factors.append(hostspeed.factor(*burst_ms))

    @contextlib.contextmanager
    def timing(self):
        """Time the body, with a burst right before and right after it."""
        before = self._burst()
        began = now()
        yield
        seconds = now() - began
        self.add(seconds, before, self._burst())

    @contextlib.contextmanager
    def window(self, interval: float = 0.25):
        """Time the body while a burst is made beside it every
        ``interval`` seconds (``hostspeed.Sampler``): for a phase in
        which the program runs in other processes."""
        with hostspeed.Sampler(interval) as sampler:
            began = now()
            yield
            seconds = now() - began
        self.add(seconds, statistics.median(sampler.bursts))

    @property
    def values(self) -> list[float]:
        return [s * f for s, f in zip(self.raw, self.factors, strict=True)]

    @property
    def scale(self) -> float:
        """One factor for everything sampled inside these trials."""
        return statistics.median(self.factors)

    def measured(
        self,
        unit: str,
        how: str = "",
        convert: Callable[[float], float] = lambda seconds: seconds,
    ) -> Measured:
        """Median over the trials of ``convert(seconds)``."""
        return from_trials(
            [convert(v) for v in self.values], unit, how,
            [convert(r) for r in self.raw],
        )

    def note(self) -> dict[str, Any]:
        """For the record: how fast the host was during these trials."""
        bursts = [hostspeed.NOMINAL_MS / f for f in self.factors]
        q1, median, q3 = quartiles(bursts)
        return {
            "nominal_burst_ms": hostspeed.NOMINAL_MS,
            "burst_ms": {"q1": q1, "median": median, "q3": q3, "n": len(bursts)},
        }


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Tracer:
    """Spans recorded from the benchmark's own files, kept in memory.

    Each thread has its own span stack (a *lane*): a span's parent is
    the span open on the same thread when it began.  Disabled, ``span``
    hands back one shared no-op context, so untraced runs pay nothing.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._null = contextlib.nullcontext()

    def span(self, name: str, trial: int | None = None):
        if not self.enabled:
            return self._null
        return self._span(name, trial)

    @contextlib.contextmanager
    def _span(self, name: str, trial: int | None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = now()
        try:
            yield
        finally:
            end = now()
            stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "workload": self.workload,
                    "trial": trial,
                    "lane": threading.current_thread().name,
                }
            )

    def span_cost(self, samples: int = 20000) -> float:
        """Seconds one empty span costs, measured on a scratch tracer."""
        scratch = Tracer(self.workload, enabled=True)
        began = now()
        for _ in range(samples):
            with scratch.span("calibrate"):
                pass
        return (now() - began) / samples

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1) + "\n")


def self_times(spans: Iterable[dict[str, Any]]) -> dict[int, float]:
    """Span id -> self time: the span's duration minus its children's."""
    spans = list(spans)
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def breakdown(spans: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """Self time by span name and lane, largest first."""
    own = self_times(spans)
    rows: dict[tuple[str, str], dict[str, Any]] = {}
    for span in spans:
        row = rows.setdefault(
            (span["lane"], span["name"]),
            {"lane": span["lane"], "name": span["name"], "calls": 0,
             "total_s": 0.0, "self_s": 0.0},
        )
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    return sorted(rows.values(), key=lambda r: -r["self_s"])


# ----------------------------------------------------------------------
# Result of one run
# ----------------------------------------------------------------------
@dataclass
class Result:
    """What one run of one workload produced."""

    workload: str
    seed: int
    traced: bool
    metrics: dict[str, Measured] = field(default_factory=dict)
    #: Per-layer numbers; only a traced run fills them.
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: SHA-256 of the sorted assignment; must repeat across trials.
    assignment_digest: str = ""
    input_digest: str = ""
    breakdown: list[dict[str, Any]] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one verified operation; a mismatch is a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def see_digest(self, digest: str, where: str) -> None:
        """Every trial must place every vertex identically."""
        if not self.assignment_digest:
            self.assignment_digest = digest
        self.check(
            digest == self.assignment_digest,
            f"{where}: assignment digest {digest[:12]} differs from "
            f"{self.assignment_digest[:12]}",
        )

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_ops_rate": self.failed / max(1, self.attempted),
            "failures": self.failures,
            "assignment_digest": self.assignment_digest,
            "input_digest": self.input_digest,
            "metrics": {k: m.as_dict() for k, m in self.metrics.items()},
            "layers": self.layers,
            "breakdown": self.breakdown,
            "notes": self.notes,
        }


def assignment_digest(pairs: Iterable[tuple[Any, int]]) -> str:
    """SHA-256 over the sorted ``(vertex, partition)`` pairs."""
    listing = sorted((str(vertex), partition) for vertex, partition in pairs)
    return hashlib.sha256(json.dumps(listing).encode()).hexdigest()


def environment() -> dict[str, Any]:
    """Where the numbers came from."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "git_commit": commit or "unknown",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# Processes and scratch space
# ----------------------------------------------------------------------
def scratch_dir(stack: contextlib.ExitStack, prefix: str) -> Path:
    """A temp dir inside the benchmark's own ``out/`` (the run may write
    nowhere else), removed when ``stack`` unwinds."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))
    stack.callback(shutil.rmtree, path, ignore_errors=True)
    return path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return env


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> list[int]:
    found: list[int] = []
    for tid_dir in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found.extend(int(c) for c in (tid_dir / "children").read_text().split())
        except OSError:
            continue
    return found


def _proc_tree(pid: int) -> list[int]:
    """``pid`` and its descendants, parents before children."""
    pids = [pid]
    for child in _children(pid):
        pids.extend(_proc_tree(child))
    return pids


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sizes (VmHWM) over ``pid`` and its
    descendants: the daemon plus its shard workers."""
    total_kb = 0
    for member in _proc_tree(pid):
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


#: How long a process whose parent has gone gets to finish by itself (a
#: resource tracker unlinks shared memory at that point) before SIGKILL.
ORPHAN_GRACE = 10.0
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    exits (``PR_SET_CHILD_SUBREAPER``).  A daemon does not wait for the
    multiprocessing resource tracker it starts; adopted here, the tracker
    is still found by the sweep that ends the run instead of outliving
    it under ``init``.  Where the kernel refuses, ``Daemon.stop`` still
    waits for every process it saw under the daemon."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _running(pid: int) -> bool:
    """Does ``pid`` exist and is it more than a zombie someone else has
    yet to collect?"""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(") ", 1)[1].split()
    except (OSError, IndexError):
        return False
    return fields[0] != "Z" or int(fields[1]) == os.getpid()


def reap_children(only: Iterable[int] | None = None, grace: float = ORPHAN_GRACE) -> None:
    """Wait until none of this process's children -- or, given ``only``,
    none of those processes, whoever their parent is by now -- is left,
    zombies of this process included; whatever still runs after
    ``grace`` seconds is killed with its tree."""
    deadline = now() + grace
    while True:
        pending = [
            pid
            for pid in (_children(os.getpid()) if only is None else only)
            if _running(pid)
        ]
        if not pending:
            return
        for pid in pending:
            with contextlib.suppress(ChildProcessError):
                done, _ = os.waitpid(pid, os.WNOHANG)
                if done:
                    continue
            if now() >= deadline:
                for member in reversed(_proc_tree(pid)):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(member, signal.SIGKILL)
        if now() >= deadline + grace:
            raise RuntimeError(f"processes {pending} outlive SIGKILL")
        time.sleep(0.01)


def stop_own_resource_tracker() -> None:
    """A pool booted in this process (the traced run's probe) started a
    resource tracker that lives until this process closes its pipe, that
    is until after exit.  Close it now and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Daemon:
    """One ``python -m repro.cli serve --config`` subprocess on an
    ephemeral port.  ``stop`` always reaps it and, through
    ``adopt_orphans``, everything it started."""

    def __init__(self, config, workdir: Path) -> None:
        config_path = workdir / "serve.json"
        config_path.write_text(json.dumps(config.as_dict()))
        self._stderr = open(workdir / "daemon.stderr", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--config",
             str(config_path)],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=child_env(),
        )
        try:
            self.port = self._read_port(workdir)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, workdir: Path) -> int:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], SOCKET_TIMEOUT)
        banner = self.proc.stdout.readline().decode().strip() if ready else ""
        if not banner.startswith("serving tenants ["):
            stderr = (workdir / "daemon.stderr").read_text(errors="replace")
            raise RuntimeError(
                f"daemon failed to start: {banner!r}\n{stderr[-2000:]}"
            )
        return int(banner.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        proc = self.proc
        below = _proc_tree(proc.pid)[1:] if proc.poll() is None else []
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        # Its shard workers and resource tracker end by themselves now.
        reap_children(below)
        if proc.stdout is not None:
            proc.stdout.close()
        self._stderr.close()


def run_threads(targets: Sequence[Callable[[], None]], timeout: float) -> None:
    """Run each target on its own thread; a thread that raised or is
    still alive after ``timeout`` fails the run instead of stalling it."""
    errors: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(t,), name=f"client-{i}")
        for i, t in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    deadline = now() + timeout
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - now()))
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("a load-generator thread did not finish")
    if errors:
        raise errors[0]
