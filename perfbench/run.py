#!/usr/bin/env python3
"""Wall-clock benchmark of the Zidian reproduction, measured from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Every read goes through ``Session.execute`` and every write through
``Session.apply_updates`` of a ``QueryService`` over a ``ZidianSystem``,
timed around that call. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is a separate run that wraps each layer's entry points
(see ``spans.py``) and reports per-layer metrics. ``--exact-counts N``
runs the first N reads untimed and prints their exact counters, so two
runs with one seed can be compared.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is non-zero when an answer was wrong or an
operation failed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import mmap
import multiprocessing
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout: WAL directories and span files
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: set-ups per run; ``setup_s`` is the least of their scaled CPU times,
#: as a burst of load on the shared machine only ever adds time. Fewer
#: where a set-up is long, so that a run ends within a minute.
SETUP_REPEATS = {"point_lookup": 3, "analytic_scan": 5, "mixed_rw": 3}
#: interval of the speed samples a timer signal takes during a set-up
SETUP_SAMPLE_EVERY_S = 0.1
#: seconds of reads before measuring, so the cache is filled
WARMUP_S = 1.0
#: machine-speed reference: a fixed loop of random reads over a buffer
#: larger than the CPU caches plus integer arithmetic, timed between
#: reads. A shared VM runs the same code up to 50% slower from one
#: minute to the next, so every timing in the JSON line is scaled to a
#: machine on which the loop takes REFERENCE_KERNEL_MS (raw wall-clock
#: values are printed as well; see README.md).
KERNEL_BYTES = 32 << 20
KERNEL_READS = 10_000
KERNEL_STEPS = 15_000
REFERENCE_KERNEL_MS = 4.5
#: a read or block of reads is scaled by the speed samples taken within
#: this many seconds of it, which track the machine's drift during a run
#: better than the run's median does
LOCAL_WINDOW_S = 1.0
#: reads between two speed samples (about every 100 to 200 ms)
KERNEL_EVERY = {"point_lookup": 25, "analytic_scan": 1, "mixed_rw": 25}

#: reads per block: ``reads_per_s`` is the median over blocks, and the
#: traced run pairs traced and untraced blocks. An analytic_scan block is
#: one cycle of q7–q12.
BLOCK = {"point_lookup": 100, "analytic_scan": 6, "mixed_rw": 100}
#: the host's CPU-time accounting: its ``steal`` column counts the time
#: the hypervisor ran another guest while this machine had work to do
PROC_STAT = "/proc/stat"

#: the percentile each workload reports as ``read_tail_ms``, chosen so
#: that ten runs spread well inside the bound. point_lookup: p99, with
#: about 20 reads beyond it; its p90 falls on the edge between keyed
#: reads and index reads, and its ratio to the median jumped from 1.2
#: to 1.5-1.6 in some runs. analytic_scan: p75, as a 10 s run completes
#: ~45 reads. mixed_rw: p75, because its p90 and p99 are set by how
#: reads happen to collide with writes and spread 14-35%.
TAIL_PCT = {"point_lookup": 99, "analytic_scan": 75, "mixed_rw": 75}

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "reads_per_s": "1/s",
    "peak_rss_mb": "MB",
    "storage_bytes_per_user_byte": "B/B",
    "sim_ms_per_read": "ms",
}


def prepare_environment() -> List[str]:
    """Drop every ``REPRO_*`` variable and make ``src`` importable.

    The run passes its configuration explicitly, so nothing in the
    environment may change it. Exits non-zero when the checkout holds
    no program to measure.
    """
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program source under {SRC}; run from the "
            "root of a checkout"
        )
    sys.path.insert(0, SRC)
    return dropped


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------


def commit_id() -> Optional[str]:
    """The checked-out commit, or None outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program's Python sources (paths and bytes).

    Identifies the measured code where the checkout is an exported tree
    without ``.git``, so :func:`commit_id` has nothing to report.
    """
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n`` values."""
    return max(1, -(-pct * n // 100))


def nearest(values: List[float], pct: int) -> float:
    """Nearest-rank ``pct`` percentile of a non-empty sample."""
    return sorted(values)[rank(len(values), pct) - 1]


def supported(n: int, pct: int) -> bool:
    """At least ten of ``n`` samples lie beyond the percentile."""
    return pct <= 50 or n - rank(n, pct) >= 10


def stolen_ticks() -> int:
    """CPU time taken by the hypervisor so far, summed over all CPUs,
    in clock ticks (0 where the host does not report it)."""
    try:
        with open(PROC_STAT, encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else 0


def calm_blocks(steal: List[int]) -> List[int]:
    """Indices of the blocks whose stolen time is at most the median
    block's: at least half of them, and every one when none was stolen.

    ``steal`` holds :func:`stolen_ticks` at the start of the first block
    and at the end of each block. A burst of steal stalls the reads it
    falls on, whatever the program does, and the reference loop's median
    does not see a burst that spares most of its samples.
    """
    stolen = [after - before for before, after in zip(steal, steal[1:])]
    if not stolen:
        return []
    limit = sorted(stolen)[(len(stolen) - 1) // 2]
    return [i for i, ticks in enumerate(stolen) if ticks <= limit]


def children_cpu_s() -> float:
    """CPU seconds used so far by this process's node processes."""
    ticks = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        except (OSError, IndexError, ValueError):
            pass
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its node processes.

    The speed reference's buffer, resident from the start of the run,
    is not counted.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total_kb -= KERNEL_BYTES // 1024
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


class Kernel:
    """The reference loop whose time measures the machine's speed.

    Random byte reads over a 32 MiB buffer (cache misses) followed by
    integer arithmetic (interpreter dispatch). Together they track the
    program's own slowdowns better than either alone. The buffer is not
    inherited by forked node processes, and :func:`peak_rss_mb` leaves
    it out.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.buffer = mmap.mmap(-1, KERNEL_BYTES)
        self.buffer.madvise(mmap.MADV_DONTFORK)
        chunk = b"\x01" * (1 << 20)
        for _ in range(KERNEL_BYTES >> 20):  # make every page resident
            self.buffer.write(chunk)
        self.positions = [rng.randrange(KERNEL_BYTES)
                          for _ in range(KERNEL_READS)]

    def run(self) -> int:
        buffer = self.buffer
        total = 0
        for position in self.positions:
            total += buffer[position]
        for step in range(KERNEL_STEPS):
            total += (step * step) % 7
        return total


class Speed:
    """Samples of the reference loop's time, in milliseconds, on
    ``clock``: wall-clock time by default, or the thread's CPU time."""

    def __init__(self, kernel: Kernel, clock=time.perf_counter) -> None:
        self.kernel = kernel
        self.clock = clock
        self.samples_ms: List[float] = []
        #: ``time.perf_counter()`` at the start of each sample
        self.times: List[float] = []

    def sample(self) -> float:
        """Time the loop once; returns the seconds spent on ``clock``."""
        start = time.perf_counter()
        clock_start = self.clock()
        self.kernel.run()
        took = self.clock() - clock_start
        self.samples_ms.append(took * 1000.0)
        self.times.append(start)
        return took

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        return REFERENCE_KERNEL_MS / statistics.median(self.samples_ms)

    def local_factor(self, first: float, last: float) -> float:
        """:meth:`factor` from the samples taken within LOCAL_WINDOW_S
        of the stretch from ``first`` to ``last`` (perf_counter times)."""
        lo = bisect.bisect_left(self.times, first - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, last + LOCAL_WINDOW_S)
        near = self.samples_ms[lo:hi] or self.samples_ms
        return REFERENCE_KERNEL_MS / statistics.median(near)


# --------------------------------------------------------------------------
# per-read counters (exact counts from each result's ExecutionMetrics)
# --------------------------------------------------------------------------

COUNTER_FIELDS = (
    "n_get", "n_round_trips", "data_values", "comm_bytes",
    "cache_hits", "cache_misses", "index_probes", "index_postings",
    "overlay_reads", "versions_skipped",
)


@dataclass
class ReadCounters:
    reads: int = 0
    rows: int = 0
    sim_ms: float = 0.0
    totals: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COUNTER_FIELDS, 0)
    )

    def add(self, result) -> None:
        metrics = result.metrics
        self.reads += 1
        self.rows += len(result.rows)
        self.sim_ms += metrics.sim_time_ms
        for name in COUNTER_FIELDS:
            self.totals[name] += getattr(metrics, name)

    def per_read(self, name: str) -> float:
        return self.totals[name] / self.reads if self.reads else 0.0

    def as_dict(self) -> dict:
        out = {"reads": self.reads, "rows": self.rows, "sim_ms": self.sim_ms}
        out.update(self.totals)
        return out


# --------------------------------------------------------------------------
# the measured run
# --------------------------------------------------------------------------


@dataclass
class RunLog:
    """Everything one run observed."""

    read_ms: List[float] = field(default_factory=list)
    #: ``time.perf_counter()`` at the end of each timed read
    read_done: List[float] = field(default_factory=list)
    #: ``time.perf_counter()`` when measuring began
    start: float = 0.0
    #: seconds spent in speed samples since measuring began, as of the
    #: end of each timed read (so block durations can leave them out)
    read_paused: List[float] = field(default_factory=list)
    paused_s: float = 0.0
    #: timed reads per block
    block: int = 1
    #: :func:`stolen_ticks` when measuring began and after each block
    steal: List[int] = field(default_factory=list)
    speed: Optional[Speed] = None
    write_ms: List[float] = field(default_factory=list)
    writer_late_ms: List[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    attempted: int = 0
    #: operations that raised
    failures: List[str] = field(default_factory=list)
    #: wrong answers and failed checks
    wrong: List[str] = field(default_factory=list)
    counters: ReadCounters = field(default_factory=ReadCounters)
    answers: List[Tuple[str, list]] = field(default_factory=list)
    #: traced minus untraced ms per read, one value per block pair
    overhead_ms: List[float] = field(default_factory=list)
    overhead_pct: List[float] = field(default_factory=list)
    inserted_bytes: int = 0
    #: scheduled writes the writer never made
    missing_writes: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.wrong) + self.missing_writes


class Reader:
    """The closed-loop reader: executes and times one read at a time."""

    def __init__(self, deployment, log: RunLog, tracer=None) -> None:
        from repro.errors import ReproError

        self.session = deployment.service.open_session("reader")
        self.log = log
        self.tracer = tracer
        self.error = ReproError
        self.op_ids = iter(range(1, 1 << 62, 2))
        #: held by the mixed_rw writer for the whole of each write. Speed
        #: samples and switching the tracer take it too, so the reference
        #: loop never runs beside a write, and a write is traced either
        #: entirely or not at all.
        self.gate = threading.Lock()

    def read(self, sql: str, record: bool = True):
        """One timed read; returns the result, or None when it failed."""
        log = self.log
        tracer = self.tracer
        traced = tracer is not None and tracer.installed
        try:
            start = time.perf_counter()
            if traced:
                with tracer.op("op.read", next(self.op_ids)):
                    result = self.session.execute(sql)
            else:
                result = self.session.execute(sql)
            end = time.perf_counter()
        except self.error as exc:
            # a failed warm-up read counts too: no failure goes unreported
            log.attempted += 1
            log.failures.append(f"read failed: {exc!r} for {sql!r}")
            return None
        if record:
            log.attempted += 1
            log.read_ms.append((end - start) * 1000.0)
            log.read_done.append(end)
            log.read_paused.append(log.paused_s)
            log.counters.add(result)
            if len(log.read_ms) % log.block == 0:
                log.steal.append(stolen_ticks())
        return result

    def sample_speed(self, wait: bool = True) -> bool:
        """Time the reference loop once while no write is in flight.

        Without ``wait``, gives up (returning False) when a write is.
        """
        if not self.gate.acquire(blocking=wait):
            return False
        try:
            self.log.paused_s += self.log.speed.sample()
        finally:
            self.gate.release()
        return True

    def loop(self, items, run_one, deadline: float, every: int,
             cycle: int = 1) -> None:
        """Closed loop: ``run_one`` on each item until the deadline has
        passed on a multiple of ``cycle`` items, sampling the machine's
        speed every ``every`` items, or after the first later item that
        ends while no write is in flight."""
        done = 0
        pending = False
        while done % cycle or time.perf_counter() < deadline:
            run_one(next(items))
            done += 1
            pending = pending or done % every == 0
            if pending:
                pending = not self.sample_speed(wait=False)


def interleave(next_block, run_one, deadline, tracer, reader) -> None:
    """Alternate traced and untraced blocks of the same reads.

    Each pair runs one block of reads twice, once with the wrappers
    installed and once without, alternating which goes first. The
    per-pair difference is the tracing overhead; the per-layer numbers
    come from the traced halves.
    """
    log = reader.log
    pair = 0
    while time.perf_counter() < deadline:
        block = next_block()
        reader.sample_speed()
        per_read: Dict[bool, float] = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            before = len(log.read_ms)
            if traced:
                with reader.gate:
                    tracer.install()
            try:
                for item in block:
                    run_one(item)
            finally:
                if traced:
                    with reader.gate:
                        tracer.uninstall()
            timed = log.read_ms[before:]
            per_read[traced] = sum(timed) / max(1, len(timed))
        log.overhead_ms.append(per_read[True] - per_read[False])
        if per_read[False]:
            log.overhead_pct.append(
                (per_read[True] / per_read[False] - 1.0) * 100.0
            )
        pair += 1


def run_reads(workload, deployment, seed, seconds, tracer, log) -> None:
    """Closed-loop reads of point_lookup / analytic_scan."""
    import workloads

    stream = (sql for _, sql in
              workloads.READ_STREAMS[workload](deployment.database, seed))
    reader = Reader(deployment, log, tracer)
    # analytic_scan runs whole cycles of q7–q12, warm-up included
    cycle = 6 if workload == "analytic_scan" else 1
    every = KERNEL_EVERY[workload]
    reader.loop(stream, lambda sql: reader.read(sql, record=False),
                time.perf_counter() + WARMUP_S, every, cycle)

    def one(sql: str) -> None:
        result = reader.read(sql)
        if result is not None:
            log.answers.append((sql, result.rows))

    log.steal = [stolen_ticks()]
    start = log.start = time.perf_counter()
    deadline = start + seconds
    if tracer is None:
        reader.loop(stream, one, deadline, every, cycle)
    else:
        block = BLOCK[workload]
        interleave(lambda: [next(stream) for _ in range(block)], one,
                   deadline, tracer, reader)
    log.elapsed_s = time.perf_counter() - start
    reader.session.close()


def run_mixed(deployment, seed, seconds, tracer, log) -> None:
    """mixed_rw: a closed-loop reader beside an open-loop writer."""
    import workloads
    from repro.kv import codec

    database = deployment.database
    base = workloads.delay_counts(database)
    ledger = workloads.WriteLedger()
    lock = threading.Lock()
    next_insert = workloads.make_writer(database, seed)
    reads = workloads.mixed_rw_reads(database, seed)
    reader = Reader(deployment, log, tracer)
    rate = workloads.CONFIGS["mixed_rw"]["writes_per_s"]

    every = KERNEL_EVERY["mixed_rw"]
    reader.loop(reads, lambda item: reader.read(item[1], record=False),
                time.perf_counter() + WARMUP_S, every)

    log.steal = [stolen_ticks()]
    start = log.start = time.perf_counter()
    deadline = start + seconds
    # the writer never skips a write, however late it runs
    scheduled = math.ceil(seconds * rate)
    write_failures: List[str] = []
    escaped: List[BaseException] = []

    def write(session, op_ids, row) -> None:
        if tracer is not None and tracer.installed:
            with tracer.op("op.write", next(op_ids)):
                session.apply_updates("DELAY", [row], [])
        else:
            session.apply_updates("DELAY", [row], [])

    def writer() -> None:
        session = deployment.service.open_session("writer")
        op_ids = iter(range(2, 1 << 62, 2))
        try:
            for index in range(scheduled):
                due = start + index / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                flight_id, row = next_insert(index)
                with lock:
                    ledger.submitted[flight_id] += 1
                with reader.gate:
                    began = time.perf_counter()
                    try:
                        write(session, op_ids, row)
                    except Exception as exc:  # any bug on the write path
                        write_failures.append(f"write failed: {exc!r}")
                        continue
                    done = time.perf_counter()
                with lock:
                    ledger.acked[flight_id] += 1
                    ledger.acked_ids.append((row[0], flight_id))
                log.write_ms.append((done - due) * 1000.0)
                log.writer_late_ms.append((began - due) * 1000.0)
                log.inserted_bytes += len(codec.encode_row(row))
        except BaseException as exc:
            escaped.append(exc)
        finally:
            session.close()

    def one(item) -> None:
        template, sql, flight_id = item
        with lock:
            must_see = ledger.acked[flight_id]
        result = reader.read(sql)
        if result is None:
            return
        with lock:
            may_see = ledger.submitted[flight_id]
        seen = workloads.rows_seen(template, result.rows) - base[flight_id]
        if not must_see <= seen <= may_see:
            log.wrong.append(
                f"flight {flight_id}: a read saw {seen} inserts; "
                f"{must_see} were acknowledged before it started and "
                f"{may_see} submitted by its end"
            )

    thread = threading.Thread(target=writer, name="perfbench-writer")
    thread.start()
    try:
        if tracer is None:
            reader.loop(reads, one, deadline, every)
        else:
            block = BLOCK["mixed_rw"]
            interleave(lambda: [next(reads) for _ in range(block)], one,
                       deadline, tracer, reader)
    finally:
        thread.join(timeout=120)
    if thread.is_alive():
        raise RuntimeError("the writer thread did not stop")
    if escaped:
        raise escaped[0]
    log.elapsed_s = time.perf_counter() - start
    reader.session.close()
    made = len(log.write_ms) + len(write_failures)
    log.attempted += scheduled
    log.failures.extend(write_failures)
    log.missing_writes = scheduled - made
    log.wrong.extend(workloads.verify_inserts(deployment, ledger, base))


# --------------------------------------------------------------------------
# metric assembly
# --------------------------------------------------------------------------


def end_to_end(workload: str, log: RunLog,
               setups: List[Tuple[float, float]],
               rss_mb: float, storage_ratio: float) -> Tuple[dict, List[str]]:
    """The end-to-end metrics, plus printed lines for the raw timings
    and for the metrics only some workloads have (write latencies,
    tails the sample supports).

    ``setups`` holds the wall-clock, CPU and scaled CPU seconds of each
    set-up (see :func:`timed_deploy`). The read metrics come from the blocks of
    reads :func:`calm_blocks` keeps.
    """
    tail_pct = TAIL_PCT[workload]
    size = BLOCK[workload]
    speed = log.speed
    factor = speed.factor()
    total = len(log.read_ms)
    kept = calm_blocks(log.steal)
    if not kept:
        raise RuntimeError(f"fewer than {size} reads were timed; run longer")
    chosen = [j for i in kept for j in range(i * size, (i + 1) * size)]
    reads = [log.read_ms[j] for j in chosen]
    n = len(reads)
    # each read at the machine speed of its own second of the run
    scaled = [log.read_ms[j] * speed.local_factor(log.read_done[j],
                                                  log.read_done[j])
              for j in chosen]
    # block durations leave out the speed samples taken inside them
    ends = [(log.start, 0.0)] + [
        (log.read_done[i], log.read_paused[i])
        for i in range(size - 1, total, size)
    ]
    blocks = [
        (start, done, size / ((done - start) - (paused - paused_before)))
        for (start, paused_before), (done, paused) in zip(ends, ends[1:])
    ]
    blocks = [blocks[i] for i in kept]

    def p50(values: List[float]) -> float:
        if workload != "analytic_scan":
            return nearest(values, 50)
        # six templates whose latencies differ up to fivefold: a per-read
        # median falls on the edge of two templates' clusters, so the
        # median is taken over cycles (mean read latency of each)
        return statistics.median(
            statistics.fmean(values[i:i + size])
            for i in range(0, n - size + 1, size)
        )

    raw = {
        "setup_s": min(cpu_s for _, cpu_s, _ in setups),
        "read_p50_ms": p50(reads),
        "read_tail_ms": nearest(reads, tail_pct),
        "reads_per_s": statistics.median(rate for _, _, rate in blocks),
    }
    read_p50_ms = p50(scaled)
    metrics = {
        "setup_s": min(scaled_s for _, _, scaled_s in setups),
        "read_p50_ms": read_p50_ms,
        # the tail's ratio to the median is taken within the run, where
        # the machine's speed cancels, and scaled with the median: per
        # read factors put their own noise into an upper percentile
        "read_tail_ms": read_p50_ms * raw["read_tail_ms"] / raw["read_p50_ms"],
        "reads_per_s": statistics.median(
            rate / speed.local_factor(start, done)
            for start, done, rate in blocks
        ),
        "peak_rss_mb": rss_mb,
        "storage_bytes_per_user_byte": storage_ratio,
        "sim_ms_per_read": log.counters.sim_ms / log.counters.reads,
    }
    samples = log.speed.samples_ms
    lines = [
        f"  reads                        {total} in {log.elapsed_s:.3f} s, "
        f"{n} measured; read_tail_ms is p{tail_pct}, "
        f"{n - rank(n, tail_pct)} beyond it; "
        f"reads_per_s is the median of {len(blocks)} blocks of {size}",
        f"  calm blocks                  {len(kept)} of "
        f"{len(log.steal) - 1} measured; stolen CPU ticks per block "
        + " ".join(str(b - a) for a, b in zip(log.steal, log.steal[1:])),
        f"  speed factor                 {factor:.4f} over the run; reads "
        f"are scaled by their own second's (reference loop median "
        f"{statistics.median(samples):.3f} ms over {len(samples)} samples)",
        "  set-ups, wall/CPU/scaled s   "
        + ", ".join(f"{wall_s:.4f}/{cpu_s:.4f}/{scaled_s:.4f}"
                    for wall_s, cpu_s, scaled_s in setups),
        "  raw wall clock               "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
    ]
    extra = [("read", reads, 90), ("read", reads, 99)]
    if log.write_ms:
        lines.append(
            f"  writes                       {len(log.write_ms)}, timed from "
            "their due time (raw wall clock)"
        )
        extra += [("write", log.write_ms, 50), ("write", log.write_ms, 90),
                  ("writer_late", log.writer_late_ms, 99)]
    for label, values, pct in extra:
        name = f"{label}_p{pct}_ms"
        if supported(len(values), pct):
            lines.append(f"  {name:<28} {nearest(values, pct):.6g} ms")
        else:
            lines.append(f"  {name:<28} n/a (fewer than 10 samples beyond)")
    if log.write_ms:
        lines.append(
            f"  {'writer_late_max_ms':<28} {max(log.writer_late_ms):.6g} ms"
        )
    lines.append(
        f"  {'ops_failed_frac':<28} "
        f"{log.failed / max(1, log.attempted):.6g} "
        f"({log.failed} of {log.attempted})"
    )
    return metrics, lines


#: per-layer self-time metrics: (metric, op kind, span names). Each is
#: entered by every workload, so none reads an exact zero.
SELF_TIME_METRICS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("service.op_ms", "read", ("op.read",)),
    ("sql.parse_ms", "read", ("sql.parse",)),
    ("sql.bind_ms", "read", ("sql.bind",)),
    ("core.plan_ms", "read", ("core.plan",)),
    ("parallel.engine_ms", "read", ("parallel.engine",)),
    ("parallel.meter_ms", "read", ("parallel.meter",)),
    ("kba.operator_ms", "read", ("kba.operator",)),
    ("baav.fetch_ms", "read", ("baav.fetch",)),
    ("cache.lookup_ms", "read", ("cache.lookup",)),
    ("codec.decode_ms", "read", ("codec.decode",)),
    ("cluster.multi_get_ms", "read", ("cluster.multi_get",)),
    ("cluster.charge_ms", "read", ("cluster.charge",)),
)

#: self times of layers only some workloads enter: printed and kept in
#: the span file, but not in the JSON line, where a workload that never
#: enters the layer would report an exact zero on every run
SPECIFIC_SELF_TIMES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("index.probe_ms", "read", ("index.probe",)),
    ("taav.fetch_ms", "read", ("taav.fetch",)),
    ("cluster.get_ms", "read", ("cluster.get",)),
    ("cluster.scan_ms", "read", ("cluster.scan",)),
    ("rpc.read_ms", "read", ("rpc",)),
    ("write.op_ms", "write", ("op.write",)),
    ("mvcc.commit_ms", "write", ("mvcc.commit",)),
    ("maint.apply_ms", "write", ("maint.apply",)),
    ("cluster.write_ms", "write", ("cluster.write",)),
    ("rpc.write_ms", "write", ("rpc",)),
)

#: the block I/O group the workloads separate: BaaV block fetch with
#: its cache lookups, cluster reads and RPCs, block decode, value
#: charging and size metering. TaaV tuple fetches of index probes are
#: not in it.
BLOCK_IO = ("baav.fetch", "cache.lookup", "codec.decode", "cluster.get",
            "cluster.multi_get", "cluster.scan", "cluster.charge",
            "parallel.meter", "rpc")


def per_layer(log: RunLog, times, units, cache_delta, wal_delta,
              service_stats, tracked_versions) -> Tuple[dict, List[str]]:
    """The per-layer metrics of a traced run, plus printed lines."""
    counters = log.counters
    traced_reads = times.ops.get("read", 0)
    traced_ops = traced_reads + times.ops.get("write", 0)
    read_wall = times.wall_ns.get("read", 0)

    def share(names) -> float:
        busy = sum(times.self_ns.get(("read", n), 0) for n in names)
        return 100.0 * busy / read_wall if read_wall else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    totals = counters.totals
    factor = log.speed.factor()
    metrics: Dict[str, Tuple[float, str]] = {
        name: (times.self_ms(kind, names) * factor, f"ms/{kind}")
        for name, kind, names in SELF_TIME_METRICS
    }
    metrics.update({
        "layers.block_io_share_pct": (share(BLOCK_IO), "%"),
        "layers.plan_share_pct": (share(("core.plan",)), "%"),
        "baav.blocks_per_read": (
            ratio(units.get("baav.fetch", 0), traced_reads), "count"),
        "codec.decodes_per_read": (
            times.calls_per_op("read", ("codec.decode",)), "count"),
        "cluster.charges_per_read": (
            times.calls_per_op("read", ("cluster.charge",)), "count"),
        "cluster.round_trips_per_read": (
            counters.per_read("n_round_trips"), "count"),
        "cache.hit_rate": (
            ratio(cache_delta["hits"],
                  cache_delta["hits"] + cache_delta["misses"]), "ratio"),
        "cache.evictions": (cache_delta["evictions"], "count"),
        "cache.invalidations": (cache_delta["invalidations"], "count"),
        "index.probes_per_read": (counters.per_read("index_probes"), "count"),
        "index.postings_per_probe": (
            ratio(totals["index_postings"], totals["index_probes"]), "count"),
        "mvcc.overlay_reads": (counters.per_read("overlay_reads"), "count"),
        "mvcc.versions_skipped": (
            counters.per_read("versions_skipped"), "count"),
        "mvcc.tracked_versions_end": (tracked_versions, "count"),
        "rpc.calls_per_op": (
            ratio(sum(times.calls.get((k, "rpc"), 0)
                      for k in ("read", "write")), traced_ops), "count"),
        "wal.records_per_write": (
            ratio(wal_delta["records"], len(log.write_ms)), "count"),
        "wal.bytes_per_user_byte": (
            ratio(wal_delta["bytes"], log.inserted_bytes), "B/B"),
        "service.failed": (service_stats.failed, "count"),
        "service.shed": (service_stats.shed, "count"),
        "paper.n_get": (counters.per_read("n_get"), "count"),
        "paper.data_values": (counters.per_read("data_values"), "count"),
        "paper.comm_bytes": (counters.per_read("comm_bytes"), "B"),
        "paper.sim_ms": (ratio(counters.sim_ms, counters.reads), "ms"),
        "kv.values_per_row": (
            ratio(totals["data_values"], counters.rows), "count"),
        "trace.overhead_ms": (
            statistics.median(log.overhead_ms) * factor
            if log.overhead_ms else 0.0, "ms/read"),
        "trace.overhead_pct": (
            statistics.median(log.overhead_pct) if log.overhead_pct else 0.0,
            "%"),
    })

    total_self = times.total_self_ns()
    total_wall = sum(times.wall_ns.values())
    lines = [
        f"  speed factor {factor:.4f}: self times in the JSON line are "
        "scaled by it; the table below is raw wall clock",
        f"  traced reads {traced_reads}, traced writes "
        f"{times.ops.get('write', 0)}, block pairs {len(log.overhead_ms)}",
        "  overhead per pair, ms/read  "
        + ", ".join(f"{v:.3f}" for v in log.overhead_ms),
        f"  layer self times sum to {total_self / 1e6:.3f} ms of "
        f"{total_wall / 1e6:.3f} ms traced op time",
    ]
    for kind in ("read", "write"):
        wall = times.wall_ns.get(kind, 0)
        if not wall:
            continue
        ops = times.ops[kind]
        lines.append(f"  self time per {kind} ({ops} traced), by span:")
        for (k, name), ns in sorted(times.self_ns.items(),
                                    key=lambda item: -item[1]):
            if k == kind:
                lines.append(
                    f"    {name:<20} {ns / ops / 1e6:10.4f} ms "
                    f"{100.0 * ns / wall:6.2f} % "
                    f"{times.calls[(k, name)] / ops:10.1f} calls"
                )
    for name, kind, names in SPECIFIC_SELF_TIMES:
        lines.append(
            f"  {name:<28} {times.self_ms(kind, names):.6g} ms/{kind} (raw)"
        )
    return metrics, lines


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def cache_snapshot(system) -> Dict[str, int]:
    stats = system.cache_stats()
    return {
        "hits": stats.hits, "misses": stats.misses,
        "evictions": stats.evictions, "invalidations": stats.invalidations,
    }


def timed_deploy(workload: str, kernel: Kernel):
    """One set-up: its wall-clock seconds, its CPU seconds, and its CPU
    seconds at reference speed.

    The CPU seconds are those of this process and of its node processes.
    Time the hypervisor gave to other guests is not in them (the kernel
    accounts it as steal), nor is waiting for a CPU. A timer signal runs
    the reference loop every SETUP_SAMPLE_EVERY_S during the set-up, in
    the main thread between two bytecodes, timed on the thread's CPU
    clock. The set-up's times leave those samples out, and the CPU
    seconds are scaled by their median. Samples taken only right before
    and right after a set-up tracked its speed far worse (see README.md).
    """
    import workloads

    gc.collect()  # every set-up starts from the same heap
    speed = Speed(kernel, clock=time.thread_time)
    spent: List[Tuple[float, float]] = []

    def on_timer(signum, frame) -> None:
        start = time.perf_counter()
        cpu_s = speed.sample()
        spent.append((time.perf_counter() - start, cpu_s))

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, SETUP_SAMPLE_EVERY_S,
                     SETUP_SAMPLE_EVERY_S)
    cpu_before = time.process_time() + children_cpu_s()
    try:
        deployment = workloads.deploy(workload, WORK_DIR)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    cpu_s = (time.process_time() + children_cpu_s() - cpu_before
             - sum(cpu for _, cpu in spent))
    wall_s = deployment.setup_s - sum(wall for wall, _ in spent)
    if not spent:  # shorter than one interval
        speed.sample()
    return deployment, (wall_s, cpu_s, cpu_s * speed.factor())


def run_workload(args, dropped: List[str]) -> int:
    import spans
    import workloads

    workload = args.workload
    os.makedirs(WORK_DIR, exist_ok=True)
    config = workloads.CONFIGS[workload]
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  config   {json.dumps(config, sort_keys=True)}")
    print(f"  host     nproc={os.cpu_count()} "
          f"python={sys.version.split()[0]}")
    print(f"  program  commit={commit_id()} source_sha256={source_digest()}")
    print(f"  env      dropped {dropped or 'no'} REPRO_* variables")

    # the reference loop's buffer exists before anything is measured,
    # so peak_rss_mb can leave it out exactly
    log = RunLog(speed=Speed(Kernel()), block=BLOCK[workload])
    tracer = spans.Tracer() if args.trace else None
    deployment, first_setup = timed_deploy(workload, log.speed.kernel)
    setups = [first_setup]
    try:
        system = deployment.system
        cache_before = cache_snapshot(system)
        wal_before = system.cluster.wal_stats()
        if workload == "mixed_rw":
            run_mixed(deployment, args.seed, args.seconds, tracer, log)
        else:
            run_reads(workload, deployment, args.seed, args.seconds,
                      tracer, log)
        cache_after = cache_snapshot(system)
        wal_after = system.cluster.wal_stats()
        rss = peak_rss_mb()
        storage_ratio = (
            system.cluster.size_bytes()
            / workloads.user_bytes(deployment.database)
        )
        service_stats = deployment.service.stats()
        manager = system.transactions
        tracked = manager.versions.tracked_versions() if manager else 0
    finally:
        deployment.close()
    if log.answers:
        checker = workloads.ReferenceChecker(deployment.database)
        log.wrong.extend(
            f"wrong answer to {sql!r}" for sql in checker.wrong(log.answers)
        )

    if tracer is None:
        for _ in range(SETUP_REPEATS[workload] - 1):
            again, setup = timed_deploy(workload, log.speed.kernel)
            setups.append(setup)
            again.close()
        values, lines = end_to_end(workload, log, setups, rss, storage_ratio)
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        times = spans.layer_times(tracer.spans)
        log.wrong.extend(
            f"trace: {p}" for p in spans.check_nesting(tracer.spans)[:10]
        )
        metrics, lines = per_layer(
            log, times, tracer.units,
            {k: cache_after[k] - cache_before[k] for k in cache_after},
            {k: wal_after[k] - wal_before.get(k, 0) for k in wal_after},
            service_stats, tracked,
        )
        span_path = os.path.join(WORK_DIR, f"spans-{workload}.jsonl.gz")
        tracer.write(span_path, {
            "workload": workload, "seed": args.seed, "config": config,
            "fields": ["span", "parent", "name", "op", "start_ns", "end_ns"],
        })
        lines.append(f"  spans    {len(tracer.spans)} written to "
                     f"{os.path.relpath(span_path, ROOT)}")

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    problems = log.failures + log.wrong
    if log.missing_writes:
        problems.append(f"the writer skipped {log.missing_writes} writes")
    for problem in problems[:20]:
        print(f"  PROBLEM  {problem}")
    correct = log.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, log.attempted),
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def exact_counts(args) -> int:
    """Untimed: the first N reads of the stream, and their exact counts."""
    import workloads

    if args.workload not in workloads.READ_STREAMS:
        raise SystemExit("--exact-counts needs a single-client read workload")
    os.makedirs(WORK_DIR, exist_ok=True)
    deployment = workloads.deploy(args.workload, WORK_DIR)
    counters = ReadCounters()
    try:
        session = deployment.service.open_session("counts")
        stream = workloads.READ_STREAMS[args.workload](
            deployment.database, args.seed
        )
        for _ in range(args.exact_counts):
            counters.add(session.execute(next(stream)[1]))
        cache = cache_snapshot(deployment.system)
    finally:
        deployment.close()
    print(json.dumps({"counters": counters.as_dict(), "cache": cache},
                     sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    import workloads

    merged: Dict[str, dict] = {}
    correct, attempted, failed, code = True, 0, 0, 0
    for workload in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return proc.returncode or 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        code = code or proc.returncode
        for name, entry in result["metrics"].items():
            merged[f"{workload}.{name}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark of the Zidian reproduction."
    )
    parser.add_argument("--workload", required=True,
                        choices=("point_lookup", "analytic_scan", "mixed_rw",
                                 "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--exact-counts", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    dropped = prepare_environment()
    # a terminated run still closes its deployment (and so stops its
    # node processes) on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if args.exact_counts:
        return exact_counts(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, dropped)


if __name__ == "__main__":
    sys.exit(main())
