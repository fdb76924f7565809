"""Near-zero-overhead per-cycle telemetry: spans, counters, worker
sub-spans, timeline events and metrics streaming.

A :class:`Telemetry` object attributes a simulation cycle's wall time
to named phases.  Engines wrap each phase in ``with telemetry.span(
"refresh"):`` blocks; nested spans build ``"/"``-separated paths
(``"refresh/waves"``), so the report layer can reconstruct a self-time
tree.  Precomputed durations — a dispatch measured around its barrier,
a worker's kernel time carried back from its thread or in its reply —
enter through :meth:`Telemetry.add_span`, and monotonic counters
(messages, wire bytes, barrier-wait nanoseconds) through
:meth:`Telemetry.count`.

Records are cut per cycle: :meth:`begin_cycle` opens a record,
:meth:`end_cycle` stamps its wall time and emits it to the attached
sink (see :mod:`repro.obs.sink`).  Spans and counters recorded
*outside* a cycle — collectors computing metrics after ``run_cycle``
returns — accumulate in an ambient bucket that is flushed as its own
``"ambient"`` record just before the next cycle opens (or on
:meth:`flush`), so nothing is silently dropped and cycle records stay
directly comparable to cycle wall time.

On top of the PR-6 span tree this module adds three opt-in layers:

* **worker sub-spans** (:meth:`add_worker_spans`) — the executors
  merge the per-command sub-span dicts of their workers (kernel on a
  thread; deserialize/compute/serialize shipped back by a transport
  worker) into the open record's ``"workers"`` bucket, keyed by
  worker index, so the report can render a per-worker
  utilization/straggler table;
* **timeline mode** (``timeline=True``) — spans additionally record
  ``[track, path, start_offset_ns, dur_ns]`` events (offsets relative
  to the cycle's wall start) in the record's ``"events"`` list; the
  :mod:`repro.obs.traceview` converter turns them into a Chrome/
  Perfetto trace with one track per worker plus the driver;
* **metrics streaming** (``metrics_every=K``) — the engines emit a
  ``{"kind": "metrics"}`` record (SDM/GDM/accuracy/live count) every
  K cycles through :meth:`emit_metrics`, so convergence is a
  first-class stream instead of a post-hoc recomputation.

An attached :attr:`watchdog` (see :mod:`repro.obs.watchdog`) is
consulted by the engines at the end of every cycle; it reads the
finished record and raises on an invariant violation.  None of these
layers ever touches an RNG stream: profiled, streamed and watchdogged
runs stay bitwise identical to plain ones.

The default is :data:`NULL_TELEMETRY`: a no-op whose ``span`` returns
one shared reusable context manager, so uninstrumented runs pay a
single attribute lookup and an empty ``__enter__``/``__exit__`` pair
per phase — nanoseconds against millisecond-scale array passes.
"""

from __future__ import annotations

import mmap
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

from repro.obs.sink import NdjsonSink
from repro.obs.watchdog import Watchdog

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY", "telemetry_from_options"]


def resident_mb(peak: bool = False) -> float:
    """This process's resident set in MB (10^6 B): the current one (one
    ``/proc/self/statm`` read) or, with ``peak``, its high-water mark
    (``ru_maxrss``, KB on Linux); 0.0 on a platform with neither."""
    try:
        if peak:
            import resource

            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * mmap.PAGESIZE / 1e6
    except (ImportError, OSError):
        return 0.0


def minor_faults() -> int:
    """This process's minor page faults so far (``ru_minflt``): pages
    mapped on first touch, memory the allocator returned to the kernel
    and asked for again included; 0 on a platform without
    ``resource``."""
    try:
        import resource
    except ImportError:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def merge_counter(bucket: dict, name: str, value) -> None:
    """Fold ``value`` into ``bucket[name]``: counters add up; *levels*
    — the ``mem.*`` names, resident MB of some process at some point —
    keep the largest value seen, within a record and across records."""
    if name.startswith("mem."):
        bucket[name] = max(bucket.get(name, value), value)
    else:
        bucket[name] = bucket.get(name, 0) + value


class _Span:
    """Context manager timing one phase; pushes its name on the owner's
    span stack so nested spans extend the path."""

    __slots__ = ("_telemetry", "_name", "_start", "_hwm")

    def __init__(self, telemetry: "Telemetry", name: str, hwm: bool) -> None:
        self._telemetry = telemetry
        self._name = name
        self._hwm = hwm

    def __enter__(self) -> "_Span":
        self._telemetry._stack.append(self._name)
        self._start = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter_ns() - self._start
        telemetry = self._telemetry
        path = "/".join(telemetry._stack)
        telemetry._stack.pop()
        bucket = telemetry._span_bucket()
        entry = bucket.get(path)
        if entry is None:
            bucket[path] = [elapsed, 1]
        else:
            entry[0] += elapsed
            entry[1] += 1
        if telemetry.timeline and telemetry._record is not None:
            telemetry._record["events"].append(
                ["driver", path, self._start - telemetry._wall_start, elapsed]
            )
        if self._hwm:
            telemetry.count("mem.hwm_mb:" + path, resident_mb(peak=True))
        return False


class _NullSpan:
    """Shared reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Collects span timings and counters into per-cycle records.

    Parameters
    ----------
    engine:
        Label stamped on every record (``"vectorized"``, ``"sharded"``,
        ...), so one NDJSON file can interleave several engines.
    sink:
        Optional object with a ``write(record: dict)`` method (usually
        an :class:`~repro.obs.sink.NdjsonSink`); every finished record
        is also kept in :attr:`records` for in-process reporting.
    timeline:
        Record start-offset events for every span (and worker
        sub-span), enabling the :mod:`repro.obs.traceview` Perfetto
        export.  Off by default — events grow records by one entry per
        span per cycle.
    metrics_every:
        Ask the engines to emit a ``{"kind": "metrics"}`` convergence
        record every this many cycles (``None`` = no stream).
    watchdog:
        Optional :class:`~repro.obs.watchdog.Watchdog`; the engines
        hand it every finished cycle record for invariant checking.
    """

    enabled = True

    def __init__(
        self,
        engine: str = "",
        sink=None,
        timeline: bool = False,
        metrics_every: Optional[int] = None,
        watchdog=None,
    ) -> None:
        if metrics_every is not None:
            metrics_every = int(metrics_every)
            if metrics_every < 1:
                raise ValueError(
                    f"metrics_every must be >= 1, got {metrics_every}"
                )
        self.engine = engine
        self.sink = sink
        self.timeline = bool(timeline)
        self.metrics_every = metrics_every
        self.watchdog = watchdog
        self.records: List[dict] = []
        self._stack: List[str] = []
        self._record: Optional[dict] = None
        self._ambient_spans: Dict[str, list] = {}
        self._ambient_counters: Dict[str, float] = {}
        self._ambient_workers: Dict[str, dict] = {}
        self._wall_start = 0

    # -- recording ----------------------------------------------------

    def span(self, name: str, hwm: bool = False) -> _Span:
        """Time a phase; nests under any currently open span.  With
        ``hwm`` the process's peak RSS at the end of the phase is kept
        as the level ``mem.hwm_mb:<path>``."""
        return _Span(self, name, hwm)

    def add_span(
        self,
        name: str,
        elapsed_ns: int,
        count: int = 1,
        start_ns: Optional[int] = None,
    ) -> None:
        """Account an externally measured duration under the current
        span path (dispatch round-trips, worker kernel times).  With
        timeline mode on, ``start_ns`` (a ``perf_counter_ns`` stamp)
        additionally places the span on the driver track."""
        self._stack.append(name)
        path = "/".join(self._stack)
        self._stack.pop()
        bucket = self._span_bucket()
        entry = bucket.get(path)
        if entry is None:
            bucket[path] = [int(elapsed_ns), count]
        else:
            entry[0] += int(elapsed_ns)
            entry[1] += count
        if (
            self.timeline
            and start_ns is not None
            and self._record is not None
        ):
            self._record["events"].append(
                ["driver", path, int(start_ns) - self._wall_start, int(elapsed_ns)]
            )

    def add_worker_spans(
        self,
        worker: int,
        name: str,
        spans: Dict[str, list],
        dispatch_ns: Optional[int] = None,
        start_ns: Optional[int] = None,
    ) -> None:
        """Merge one worker's per-command sub-span dict (``{sub_name:
        [ns, count]}``, e.g. deserialize/compute/serialize) into the current
        record's ``"workers"`` bucket under ``<current path>/<name>``.

        ``dispatch_ns`` — the driver's barrier round-trip span —
        additionally books the worker's idle remainder (``dispatch -
        sum(sub-spans)``) as a ``wait`` sub-span, so per-worker sums
        reproduce the kernel/barrier identity exactly.  With timeline
        mode on, ``start_ns`` places the sub-spans consecutively on
        the worker's track starting at the dispatch."""
        self._stack.append(name)
        path = "/".join(self._stack)
        self._stack.pop()
        bucket = self._worker_bucket().setdefault(str(worker), {})
        busy = 0
        record = self._record
        events = (
            record["events"]
            if self.timeline and start_ns is not None and record is not None
            else None
        )
        offset = int(start_ns) - self._wall_start if events is not None else 0
        track = f"w{worker}"
        for sub, (elapsed, count) in spans.items():
            elapsed = int(elapsed)
            busy += elapsed
            sub_path = f"{path}/{sub}"
            entry = bucket.get(sub_path)
            if entry is None:
                bucket[sub_path] = [elapsed, int(count)]
            else:
                entry[0] += elapsed
                entry[1] += int(count)
            if events is not None:
                events.append([track, sub_path, offset, elapsed])
                offset += elapsed
        if dispatch_ns is not None:
            wait_path = f"{path}/wait"
            wait = int(dispatch_ns) - busy
            entry = bucket.get(wait_path)
            if entry is None:
                bucket[wait_path] = [wait, 1]
            else:
                entry[0] += wait
                entry[1] += 1

    def count(self, name: str, value=1) -> None:
        """Add ``value`` to a monotonic per-cycle counter (or raise a
        ``mem.*`` level to it, see :func:`merge_counter`)."""
        merge_counter(self._counter_bucket(), name, value)

    def book_command(
        self, command: str, start_ns: int, span_ns: int, worker_spans
    ) -> None:
        """Book one dispatched command, the same way on every
        executor: the ``cmd:<command>`` dispatch span, the sub-span
        dict of each addressed worker (``worker_spans`` is a list of
        ``(worker_index, spans)``), and the dispatch counters.  A
        worker's busy time is the sum of its sub-spans and its wait
        the remainder of the dispatch span, so ``worker_kernel_ns +
        barrier_wait_ns == addressed workers * span`` by construction
        — the identity the watchdog and the telemetry tests pin."""
        name = "cmd:" + command
        self.add_span(name, span_ns, start_ns=start_ns)
        busy = 0
        for worker, spans in worker_spans:
            self.add_worker_spans(
                worker, name, spans, dispatch_ns=span_ns, start_ns=start_ns
            )
            busy += sum(value[0] for value in spans.values())
        self.count("commands", 1)
        self.count("barriers", 1)
        self.count("worker_kernel_ns", busy)
        self.count("barrier_wait_ns", len(worker_spans) * span_ns - busy)

    def emit_metrics(self, cycle: int, **values) -> None:
        """Emit one ``{"kind": "metrics"}`` convergence record (the
        engines call this every :attr:`metrics_every` cycles with
        SDM/GDM/accuracy/live keyword values)."""
        record = {"kind": "metrics", "engine": self.engine, "cycle": int(cycle)}
        for name, value in values.items():
            record[name] = (
                int(value) if isinstance(value, int) else float(value)
            )
        self._emit(record)

    def take_spans(self) -> Dict[str, list]:
        """Drain and return the ambient span bucket — how a worker-side
        telemetry hands its per-command sub-spans to the reply."""
        spans, self._ambient_spans = self._ambient_spans, {}
        return spans

    # -- cycle lifecycle ----------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        """Open the record for ``cycle``; flushes any ambient bucket
        accumulated since the previous cycle ended."""
        self._flush_ambient()
        self._record = {
            "kind": "cycle",
            "engine": self.engine,
            "cycle": int(cycle),
            "wall_ns": 0,
            "spans": {},
            "counters": {},
        }
        if self.timeline:
            self._record["events"] = []
        self._wall_start = perf_counter_ns()

    def end_cycle(self) -> None:
        """Stamp wall time on the open cycle record and emit it."""
        record = self._record
        if record is None:
            return
        record["wall_ns"] = perf_counter_ns() - self._wall_start
        self._record = None
        self._emit(record)

    def after_cycle(self, sim, cycle: int, metrics: Callable[[], dict]) -> None:
        """The end-of-cycle hooks every engine calls after
        :meth:`end_cycle`: emit a convergence metrics record (the values
        ``metrics()`` returns) every :attr:`metrics_every` cycles, then
        hand the finished cycle record to the watchdog.  Metric reads
        never touch an RNG stream, so neither knob can change a run."""
        record = self.records[-1] if self.records else None
        every = self.metrics_every
        if every and cycle % every == 0:
            self.emit_metrics(cycle, **metrics())
        if self.watchdog is not None and record is not None:
            self.watchdog.check(sim, record)

    def flush(self) -> None:
        """Emit any pending ambient spans/counters as their own record
        (call after a run's collectors have finished)."""
        self._flush_ambient()

    def close(self) -> None:
        self.flush()
        if self.sink is not None and hasattr(self.sink, "close"):
            self.sink.close()

    # -- internals ----------------------------------------------------

    def _span_bucket(self) -> Dict[str, list]:
        record = self._record
        if record is not None:
            return record["spans"]
        return self._ambient_spans

    def _counter_bucket(self) -> dict:
        record = self._record
        if record is not None:
            return record["counters"]
        return self._ambient_counters

    def _worker_bucket(self) -> Dict[str, dict]:
        record = self._record
        if record is not None:
            return record.setdefault("workers", {})
        return self._ambient_workers

    def _flush_ambient(self) -> None:
        if (
            not self._ambient_spans
            and not self._ambient_counters
            and not self._ambient_workers
        ):
            return
        record = {
            "kind": "ambient",
            "engine": self.engine,
            "cycle": None,
            "wall_ns": sum(v[0] for v in self._ambient_spans.values()),
            "spans": self._ambient_spans,
            "counters": self._ambient_counters,
        }
        if self._ambient_workers:
            record["workers"] = self._ambient_workers
        self._ambient_spans = {}
        self._ambient_counters = {}
        self._ambient_workers = {}
        self._emit(record)

    def _emit(self, record: dict) -> None:
        self.records.append(record)
        if self.sink is not None:
            self.sink.write(record)

    # -- convenience --------------------------------------------------

    def cycle_records(self) -> List[dict]:
        """The finished per-cycle records (ambient records excluded)."""
        return [r for r in self.records if r["kind"] == "cycle"]

    def metrics_records(self) -> List[dict]:
        """The ``{"kind": "metrics"}`` convergence-stream records."""
        return [r for r in self.records if r["kind"] == "metrics"]

    def phase_totals(self) -> Dict[str, int]:
        """Total nanoseconds per *top-level* span path across all cycle
        records — the benchmark-friendly phase breakdown."""
        totals: Dict[str, int] = {}
        for record in self.cycle_records():
            for path, (elapsed, _count) in record["spans"].items():
                if "/" in path:
                    continue
                totals[path] = totals.get(path, 0) + elapsed
        return totals

    def counter_totals(self) -> Dict[str, float]:
        """Summed counters across every record (cycle and ambient)."""
        totals: Dict[str, float] = {}
        for record in self.records:
            for name, value in record.get("counters", {}).items():
                merge_counter(totals, name, value)
        return totals


class NullTelemetry:
    """The do-nothing default; safe on every hot path."""

    enabled = False
    engine = ""
    sink = None
    timeline = False
    metrics_every = None
    watchdog = None

    __slots__ = ()

    def span(self, name: str, hwm: bool = False) -> _NullSpan:
        return _NULL_SPAN

    def add_span(
        self,
        name: str,
        elapsed_ns: int,
        count: int = 1,
        start_ns: Optional[int] = None,
    ) -> None:
        pass

    def add_worker_spans(
        self,
        worker: int,
        name: str,
        spans: Dict[str, list],
        dispatch_ns: Optional[int] = None,
        start_ns: Optional[int] = None,
    ) -> None:
        pass

    def count(self, name: str, value=1) -> None:
        pass

    def emit_metrics(self, cycle: int, **values) -> None:
        pass

    def take_spans(self) -> Dict[str, list]:
        return {}

    def begin_cycle(self, cycle: int) -> None:
        pass

    def end_cycle(self) -> None:
        pass

    def after_cycle(self, sim, cycle: int, metrics: Callable[[], dict]) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def cycle_records(self) -> List[dict]:
        return []

    def metrics_records(self) -> List[dict]:
        return []

    def phase_totals(self) -> Dict[str, int]:
        return {}

    def counter_totals(self) -> Dict[str, float]:
        return {}

    @property
    def records(self) -> List[dict]:
        return []


#: Shared no-op instance used as the default everywhere.
NULL_TELEMETRY = NullTelemetry()


def telemetry_from_options(
    telemetry=None,
    *,
    engine: str = "",
    profile: Optional[str] = None,
    timeline: bool = False,
    metrics_every: Optional[int] = None,
    watchdog: bool = False,
    **rest,
):
    """Resolve the observability run options into a telemetry object.

    This is the one place ``profile`` / ``timeline`` / ``metrics_every``
    / ``watchdog`` turn into a :class:`Telemetry`.  With none of them
    set, ``telemetry`` comes back as passed (``None`` stays ``None``:
    the engines then run on :data:`NULL_TELEMETRY`).  Otherwise a
    missing telemetry is created — with an
    :class:`~repro.obs.sink.NdjsonSink` appending to ``profile`` when
    that names a path — and an explicitly passed, enabled one gains
    every option it does not already set (its sink is the caller's
    choice, so ``profile`` is ignored then).

    Returns ``(telemetry, rest)``, ``rest`` being the keywords that are
    not observability options: a caller holding one flat dict of run
    options peels this layer's share off it in a single call and hands
    the remainder to the engine.
    """
    if profile is None and not timeline and metrics_every is None and not watchdog:
        return telemetry, rest
    if telemetry is None:
        telemetry = Telemetry(
            engine=engine,
            sink=NdjsonSink(profile, append=True) if profile is not None else None,
            timeline=timeline,
            metrics_every=metrics_every,
            watchdog=Watchdog() if watchdog else None,
        )
    elif telemetry.enabled:
        if timeline:
            telemetry.timeline = True
        if metrics_every is not None and telemetry.metrics_every is None:
            telemetry.metrics_every = int(metrics_every)
        if watchdog and telemetry.watchdog is None:
            telemetry.watchdog = Watchdog()
    return telemetry, rest
