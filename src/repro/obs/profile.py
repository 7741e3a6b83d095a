"""Sampling wall-clock profiler built on ``sys._current_frames()``.

A daemon thread wakes at a configurable rate, snapshots the Python
frames of the target thread(s), and folds each observed call stack
into a ``{"frame;frame;...;leaf": count}`` table - the collapsed-stack
format flamegraph tools consume directly (`repro obs flame` renders
it as text).  When the sampled thread has a tracer activated, the
stack is prefixed with ``span:<name>`` of its innermost open span, so
hot frames attribute to the pipeline stage that ran them.

Wall-clock sampling (not CPU): a thread blocked on a lock or a fork
join is sampled where it waits, which is exactly what a latency
investigation wants.  Pure stdlib, safe to leave running - sampling
never interrupts the target thread; it only *reads* frames from the
profiler thread, and a torn read at worst mis-files one sample.

``repro --profile-stacks`` (alongside ``--trace``) and the benchmark
runner's ``--profile-stacks`` run one around the whole command and
embed :meth:`SamplingProfiler.to_dict` into the written payload.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Iterable, Optional

from . import trace as _trace

#: Embedded profile payload format version.
PROFILE_SCHEMA_VERSION = 1

#: Sampling rate when the caller does not choose one.  A prime rate
#: avoids phase-locking with millisecond-periodic work.
DEFAULT_HZ = 97

#: Frames deeper than this are truncated (defensive; recursion).
_MAX_DEPTH = 128


def _fold_stack(frame, span_name: Optional[str]) -> str:
    """Root-first ``module:function`` frames joined with ';'."""
    names = []
    while frame is not None and len(names) < _MAX_DEPTH:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        names.append("%s:%s" % (module, code.co_name))
        frame = frame.f_back
    names.reverse()
    if span_name is not None:
        names.insert(0, "span:%s" % span_name)
    return ";".join(names)


class SamplingProfiler:
    """Periodic folded-stack sampler for one or more threads.

    By default profiles the thread that calls :meth:`start`.  Usable
    as a context manager::

        profiler = SamplingProfiler(hz=97)
        with profiler:
            run_workload()
        print(format_flame(profiler.folded()))
    """

    def __init__(self, hz: int = DEFAULT_HZ,
                 thread_ids: Optional[Iterable[int]] = None) -> None:
        if not 1 <= hz <= 1000:
            raise ValueError("hz must be within [1, 1000], got %r" % (hz,))
        self.hz = hz
        self.interval = 1.0 / hz
        self._thread_ids = set(thread_ids) if thread_ids is not None else None
        self._samples: Dict[str, int] = {}
        self._sample_count = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        if self._thread_ids is None:
            self._thread_ids = {threading.get_ident()}
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample_once(own)

    def _sample_once(self, own: int) -> None:
        frames = sys._current_frames()
        targets = self._thread_ids or frames.keys()
        for thread_id in targets:
            if thread_id == own:
                continue
            frame = frames.get(thread_id)
            if frame is None:
                continue
            span_name: Optional[str] = None
            tracer = _trace.active_tracer_for(thread_id)
            if tracer is not None:
                top = tracer.current_span()
                if top is not None:
                    span_name = top.name
            key = _fold_stack(frame, span_name)
            self._samples[key] = self._samples.get(key, 0) + 1
            self._sample_count += 1

    # ------------------------------------------------------------------
    @property
    def sample_count(self) -> int:
        return self._sample_count

    def folded(self) -> Dict[str, int]:
        """Collapsed stacks: ``{"a;b;leaf": count}`` (a copy)."""
        return dict(self._samples)

    def to_dict(self) -> Dict[str, object]:
        """The payload embedded under ``"profile_stacks"`` in
        trace/bench JSON."""
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "hz": self.hz,
            "sample_count": self._sample_count,
            "samples": dict(self._samples),
        }
