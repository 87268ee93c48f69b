"""Per-model routing of inference traffic: one micro-batch queue per model.

A single shared forming batch is wrong under mixed traffic: rows from every
model count toward one ``max_batch_size`` and share one dispatch thread, so
a cheap model's tickets queue behind an expensive model's flush and matmul —
head-of-line blocking.  The :class:`ModelRouter` kills that bug by
construction: each resolved model key gets its **own**
:class:`~repro.serving.batcher.MicroBatcher` (own forming batch, own
dispatch thread), created lazily on first traffic.  Every queue stacks at
most the router's one fixed ``max_batch_size`` rows per matmul.

The router is the only layer that knows about model keys: each queue is a
single-model :class:`~repro.serving.batcher.MicroBatcher` whose ``compute``
and metrics ``label`` have the key bound in, so
:class:`~repro.serving.service.InferenceService` speaks ``submit(key,
nodes)`` / ``predict_scores(key, nodes)`` to the router alone.  ``stats`` is
an aggregate view merged across live queues plus every queue retired so
far, so its counters never go backwards; ``per_model_stats`` and the
attached :class:`~repro.serving.metrics.ServingMetrics` (latency /
batch-size / queue-depth histograms) expose the per-model breakdown that
``/stats`` serves.
"""

from __future__ import annotations

import functools
import threading
import time

from repro.serving.batcher import BatchStats, MicroBatcher, checked_batch_size
from repro.serving.metrics import ServingMetrics


class ModelRouter:
    """Routes ``submit(model_key, nodes)`` to that model's own queue.

    Parameters
    ----------
    compute:
        ``(model_key, node_indices) -> scores``; each queue calls it with
        its own key bound.
    max_batch_size:
        The row cap of every per-model queue.
    metrics:
        A :class:`ServingMetrics` to observe into (one is created when
        omitted); wired into every queue as its observer.
    label:
        ``model_key -> str`` used for stats and metrics labels (default
        ``str``); the service maps session keys to ``name@digest:mode``.
    """

    def __init__(self, compute, *, max_batch_size: int = 64,
                 metrics: ServingMetrics | None = None,
                 clock=time.monotonic, label=str):
        self._compute = compute
        self.max_batch_size = checked_batch_size(max_batch_size)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._clock = clock
        self._label = label
        self._queues: dict = {}
        self._closing: list[MicroBatcher] = []  # retired, still flushing
        self._retired = BatchStats()  # counters of every queue retired so far
        self._lock = threading.Lock()
        self._started = False

    # ------------------------------------------------------------------ #
    # per-model queues
    # ------------------------------------------------------------------ #
    def depth(self, model_key) -> int:
        """In-flight tickets on one model's queue (0 when it has no queue):
        the signal admission control sheds on, read without creating a
        queue so a rejected request costs no allocation."""
        with self._lock:
            queue = self._queues.get(model_key)
        return queue.depth() if queue is not None else 0

    def queue_for(self, model_key) -> MicroBatcher:
        """The model's own queue, created (and started, if the router is
        running) on first use."""
        with self._lock:
            queue = self._queues.get(model_key)
            if queue is None:
                queue = MicroBatcher(
                    functools.partial(self._compute, model_key),
                    max_batch_size=self.max_batch_size,
                    clock=self._clock, observer=self.metrics,
                    label=functools.partial(self._label, model_key))
                self._queues[model_key] = queue
                if self._started:
                    queue.start()
            return queue

    # ------------------------------------------------------------------ #
    # submission and dispatch
    # ------------------------------------------------------------------ #
    def submit(self, model_key, nodes):
        """Enqueue on the model's own queue; returns the ticket."""
        return self.queue_for(model_key).submit(nodes)

    def predict_scores(self, model_key, nodes, timeout: float | None = 30.0):
        """Submit and wait; inline execution when the router is not started
        drains only *this model's* queue (independence even in library use)."""
        queue = self.queue_for(model_key)
        ticket = queue.submit(nodes)
        if not self._started:
            queue.run_once()
        return ticket.result(timeout)

    def run_once(self) -> int:
        """Drain every queue once, synchronously; returns tickets executed.

        Each model's backlog becomes one batch on its own queue — the
        deterministic entry point tests and benchmarks share."""
        with self._lock:
            queues = list(self._queues.values())
        return sum(queue.run_once() for queue in queues)

    def retire(self, model_key) -> bool:
        """Drop one model's queue (flushing queued tickets, stopping its
        dispatch thread).  Returns True when a queue existed.  The service
        calls this when a session is evicted, so retired model versions do
        not leak a thread per publish; new traffic simply recreates the
        queue.  Its counters fold into the aggregate :attr:`stats`, which
        therefore never goes backwards (it backs Prometheus counters)."""
        with self._lock:
            queue = self._queues.pop(model_key, None)
            if queue is None:
                return False
            self._closing.append(queue)
        queue.close()
        with self._lock:
            self._closing.remove(queue)
            with queue._stats_lock:
                self._retired.merge(queue.stats)
        return True

    def start(self) -> "ModelRouter":
        """Start a dispatch thread per existing queue; future queues start
        on creation (idempotent)."""
        with self._lock:
            self._started = True
            queues = list(self._queues.values())
        for queue in queues:
            queue.start()
        return self

    def close(self) -> None:
        """Flush and stop every queue's dispatch thread."""
        with self._lock:
            self._started = False
            queues = list(self._queues.values())
        for queue in queues:
            queue.close()

    def __enter__(self) -> "ModelRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> BatchStats:
        """Aggregate counters merged across every queue, live or retired."""
        with self._lock:
            merged = BatchStats().merge(self._retired)
            for queue in (*self._queues.values(), *self._closing):
                with queue._stats_lock:
                    merged.merge(queue.stats)
        return merged

    def per_model_stats(self) -> dict:
        """Label -> that queue's counters plus its row cap."""
        with self._lock:
            items = [(self._label(key), queue)
                     for key, queue in self._queues.items()]
        out = {}
        for label, queue in sorted(items):
            with queue._stats_lock:
                counters = queue.stats.as_dict()
            counters["max_batch_size"] = queue.max_batch_size
            out[label] = counters
        return out

    def queue_count(self) -> int:
        with self._lock:
            return len(self._queues)
