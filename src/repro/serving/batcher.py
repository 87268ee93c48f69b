"""Micro-batching of one model's inference requests: many queries, one matmul.

Serving traffic arrives as many small, independent queries ("scores for
nodes [3, 17]").  Answering each with its own matmul wastes the data plane:
the per-call overhead (Python dispatch, BLAS setup) dominates the handful of
fused multiply-adds a single row costs.  The :class:`MicroBatcher` coalesces
requests for one model and answers each batch with **one** stacked
``aggregated @ theta`` matmul.

Batching is work-conserving: a batch takes its first request and then
whatever is already queued behind it, and flushes as soon as the queue is
empty or ``max_batch_size`` queried rows are stacked.  A request that finds
its queue idle runs at once, and the rows that queue up behind an in-flight
matmul are stacked into the next one — batches form from the requests that
pile up while the model is busy, never by making a lone request wait.

Correctness does not depend on the schedule: selecting rows of the cached
feature matrix and multiplying the stack is bitwise identical to computing
every node's score individually from the full score matrix (verified by the
serving equivalence tests), so coalescing can only change latency, never
numbers.

The batcher is deliberately execution-agnostic: it calls a user-supplied
``compute(node_indices) -> scores`` and never touches models, graphs or
caches itself.  It knows nothing of model keys either:
:class:`repro.serving.router.ModelRouter` gives every model its own batcher
and binds the key into that batcher's ``compute``.  ``start()`` runs the
dispatch loop on a daemon thread (the HTTP server path); ``run_once()``
drains the currently queued requests synchronously, which is what the
deterministic tests and benchmarks use.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np


def checked_batch_size(max_batch_size: int) -> int:
    """Validate and normalise a row cap: the one range check the batcher
    and the router's default both go through."""
    if max_batch_size < 1:
        raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
    return int(max_batch_size)


@dataclass
class BatchStats:
    """Counters describing what one queue (or a merged set) has done."""

    requests: int = 0
    rows_requested: int = 0
    batches: int = 0
    matmuls: int = 0
    coalesced_requests: int = 0   # tickets that shared a matmul with others
    max_batch_rows: int = 0       # largest stacked matmul, in rows

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "rows_requested": self.rows_requested,
            "batches": self.batches,
            "matmuls": self.matmuls,
            "coalesced_requests": self.coalesced_requests,
            "max_batch_rows": self.max_batch_rows,
        }

    def merge(self, other: "BatchStats") -> "BatchStats":
        """Fold ``other`` into this aggregate (used by the router's view)."""
        self.requests += other.requests
        self.rows_requested += other.rows_requested
        self.batches += other.batches
        self.matmuls += other.matmuls
        self.coalesced_requests += other.coalesced_requests
        self.max_batch_rows = max(self.max_batch_rows, other.max_batch_rows)
        return self


class _Ticket:
    """One submitted request: callers block on :meth:`result` (or poll
    :meth:`done`, which is what the selector HTTP frontend does)."""

    __slots__ = ("nodes", "submitted_at", "execute_at",
                 "compute_started_at", "compute_ended_at", "on_done",
                 "_event", "_scores", "_error")

    def __init__(self, nodes: np.ndarray, submitted_at: float = 0.0):
        self.nodes = nodes
        self.submitted_at = submitted_at
        # Lifecycle timestamps (same clock as submitted_at), stamped by the
        # dispatch thread as the ticket moves through its batch: flush time,
        # matmul start, matmul end.  Pure observation — the HTTP frontend
        # reconstructs queue/batch/compute trace spans from them, so the
        # batcher itself never touches a tracer.  0.0 = not reached.
        self.execute_at = 0.0
        self.compute_started_at = 0.0
        self.compute_ended_at = 0.0
        self.on_done = None  # optional wakeup hook, called after resolution
        self._event = threading.Event()
        self._scores = None
        self._error: BaseException | None = None

    def _resolve(self, scores) -> None:
        self._scores = scores
        self._event.set()
        self._notify()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()
        self._notify()

    def _notify(self) -> None:
        callback = self.on_done
        if callback is not None:
            try:
                callback()
            except Exception:  # a broken waker must not fail the batch
                pass

    def done(self) -> bool:
        """True once the ticket is resolved or failed (never blocks)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until the batch executes; raise what the scorer raised."""
        if not self._event.wait(timeout):
            raise TimeoutError("inference request timed out waiting for its batch")
        if self._error is not None:
            raise self._error
        return self._scores


class MicroBatcher:
    """Coalesces one model's inference requests into stacked matmuls.

    Parameters
    ----------
    compute:
        ``(node_indices: np.ndarray) -> np.ndarray`` — scores for the
        stacked rows.  Must be thread-safe; it runs on the dispatch thread,
        never on callers.
    max_batch_size:
        Stop stacking queued requests into a batch once it holds this many
        *rows* (a single larger request still runs whole).
    observer:
        Optional metrics sink (duck-typed, see
        :class:`repro.serving.metrics.ServingMetrics`): ``observe_queue_depth
        (label, depth)`` at flush time and ``observe_batch(label, tickets,
        completed_at, failed=...)`` after each matmul.
    label:
        Zero-argument callable naming this queue for the observer, called
        at observation time (default ``str``: the empty label).
    """

    def __init__(self, compute, *, max_batch_size: int = 64,
                 clock=time.monotonic, observer=None, label=str):
        self._compute = compute
        self._label = label
        self.max_batch_size = checked_batch_size(max_batch_size)
        self._clock = clock
        self._observer = observer
        self._queue: queue.Queue[_Ticket | None] = queue.Queue()
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._inflight = 0  # submitted, not yet resolved/failed (queue depth)
        self.stats = BatchStats()
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, nodes) -> _Ticket:
        """Enqueue one request; returns a ticket to block on."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("a request must name at least one node index")
        ticket = _Ticket(nodes, submitted_at=self._clock())
        with self._stats_lock:
            self.stats.requests += 1
            self.stats.rows_requested += int(nodes.size)
            self._inflight += 1
        self._queue.put(ticket)
        return ticket

    def depth(self) -> int:
        """Tickets submitted but not yet resolved or failed — the queue-depth
        signal admission control sheds on (queued + forming + executing)."""
        with self._stats_lock:
            return self._inflight

    def predict_scores(self, nodes, timeout: float | None = 30.0) -> np.ndarray:
        """Submit and wait: the synchronous convenience used by the service.

        When no dispatch thread is running, the queued batch is executed
        inline (still through the exact batch path), so the batcher works
        in single-threaded library use without background machinery.
        """
        ticket = self.submit(nodes)
        if self._thread is None:
            self.run_once()
        return ticket.result(timeout)

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def start(self) -> "MicroBatcher":
        """Run the dispatch loop on a daemon thread (idempotent)."""
        if self._thread is None:
            self._stopping.clear()
            self._thread = threading.Thread(target=self._loop, daemon=True,
                                            name="repro-serving-batcher")
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the dispatch thread after flushing queued requests.

        Also flushes when no thread was ever started, so closing a queue in
        inline/library use never strands submitted tickets."""
        if self._thread is not None:
            self._stopping.set()
            self._queue.put(None)  # wake the blocked get()
            self._thread.join()
            self._thread = None
        self.run_once()  # resolve anything queued or racing the shutdown

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _loop(self) -> None:
        while not self._stopping.is_set():
            first = self._queue.get()  # close() wakes this with a None
            if first is None:
                continue
            batch = [first]
            rows = int(first.nodes.size)
            while rows < self.max_batch_size:
                # Take only what is already queued: never wait for more.
                try:
                    ticket = self._queue.get_nowait()
                except queue.Empty:
                    break
                if ticket is None:
                    break
                batch.append(ticket)
                rows += int(ticket.nodes.size)
            self._execute(batch)

    def run_once(self) -> int:
        """Drain everything currently queued into one batch; returns the
        number of requests executed.  Deterministic (no timing involved):
        the test/benchmark entry point."""
        batch: list[_Ticket] = []
        while True:
            try:
                ticket = self._queue.get_nowait()
            except queue.Empty:
                break
            if ticket is not None:
                batch.append(ticket)
        if batch:
            self._execute(batch)
        return len(batch)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _execute(self, batch: list[_Ticket]) -> None:
        """Answer the whole flush with one stacked matmul."""
        flushed_at = self._clock()
        for ticket in batch:
            ticket.execute_at = flushed_at
        stacked = np.concatenate([ticket.nodes for ticket in batch])
        if self._observer is not None:
            # The flush itself plus whatever is still queued behind it.
            self._observer.observe_queue_depth(
                self._label(), len(batch) + self._queue.qsize())
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.max_batch_rows = max(self.stats.max_batch_rows,
                                            int(stacked.size))
            if len(batch) > 1:
                self.stats.coalesced_requests += len(batch)
        compute_started = self._clock()
        for ticket in batch:
            ticket.compute_started_at = compute_started
        try:
            scores = self._compute(stacked)
        except BaseException as error:
            # Every caller learns of the failure now, not at its timeout.
            # An Exception is theirs alone; anything else (KeyboardInterrupt,
            # SystemExit, ...) is then re-raised for the dispatch loop or
            # the inline caller to handle.
            self._complete(batch, error=error)
            if not isinstance(error, Exception):
                raise
        else:
            self._complete(batch, scores=scores)

    def _complete(self, batch: list[_Ticket], *, scores=None,
                  error: BaseException | None = None) -> None:
        compute_ended = self._clock()
        for ticket in batch:
            ticket.compute_ended_at = compute_ended
        if error is None:
            with self._stats_lock:
                self.stats.matmuls += 1
            offset = 0
            for ticket in batch:
                ticket._resolve(scores[offset:offset + ticket.nodes.size])
                offset += ticket.nodes.size
        else:
            for ticket in batch:
                ticket._fail(error)
        try:
            if self._observer is not None:
                self._observer.observe_batch(self._label(), batch,
                                             self._clock(),
                                             failed=error is not None)
        finally:
            with self._stats_lock:
                self._inflight -= len(batch)
