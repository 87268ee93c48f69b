"""Tests for the single-model micro-batching request queue."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import MicroBatcher
from repro.serving.batcher import checked_batch_size


class CountingScorer:
    """Scores node i as [i, 2i]; records every batch execution."""

    def __init__(self):
        self.calls: list[np.ndarray] = []
        self.lock = threading.Lock()

    def __call__(self, nodes: np.ndarray) -> np.ndarray:
        with self.lock:
            self.calls.append(nodes.copy())
        return np.stack([nodes.astype(float), 2.0 * nodes], axis=1)


class TestRunOnce:
    """Deterministic batching semantics via the synchronous drain."""

    def test_queued_requests_coalesce_into_one_matmul(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64)
        tickets = [batcher.submit([i]) for i in range(5)]
        assert batcher.run_once() == 5
        assert len(scorer.calls) == 1  # one stacked matmul for all five
        np.testing.assert_array_equal(scorer.calls[0], np.arange(5))
        for i, ticket in enumerate(tickets):
            np.testing.assert_array_equal(ticket.result(1.0), [[i, 2 * i]])
        assert batcher.stats.batches == 1
        assert batcher.stats.matmuls == 1
        assert batcher.stats.coalesced_requests == 5
        assert batcher.stats.max_batch_rows == 5

    def test_multi_node_requests_are_split_back_correctly(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64)
        t1 = batcher.submit([10, 11, 12])
        t2 = batcher.submit([20])
        t3 = batcher.submit([30, 31])
        batcher.run_once()
        np.testing.assert_array_equal(t1.result(1.0)[:, 0], [10, 11, 12])
        np.testing.assert_array_equal(t2.result(1.0)[:, 0], [20])
        np.testing.assert_array_equal(t3.result(1.0)[:, 0], [30, 31])

    def test_scorer_error_propagates_to_every_caller_in_the_batch(self):
        def scorer(nodes):
            raise ValueError("poisoned model")

        batcher = MicroBatcher(scorer, max_batch_size=64)
        tickets = [batcher.submit([2]), batcher.submit([3])]
        batcher.run_once()
        for ticket in tickets:
            with pytest.raises(ValueError, match="poisoned model"):
                ticket.result(1.0)
        assert batcher.stats.matmuls == 0
        assert batcher.depth() == 0

    def test_invalid_submissions_rejected(self):
        batcher = MicroBatcher(CountingScorer())
        with pytest.raises(ValueError):
            batcher.submit([])
        with pytest.raises(ValueError):
            MicroBatcher(CountingScorer(), max_batch_size=0)
        with pytest.raises(TypeError):  # batching has no linger to set
            MicroBatcher(CountingScorer(), max_latency=0.0)

    def test_run_once_on_an_empty_queue_is_a_noop(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer)
        assert batcher.run_once() == 0
        assert scorer.calls == []
        assert batcher.stats.batches == 0

    def test_run_once_drains_past_the_cap(self):
        """The synchronous drain takes the whole queue as one batch; only
        the dispatch loop stops stacking at ``max_batch_size``."""
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=2)
        for i in range(5):
            batcher.submit([i])
        assert batcher.run_once() == 5
        assert [call.tolist() for call in scorer.calls] == [[0, 1, 2, 3, 4]]

    def test_checked_batch_size_normalises_and_rejects(self):
        assert checked_batch_size(1) == 1
        assert type(checked_batch_size(np.int64(7))) is int
        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_batch_size"):
                checked_batch_size(bad)

    def test_inline_execution_without_a_thread(self):
        """predict_scores works with no dispatch thread running."""
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer)
        np.testing.assert_array_equal(
            batcher.predict_scores([7]), [[7, 14]])

    def test_observer_reads_the_label_at_observation_time(self):
        class Observer:
            def __init__(self):
                self.seen = []

            def observe_queue_depth(self, label, depth):
                self.seen.append(("depth", label, depth))

            def observe_batch(self, label, tickets, completed_at, *, failed):
                self.seen.append(("batch", label, len(tickets)))

        observer, name = Observer(), ["before"]
        batcher = MicroBatcher(CountingScorer(), observer=observer,
                               label=lambda: name[0])
        batcher.submit([1])
        batcher.submit([2])
        name[0] = "after"  # e.g. a session label resolved since submit
        batcher.run_once()
        assert observer.seen == [("depth", "after", 2), ("batch", "after", 2)]


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def gated(scorer, gate, entered):
    """Wrap ``scorer`` so its first call signals ``entered`` and then blocks
    until ``gate`` is set: the rows submitted meanwhile queue behind an
    in-flight matmul, with no timing involved."""
    def compute(nodes):
        if not entered.is_set():
            entered.set()
            assert gate.wait(10.0)
        return scorer(nodes)
    return compute


class TestDispatchThread:
    def test_concurrent_callers_coalesce(self):
        scorer = CountingScorer()
        entered, release = threading.Event(), threading.Event()
        with MicroBatcher(gated(scorer, release, entered),
                          max_batch_size=1024) as batcher:
            blocker = batcher.submit([99])
            assert entered.wait(10.0)  # a matmul is now in flight
            results = [None] * 16
            errors = []

            def query(i):
                try:
                    results[i] = batcher.predict_scores([i], timeout=10.0)
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)

            threads = [threading.Thread(target=query, args=(i,))
                       for i in range(16)]
            for thread in threads:
                thread.start()
            wait_until(lambda: batcher.depth() == 17)  # all queued behind it
            release.set()
            for thread in threads:
                thread.join()
            np.testing.assert_array_equal(blocker.result(10.0), [[99, 198]])
        assert not errors
        for i, scores in enumerate(results):
            np.testing.assert_array_equal(scores, [[i, 2 * i]])
        # All 16 callers queued behind the in-flight matmul, so they share
        # the next one.
        assert [call.size for call in scorer.calls] == [1, 16]
        assert batcher.stats.batches == 2
        assert batcher.stats.coalesced_requests == 16

    def test_max_batch_size_flushes_early(self):
        """Rows queued behind an in-flight matmul are cut into batches at
        the cap: a full batch dispatches with more rows still queued."""
        scorer = CountingScorer()
        entered, release = threading.Event(), threading.Event()
        batcher = MicroBatcher(gated(scorer, release, entered),
                               max_batch_size=4)
        batcher.start()
        try:
            first = batcher.submit([0])
            assert entered.wait(10.0)
            tickets = [batcher.submit([i]) for i in range(1, 7)]
            release.set()
            for i, ticket in enumerate([first] + tickets):
                np.testing.assert_array_equal(ticket.result(10.0),
                                              [[i, 2 * i]])
        finally:
            release.set()
            batcher.close()
        assert [call.tolist() for call in scorer.calls] == [
            [0], [1, 2, 3, 4], [5, 6]]
        assert batcher.stats.max_batch_rows == 4

    def test_lone_request_dispatches_alone(self):
        """A request that finds its queue idle runs at once, by itself."""
        scorer = CountingScorer()
        with MicroBatcher(scorer, max_batch_size=64) as batcher:
            np.testing.assert_array_equal(
                batcher.predict_scores([3], timeout=10.0), [[3, 6]])
        assert [call.tolist() for call in scorer.calls] == [[3]]
        assert batcher.stats.batches == 1
        assert batcher.stats.coalesced_requests == 0

    def test_an_oversized_request_runs_whole(self):
        """The cap stops stacking *further* requests; it never splits one."""
        scorer = CountingScorer()
        with MicroBatcher(scorer, max_batch_size=2) as batcher:
            scores = batcher.predict_scores([0, 1, 2, 3, 4], timeout=10.0)
        np.testing.assert_array_equal(scores[:, 0], np.arange(5))
        assert [call.size for call in scorer.calls] == [5]
        assert batcher.stats.max_batch_rows == 5

    def test_close_flushes_stragglers(self):
        """Tickets still queued when close() stops the dispatch loop are
        flushed by close() itself, on the closing thread."""
        threads = []

        def scorer(nodes):
            threads.append(threading.current_thread())
            if len(threads) == 1:  # hold the first matmul until close()
                assert batcher._stopping.wait(10.0)
            return np.stack([nodes.astype(float), 2.0 * nodes], axis=1)

        batcher = MicroBatcher(scorer, max_batch_size=64)
        batcher.start()
        first = batcher.submit([4])
        wait_until(lambda: threads)  # the first matmul is in flight
        ticket = batcher.submit([5])
        batcher.close()
        np.testing.assert_array_equal(first.result(1.0), [[4, 8]])
        np.testing.assert_array_equal(ticket.result(1.0), [[5, 10]])
        assert threads[1] is threading.current_thread()

    def test_already_queued_tickets_flush_together(self):
        """The dispatch loop takes every ticket already queued at once."""
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64)
        tickets = [batcher.submit([i]) for i in range(8)]
        batcher.start()
        try:
            for i, ticket in enumerate(tickets):
                np.testing.assert_array_equal(ticket.result(10.0),
                                              [[i, 2 * i]])
        finally:
            batcher.close()
        assert len(scorer.calls) == 1
        np.testing.assert_array_equal(scorer.calls[0], np.arange(8))
        assert batcher.stats.batches == 1

    def test_rows_arriving_during_a_compute_coalesce(self):
        """A lone request dispatches at once; the rows that queue behind
        its in-flight matmul are stacked into the next one."""
        entered, release = threading.Event(), threading.Event()
        inner = CountingScorer()
        batcher = MicroBatcher(gated(inner, release, entered),
                               max_batch_size=64)
        batcher.start()
        try:
            first = batcher.submit([0])
            assert entered.wait(10.0)  # dispatched without waiting for more
            tickets = [batcher.submit([i]) for i in range(1, 6)]
            assert batcher.depth() == 6  # 1 computing + 5 queued behind it
            release.set()
            for i, ticket in enumerate([first] + tickets):
                np.testing.assert_array_equal(ticket.result(10.0),
                                              [[i, 2 * i]])
        finally:
            release.set()
            batcher.close()
        assert [call.tolist() for call in inner.calls] == [[0],
                                                           [1, 2, 3, 4, 5]]
        assert batcher.stats.batches == 2
        assert batcher.stats.coalesced_requests == 5

    def test_max_batch_size_caps_a_greedy_drain(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=3)
        tickets = [batcher.submit([i]) for i in range(8)]
        batcher.start()
        try:
            for ticket in tickets:
                assert ticket.result(10.0) is not None
        finally:
            batcher.close()
        assert [call.size for call in scorer.calls] == [3, 3, 2]

    def test_concurrent_submitters_get_their_own_rows(self):
        """Several threads hammer a live batcher with multi-row requests:
        however the tickets coalesce, each gets exactly its own rows back."""
        def scorer(nodes):
            return np.stack([nodes.astype(float), 2.0 * nodes], axis=1)

        batcher = MicroBatcher(scorer, max_batch_size=8)
        failures = []

        def submitter(offset):
            tickets = [(i, batcher.submit([i, i + 1]))
                       for i in range(offset, offset + 300, 3)]
            for i, ticket in tickets:
                result = ticket.result(10.0)
                if not np.array_equal(result[:, 0], [i, i + 1]):
                    failures.append((i, result))  # pragma: no cover

        with batcher:
            threads = [threading.Thread(target=submitter, args=(offset,))
                       for offset in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures
        assert batcher.stats.requests == 300
        assert batcher.depth() == 0  # everything drained and accounted
