"""Tests for the single-model micro-batching request queue."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serving import MicroBatcher


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
        with pytest.raises(ValueError):
            MicroBatcher(CountingScorer(), max_latency=-1)

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


class TestDispatchThread:
    def test_concurrent_callers_coalesce(self):
        scorer = CountingScorer()
        # A generous latency window so all threads land in one batch.
        with MicroBatcher(scorer, max_batch_size=1024,
                          max_latency=0.25) as batcher:
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
            for thread in threads:
                thread.join()
        assert not errors
        for i, scores in enumerate(results):
            np.testing.assert_array_equal(scores, [[i, 2 * i]])
        # 16 requests cannot have taken 16 separate batches: the window
        # coalesces them (leave slack for scheduling jitter).
        assert batcher.stats.batches < 16
        assert batcher.stats.coalesced_requests > 0

    def test_max_batch_size_flushes_early(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=4, max_latency=30.0)
        batcher.start()
        try:
            tickets = [batcher.submit([i]) for i in range(4)]
            # With max_latency=30s, only the size trigger can flush this.
            for ticket in tickets:
                assert ticket.result(10.0) is not None
        finally:
            batcher.close()

    def test_close_flushes_stragglers(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64, max_latency=30.0)
        batcher.start()
        ticket = batcher.submit([5])
        batcher.close()
        np.testing.assert_array_equal(ticket.result(1.0), [[5, 10]])

    def test_already_queued_tickets_flush_together(self):
        """A zero linger still takes every ticket already queued."""
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64, max_latency=0.0)
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

        def scorer(nodes):
            if not entered.is_set():
                entered.set()
                assert release.wait(10.0)
            return inner(nodes)

        batcher = MicroBatcher(scorer, max_batch_size=64, max_latency=0.0)
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
        batcher = MicroBatcher(scorer, max_batch_size=3, max_latency=0.0)
        tickets = [batcher.submit([i]) for i in range(8)]
        batcher.start()
        try:
            for ticket in tickets:
                assert ticket.result(10.0) is not None
        finally:
            batcher.close()
        assert [call.size for call in scorer.calls] == [3, 3, 2]
