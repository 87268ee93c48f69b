"""Tests for per-model routing: independent queues kill head-of-line blocking."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import MicroBatcher, ModelRouter


class CountingScorer:
    """Scores node i as [i, 2i]; counts every (model, batch) execution."""

    def __init__(self, delays: dict | None = None):
        self.calls: list[tuple[object, np.ndarray]] = []
        self.lock = threading.Lock()
        self.delays = delays or {}

    def __call__(self, model_key, nodes: np.ndarray) -> np.ndarray:
        delay = self.delays.get(model_key, 0.0)
        if delay:
            time.sleep(delay)
        with self.lock:
            self.calls.append((model_key, nodes.copy()))
        return np.stack([nodes.astype(float), 2.0 * nodes], axis=1)


class HeldScorer(CountingScorer):
    """Holds each model's first matmul until that model's queue starts
    closing, so tickets submitted meanwhile are still queued when its
    dispatch loop stops: only flush-on-close can resolve them.  Records the
    thread every call ran on."""

    def __init__(self):
        super().__init__()
        self.queues: dict = {}    # model -> its MicroBatcher, set by the test
        self.entered: dict = {}   # model -> set once its held matmul runs
        self.threads: dict = {}   # model -> thread of each call, in order

    def hold(self, router, model_key) -> MicroBatcher:
        queue = self.queues[model_key] = router.queue_for(model_key)
        self.entered[model_key] = threading.Event()
        return queue

    def __call__(self, model_key, nodes):
        with self.lock:
            calls = self.threads.setdefault(model_key, [])
            calls.append(threading.current_thread())
        if len(calls) == 1:
            self.entered[model_key].set()
            assert self.queues[model_key]._stopping.wait(10.0)
        return super().__call__(model_key, nodes)


class TestRouting:
    def test_each_model_gets_its_own_queue(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer, max_batch_size=64)
        router.submit("a", [1, 2])
        router.submit("b", [3])
        router.submit("a", [4])
        assert router.queue_count() == 2
        assert router.queue_for("a") is not router.queue_for("b")
        assert router.run_once() == 3
        by_model = {key: nodes for key, nodes in scorer.calls}
        np.testing.assert_array_equal(by_model["a"], [1, 2, 4])
        np.testing.assert_array_equal(by_model["b"], [3])

    def test_rows_count_per_model_not_globally(self):
        """The cross-model bug: rows of model A must not consume model B's
        batch budget.  Submit A up to the cap, then B — B's queue still forms
        its own batch with its own budget."""
        scorer = CountingScorer()
        router = ModelRouter(scorer, max_batch_size=4)
        for i in range(4):  # A exactly at its cap
            router.submit("a", [i])
        tickets_b = [router.submit("b", [10 + i]) for i in range(3)]
        assert router.run_once() == 7
        # B was answered by one stacked matmul of its own 3 rows.
        per_model = router.per_model_stats()
        assert {label: (counters["matmuls"], counters["max_batch_rows"])
                for label, counters in per_model.items()} == {
            "a": (1, 4), "b": (1, 3)}
        for i, ticket in enumerate(tickets_b):
            np.testing.assert_array_equal(ticket.result(1.0), [[10 + i, 20 + 2 * i]])

    def test_inline_execution_drains_only_that_models_queue(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer)
        router.submit("parked", [99])  # must stay queued
        np.testing.assert_array_equal(router.predict_scores("m", [7]), [[7, 14]])
        assert [key for key, _ in scorer.calls] == ["m"]
        assert router.run_once() == 1  # "parked" still there

    def test_independent_deadlines_no_head_of_line_blocking(self):
        """With dispatch threads running, a slow model's matmul cannot delay
        a fast model's flush: each queue has its own dispatch thread."""
        scorer = CountingScorer(delays={"slow": 0.25})
        with ModelRouter(scorer, max_batch_size=64) as router:
            slow_results: list = []
            slow_thread = threading.Thread(
                target=lambda: slow_results.append(
                    router.predict_scores("slow", [1], timeout=10.0)))
            slow_thread.start()
            time.sleep(0.05)  # the slow matmul is now in flight
            start = time.monotonic()
            fast = router.predict_scores("fast", [2], timeout=10.0)
            fast_elapsed = time.monotonic() - start
            slow_thread.join()
        np.testing.assert_array_equal(fast, [[2, 4]])
        np.testing.assert_array_equal(slow_results[0], [[1, 2]])
        # The fast request must not have waited out the slow model's 250ms
        # compute (generous bound for scheduler noise on a loaded 1-core CI).
        assert fast_elapsed < 0.2, f"fast model waited {fast_elapsed:.3f}s"

    def test_every_queue_runs_the_router_cap(self):
        """One fixed row cap for every model: no per-model overrides, and
        the per-model stats report the cap with no linger."""
        router = ModelRouter(CountingScorer(), max_batch_size=2)
        for model in ("a", "b"):
            assert router.queue_for(model).max_batch_size == 2
            for i in range(3):
                router.submit(model, [i])
        router.run_once()
        per_model = router.per_model_stats()
        assert {label: stats["max_batch_size"]
                for label, stats in per_model.items()} == {"a": 2, "b": 2}
        assert all("max_latency_seconds" not in stats
                   for stats in per_model.values())
        assert not hasattr(router, "configure_model")

    def test_aggregate_stats_merge_across_queues(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer)
        for i in range(3):
            router.submit("a", [i])
        router.submit("b", [7, 8])
        router.run_once()
        stats = router.stats
        assert stats.requests == 4
        assert stats.rows_requested == 5
        assert stats.matmuls == 2
        assert stats.coalesced_requests == 3    # a's three tickets only
        assert stats.max_batch_rows == 3
        per_model = router.per_model_stats()
        assert per_model["a"]["coalesced_requests"] == 3
        assert per_model["b"]["coalesced_requests"] == 0
        assert per_model["a"]["max_batch_size"] == 64

    def test_error_in_one_model_leaves_others_alive(self):
        def scorer(model_key, nodes):
            if model_key == "bad":
                raise ValueError("poisoned model")
            return np.zeros((nodes.size, 2))

        router = ModelRouter(scorer)
        good = router.submit("good", [1])
        bad = router.submit("bad", [2])
        router.run_once()
        assert good.result(1.0).shape == (1, 2)
        with pytest.raises(ValueError, match="poisoned model"):
            bad.result(1.0)
        assert router.metrics.model("bad").failures == 1

    def test_metrics_observe_latency_per_model(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer)
        router.predict_scores("a", [1, 2])
        router.predict_scores("b", [3])
        payload = router.metrics.as_dict()
        assert set(payload) == {"a", "b"}
        assert payload["a"]["latency_ms"]["count"] == 1
        assert payload["a"]["batch_rows"]["max"] == 2.0
        assert payload["b"]["batch_rows"]["max"] == 1.0

    def test_close_flushes_every_queue(self):
        scorer = HeldScorer()
        router = ModelRouter(scorer, max_batch_size=64)
        for model in ("a", "b"):
            scorer.hold(router, model)
        router.start()
        held = [router.submit(model, [i]) for i, model in enumerate("ab")]
        for model in ("a", "b"):
            assert scorer.entered[model].wait(10.0)
        stragglers = [router.submit(model, [10 + i])
                      for i, model in enumerate(("a", "b", "a"))]
        router.close()
        for ticket in held + stragglers:
            assert ticket.result(1.0) is not None
        # Each queue's stragglers were flushed by close(), on this thread.
        assert {model: calls[-1] is threading.current_thread()
                for model, calls in scorer.threads.items()} == {
            "a": True, "b": True}

    def test_retire_drops_the_queue_and_flushes_its_tickets(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer)
        ticket = router.submit("old", [5])
        assert router.retire("old") is True
        assert router.queue_count() == 0
        np.testing.assert_array_equal(ticket.result(1.0), [[5, 10]])
        assert router.retire("old") is False  # already gone
        # New traffic simply recreates the queue.
        np.testing.assert_array_equal(router.predict_scores("old", [6]),
                                      [[6, 12]])

    def test_retire_keeps_aggregate_counters_monotonic(self):
        """Retiring a queue must not take its counts out of the aggregate
        (they back Prometheus counters); the per-model view drops it."""
        router = ModelRouter(CountingScorer())
        router.predict_scores("a", [1])
        router.predict_scores("b", [2, 3])
        before = router.stats
        assert router.retire("a") is True
        after = router.stats
        assert after.as_dict() == before.as_dict()
        assert (after.requests, after.batches, after.matmuls) == (2, 2, 2)
        assert set(router.per_model_stats()) == {"b"}
        # Traffic after the retirement adds on top of the folded counts.
        router.predict_scores("a", [4])
        assert router.stats.requests == 3

    def test_retire_stops_a_started_queues_thread(self):
        scorer = HeldScorer()
        with ModelRouter(scorer) as router:
            queue = scorer.hold(router, "old")
            held = router.submit("old", [3])
            assert scorer.entered["old"].wait(10.0)
            straggler = router.submit("old", [4])
            assert router.retire("old") is True
            np.testing.assert_array_equal(held.result(5.0), [[3, 6]])
            np.testing.assert_array_equal(straggler.result(5.0), [[4, 8]])
            assert scorer.threads["old"][-1] is threading.current_thread()
            assert queue._thread is None
            assert router.queue_count() == 0

    def test_invalid_defaults_rejected(self):
        with pytest.raises(ValueError):
            ModelRouter(CountingScorer(), max_batch_size=0)


class TestBatcherSatelliteFixes:
    """Pin the batcher's BaseException handling."""

    def test_base_exception_fails_tickets_then_reraises(self):
        def scorer(nodes):
            raise KeyboardInterrupt("operator hit ^C")

        batcher = MicroBatcher(scorer, max_batch_size=64)
        first = batcher.submit([1])
        second = batcher.submit([2])
        with pytest.raises(KeyboardInterrupt):
            batcher.run_once()
        # No caller is left blocked until timeout: both tickets failed fast.
        for ticket in (first, second):
            assert ticket.done()
            with pytest.raises(KeyboardInterrupt):
                ticket.result(0.1)

    def test_plain_exception_still_forwarded_not_raised(self):
        def scorer(nodes):
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(scorer, max_batch_size=64)
        ticket = batcher.submit([1])
        batcher.run_once()  # must NOT raise
        with pytest.raises(RuntimeError, match="model exploded"):
            ticket.result(0.1)
