"""Tests for the SLO plane: error-budget accounting, queue-depth admission
control, the memory-mapped bundle path and the fused response renderer.

The bar is the same as the rest of the serving stack: every mechanism here
changes *latency and availability* only.  Scores stay bitwise equal to
offline ``GCON.decision_scores`` in every configuration — accounted or not,
mapped or eager.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.graphs.datasets import load_dataset
from repro.serving import (
    InferenceService,
    ModelRegistry,
    OverloadedError,
    SloController,
    format_prediction,
    format_prediction_body,
    serve_http,
)
from repro.serving.metrics import LATENCY_BUCKETS, bucket_quantile
from repro.serving.service import PredictRequest
from repro.serving.slo import estimate_drain_seconds


# --------------------------------------------------------------------------- #
# controller fake: a hand-fed metrics source
# --------------------------------------------------------------------------- #
class FakeMetrics:
    """A ServingMetrics stand-in whose histograms the test sets directly."""

    def __init__(self):
        self._counts: dict[str, list[int]] = {}

    def observe(self, label: str, seconds: float, n: int = 1) -> None:
        counts = self._counts.setdefault(
            label, [0] * (len(LATENCY_BUCKETS) + 1))
        counts[bisect.bisect_left(LATENCY_BUCKETS, seconds)] += n

    def latency_snapshot(self):
        return {label: tuple(counts)
                for label, counts in self._counts.items()}


def controller(metrics=None, **kwargs):
    kwargs.setdefault("target_p99", 0.050)
    return SloController(metrics if metrics is not None else FakeMetrics(),
                         **kwargs)


class TestSloController:
    def test_models_are_accounted_independently(self):
        metrics = FakeMetrics()
        ctl = controller(metrics, target_p99=0.050)
        metrics.observe("slow", 0.300, n=50)
        metrics.observe("fast", 0.001, n=50)
        ctl.tick()
        models = ctl.state()["models"]
        assert (models["slow"]["good_requests"],
                models["slow"]["bad_requests"]) == (0, 50)
        assert (models["fast"]["good_requests"],
                models["fast"]["bad_requests"]) == (50, 0)

    def test_state_exposes_the_stats_block(self):
        metrics = FakeMetrics()
        ctl = controller(metrics, target_p99=0.050)
        metrics.observe("demo", 0.001, n=3)
        ctl.tick()
        state = ctl.state()
        assert state["target_p99_ms"] == 50.0
        assert state["last_error"] is None
        assert set(state) == {"target_p99_ms", "objective",
                              "budget_window_seconds", "interval_seconds",
                              "ticks", "last_error", "models"}
        assert set(state["models"]["demo"]) == {
            "good_requests", "bad_requests", "error_budget_remaining",
            "error_budget_consumed", "burn_rate"}

    def test_each_window_is_charged_once(self):
        """A tick charges only the requests since the previous tick (the
        difference of two histogram snapshots), never the lifetime counts
        again."""
        metrics = FakeMetrics()
        ctl = controller(metrics, target_p99=0.050)
        metrics.observe("m", 0.001, n=40)
        ctl.tick()
        metrics.observe("m", 0.300, n=10)
        ctl.tick()
        metrics.observe("m", 0.001, n=5)
        ctl.tick()
        budget = ctl.state()["models"]["m"]
        assert (budget["good_requests"], budget["bad_requests"]) == (45, 10)
        assert ctl.state()["ticks"] == 3

    def test_target_is_judged_at_bucket_edges(self):
        """Good means a bucket whose upper edge is at or under the target:
        the bucket that straddles the target is charged as bad, so the
        accounting never rounds a slow request down to good."""
        metrics = FakeMetrics()
        ctl = controller(metrics, target_p99=0.050)
        edge = LATENCY_BUCKETS[bisect.bisect_right(LATENCY_BUCKETS, 0.050) - 1]
        assert edge <= 0.050
        metrics.observe("m", edge, n=3)           # in the last good bucket
        metrics.observe("m", edge * 1.001, n=2)   # straddles the target
        ctl.tick()
        budget = ctl.state()["models"]["m"]
        assert (budget["good_requests"], budget["bad_requests"]) == (3, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="target_p99"):
            controller(target_p99=0.0)

    def test_interval_validation(self):
        for interval in (0.0, -1.0):
            with pytest.raises(ValueError, match="interval"):
                controller(interval=interval)

    def test_start_is_idempotent(self):
        ctl = controller(interval=60.0)
        try:
            thread = ctl.start()._thread
            assert thread is not None and thread.is_alive()
            assert ctl.start()._thread is thread   # no second loop
        finally:
            ctl.close()
        assert not thread.is_alive()
        assert ctl._thread is None

    def test_background_loop_ticks_and_survives_errors(self):
        class ExplodingMetrics:
            def latency_snapshot(self):
                raise RuntimeError("boom")

        ctl = controller(ExplodingMetrics(), interval=0.005)
        with ctl:
            deadline = time.monotonic() + 2.0
            while ctl.last_error is None and time.monotonic() < deadline:
                time.sleep(0.005)
        assert ctl.last_error == "RuntimeError('boom')"
        # close() is idempotent and the thread is gone.
        ctl.close()
        assert ctl._thread is None


class TestAdmissionPrimitives:
    def test_retry_after_header_is_ceiled_whole_seconds(self):
        def shed(retry_after):
            return OverloadedError("full", retry_after=retry_after,
                                   label="m", depth=9, max_queue_depth=8)
        assert shed(0.06).retry_after_header == 1
        assert shed(3.2).retry_after_header == 4
        assert shed(2.0).retry_after_header == 2

    def test_estimate_drain_seconds(self):
        # 100 deep / 10 per flush = 10 flushes; 10ms per flush.
        assert estimate_drain_seconds(100, 10) == pytest.approx(0.100)
        assert estimate_drain_seconds(101, 10) == pytest.approx(0.110)
        # Empty/degenerate queues still produce a positive hint.
        assert estimate_drain_seconds(0, 10) > 0
        assert estimate_drain_seconds(5, 0) > 0


# --------------------------------------------------------------------------- #
# a real model end to end
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora_ml", scale=0.06, seed=0)


@pytest.fixture(scope="module")
def model(graph):
    config = GCONConfig(epsilon=2.0, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=7)


@pytest.fixture()
def registry(tmp_path, model):
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(model, "demo", inference_mode="private",
                     training={"dataset": "cora_ml"})
    return registry


class TestAdmissionControl:
    def test_shed_happens_before_the_queue(self, registry, graph):
        """A shed request costs a counter bump, never a batcher ticket."""
        service = InferenceService(registry, graph=graph,
                                   max_queue_depth=0)
        with pytest.raises(OverloadedError) as excinfo:
            service.predict_batch("demo", [0, 1])
        error = excinfo.value
        assert error.retry_after > 0
        assert error.max_queue_depth == 0
        assert service.batcher.stats.requests == 0   # nothing was enqueued
        admission = service.stats()["admission"]
        assert admission["max_queue_depth"] == 0
        assert admission["shed_total"] == 1
        assert admission["shed_per_model"] == {"demo@latest": 1} or \
            sum(admission["shed_per_model"].values()) == 1

    def test_no_cap_means_no_shedding(self, registry, graph, model):
        service = InferenceService(registry, graph=graph,
                                   max_queue_depth=None)
        offline = model.decision_scores(graph, mode="private")
        served = service.predict_scores("demo", [0, 1, 2])
        assert np.array_equal(served, offline[[0, 1, 2]])
        assert service.stats()["admission"]["shed_total"] == 0

    def test_retry_after_is_the_drain_time_at_the_row_cap(self, registry,
                                                          graph, model):
        """The retry hint counts the flushes the full queue needs at the
        router's fixed row cap; queued requests still resolve bitwise."""
        service = InferenceService(registry, graph=graph, max_batch_size=1,
                                   max_queue_depth=2)
        queued = [service.submit_batch("demo", [i]) for i in range(2)]
        with pytest.raises(OverloadedError) as excinfo:
            service.submit_batch("demo", [2])
        error = excinfo.value
        assert error.depth == 2
        assert error.retry_after == pytest.approx(
            estimate_drain_seconds(2, 1))
        assert service.batcher.run_once() == 2
        offline = model.decision_scores(graph, mode="private")
        for i, (ticket, _record, _mode) in enumerate(queued):
            assert np.array_equal(ticket.result(1.0), offline[[i]])
        assert service.stats()["admission"]["shed_total"] == 1

    def test_http_429_with_retry_after(self, registry, graph):
        """Overload is answered with 429 + Retry-After on the wire."""
        service = InferenceService(registry, graph=graph, max_queue_depth=0)
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/predict",
                data=json.dumps({"model": "demo", "nodes": [0]}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            response = excinfo.value
            assert response.code == 429
            assert int(response.headers["Retry-After"]) >= 1
            body = json.loads(response.read())
            assert body["retry_after_seconds"] > 0
            assert "error" in body
            # The shed shows up in /stats over the same wire.
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/stats", timeout=10.0) as reply:
                stats = json.loads(reply.read())
            assert stats["admission"]["shed_total"] >= 1
            assert stats["slo"] == {"enabled": False}
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestMmapBundles:
    def test_mapped_load_is_bitwise_equal_to_eager(self, registry, graph):
        eager, _ = registry.load("demo", mmap=False)
        mapped, _ = registry.load("demo", mmap=True)
        assert isinstance(mapped.theta_, np.memmap)
        assert not isinstance(eager.theta_, np.memmap)
        assert np.array_equal(np.asarray(mapped.theta_), eager.theta_)
        for mode in ("private", "public"):
            assert np.array_equal(mapped.decision_scores(graph, mode=mode),
                                  eager.decision_scores(graph, mode=mode))

    def test_mapped_service_serves_bitwise_offline_scores(self, registry,
                                                          graph, model):
        offline = model.decision_scores(graph, mode="private")
        nodes = [0, 5, 9, 3]
        mapped = InferenceService(registry, graph=graph, mmap_bundles=True)
        eager = InferenceService(registry, graph=graph, mmap_bundles=False)
        assert np.array_equal(mapped.predict_scores("demo", nodes),
                              offline[nodes])
        assert np.array_equal(eager.predict_scores("demo", nodes),
                              offline[nodes])


class TestLiveAccounting:
    def test_slo_controller_accounts_a_live_service(self, registry, graph,
                                                    model):
        """End to end: a controller ticking against a live service while
        requests flow — the budget is spent, scores never move."""
        service = InferenceService(registry, graph=graph)
        ctl = SloController(service.metrics, target_p99=1e-6)  # everything
        service.attach_slo(ctl)                                # violates
        offline = model.decision_scores(graph, mode="private")
        try:
            for i in range(10):
                nodes = [i, i + 2]
                assert np.array_equal(
                    service.predict_scores("demo", nodes), offline[nodes])
                ctl.tick()
            state = service.stats()["slo"]
            assert state["enabled"] is True
            (label, budget), = state["models"].items()
            assert budget["bad_requests"] == 10      # each judged once
            assert budget["good_requests"] == 0
            assert budget["burn_rate"] == pytest.approx(100.0)
        finally:
            service.close()


class TestFusedResponseRenderer:
    """The zero-copy body renderer must be byte-identical to the canonical
    ``json.dumps(format_prediction(...), sort_keys=True)`` encoding."""

    @pytest.mark.parametrize("proba", [False, True])
    @pytest.mark.parametrize("top_k", [None, 2])
    def test_bytes_match_canonical_json(self, registry, graph, proba, top_k):
        service = InferenceService(registry, graph=graph)
        scores, record, mode = service.predict_batch("demo", [0, 1, 7])
        request = PredictRequest(ref="demo", nodes=[0, 1, 7], mode=None,
                                 top_k=top_k, proba=proba)
        canonical = (json.dumps(
            format_prediction(request, scores, record, mode),
            sort_keys=True) + "\n").encode("utf-8")
        fused = format_prediction_body(request, scores, record, mode)
        assert fused == canonical

    def test_awkward_floats_roundtrip(self, registry, graph):
        service = InferenceService(registry, graph=graph)
        _, record, mode = service.predict_batch("demo", [0])
        scores = np.array([[1e-17, -0.0], [1234567890.123456, 3.14]])
        request = PredictRequest(ref="demo", nodes=[4, 5], mode=None,
                                 top_k=None, proba=False)
        canonical = (json.dumps(
            format_prediction(request, scores, record, mode),
            sort_keys=True) + "\n").encode("utf-8")
        assert format_prediction_body(request, scores, record, mode) == canonical


class TestBucketQuantile:
    def test_empty_counts_is_zero(self):
        assert bucket_quantile((1.0, 2.0), [0, 0, 0], 0.99) == 0.0

    def test_overflow_bucket_uses_the_observed_max(self):
        bounds = (1.0, 2.0)
        counts = [0, 0, 5]      # all samples past the last bound
        assert bucket_quantile(bounds, counts, 0.99,
                               overflow_value=7.5) == 7.5

    def test_interpolates_within_a_bucket(self):
        bounds = (1.0, 2.0, 4.0)
        counts = [0, 100, 0, 0]  # uniform inside (1, 2]
        p50 = bucket_quantile(bounds, counts, 0.50)
        assert 1.0 < p50 <= 2.0


# --------------------------------------------------------------------------- #
# SLO error-budget accounting (burn rate, budget gauges, /metrics series)
# --------------------------------------------------------------------------- #
class TestErrorBudget:
    def _controller(self, *, objective=0.9, budget_window=100.0,
                    target_p99=0.050):
        from repro.serving.metrics import ServingMetrics

        self.now = [0.0]
        metrics = ServingMetrics()
        ctl = SloController(metrics, target_p99=target_p99,
                            objective=objective, budget_window=budget_window,
                            clock=lambda: self.now[0])
        return ctl, metrics

    def _observe(self, metrics, label, seconds, n):
        hist = metrics.model(label).latency
        for _ in range(n):
            hist.observe(seconds)

    def test_good_bad_split_burn_and_remaining(self):
        # Objective 90% under 50ms -> budget 10%.  100 requests, 20 over
        # target: error rate 0.20, burn 2x, budget consumed 2x (overspent).
        ctl, metrics = self._controller(objective=0.9)
        self._observe(metrics, "m", 0.001, 80)
        self._observe(metrics, "m", 0.200, 20)
        ctl.tick()
        state = ctl.state()["models"]["m"]
        assert state["good_requests"] == 80
        assert state["bad_requests"] == 20
        assert state["burn_rate"] == pytest.approx(2.0)
        assert state["error_budget_consumed"] == pytest.approx(2.0)
        assert state["error_budget_remaining"] == pytest.approx(-1.0)

    def test_counters_accumulate_and_ride_metrics_registry(self):
        ctl, metrics = self._controller(objective=0.9)
        self._observe(metrics, "m", 0.001, 50)
        ctl.tick()
        self.now[0] = 10.0
        self._observe(metrics, "m", 0.200, 50)
        ctl.tick()
        families = {name: (kind, dict(
            (tuple(sorted(labels.items())), value)
            for labels, value in entries))
            for name, kind, _help, entries in metrics.external_families()}
        good_kind, good = families["repro_slo_good_requests_total"]
        bad_kind, bad = families["repro_slo_bad_requests_total"]
        assert good_kind == bad_kind == "counter"
        key = (("model", "m"),)
        assert good[key] == 50.0
        assert bad[key] == 50.0
        assert families["repro_slo_target_p99_seconds"][1][()] == 0.050
        assert families["repro_slo_objective_ratio"][1][()] == 0.9
        remaining = families["repro_slo_error_budget_remaining_ratio"][1][key]
        # 100 requests in the window, 50 bad, 10% allowance -> 5x consumed.
        assert remaining == pytest.approx(1.0 - 5.0)

    def test_budget_window_rolls_off_old_spend(self):
        ctl, metrics = self._controller(objective=0.9, budget_window=100.0)
        self._observe(metrics, "m", 0.200, 100)  # all bad at t=0
        ctl.tick()
        assert ctl.state()["models"]["m"]["burn_rate"] == pytest.approx(10.0)
        # 200s later the spike has aged out of the window; a clean window
        # restores the full budget even though cumulative counters remember.
        self.now[0] = 200.0
        self._observe(metrics, "m", 0.001, 100)
        ctl.tick()
        state = ctl.state()["models"]["m"]
        assert state["burn_rate"] == pytest.approx(0.0)
        assert state["error_budget_remaining"] == pytest.approx(1.0)
        assert state["bad_requests"] == 100  # cumulative history intact

    def test_idle_windows_do_not_charge_the_budget(self):
        ctl, metrics = self._controller()
        self._observe(metrics, "m", 0.001, 10)
        ctl.tick()
        ctl.tick()  # idle window
        state = ctl.state()["models"]["m"]
        assert state["good_requests"] == 10
        assert state["error_budget_remaining"] == pytest.approx(1.0)

    def test_budget_series_publish_only_when_the_budget_moves(self):
        """A label's series are published when it first appears and when a
        window charges or rolls off spend; an idle tick publishes nothing."""
        published = []

        class PublishingMetrics(FakeMetrics):
            def set_series(self, name, value, **kwargs):
                if name == "repro_slo_bad_requests_total":
                    published.append((kwargs["labels"]["model"], value))

        self.now = [0.0]
        metrics = PublishingMetrics()
        ctl = SloController(metrics, target_p99=0.050, budget_window=100.0,
                            clock=lambda: self.now[0])
        metrics.observe("m", 0.300, n=4)
        ctl.tick()
        assert published == [("m", 4)]
        ctl.tick()                            # idle: nothing moved
        assert published == [("m", 4)]
        self.now[0] = 200.0                   # the spend rolls off
        ctl.tick()
        assert published == [("m", 4), ("m", 4)]
        assert ctl.state()["models"]["m"]["burn_rate"] == 0.0

    def test_objective_validation(self):
        with pytest.raises(ValueError, match="objective"):
            controller(objective=1.5)
        with pytest.raises(ValueError, match="budget_window"):
            controller(budget_window=0.0)

    def test_idle_ticks_store_no_history(self):
        """An idle window adds nothing to either budget sum, so it must not
        grow the history a tick keeps: with graph churn minting new labels
        every second, storing idle windows made each tick cost grow with
        uptime times labels."""
        ctl, metrics = self._controller(budget_window=3600.0)
        self._observe(metrics, "m", 0.200, 5)
        for step in range(1001):       # one observed window, 1000 idle
            self.now[0] = step * 0.25
            ctl.tick()
        assert len(ctl._budgets["m"]._history) == 1
        state = ctl.state()["models"]["m"]
        assert state["bad_requests"] == 5
        assert state["burn_rate"] == pytest.approx(10.0)
