"""End-to-end telemetry retention and alerting: the collector thread over a
live server, ``GET /alerts``, the collector-on/off bitwise pin, the fault
injection knob, the ``repro alerts`` one-shot and the fleet dashboard."""

from __future__ import annotations

import json
import threading
import time
import types
import urllib.request

import numpy as np
import pytest

from repro.cli.main import main
from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.graphs.datasets import load_dataset
from repro.obs.alerts import BAD_METRIC, GOOD_METRIC, AlertEngine, default_rules
from repro.obs.collector import TelemetryCollector
from repro.obs.dashboard import render_dashboard
from repro.obs.prometheus import render_server_metrics
from repro.obs.tsdb import TelemetryStore
from repro.serving import (
    FleetMember,
    FleetRouter,
    InferenceService,
    ModelRegistry,
    serve_http,
)
from repro.serving.service import FAULT_DELAY_FILE_ENV


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora_ml", scale=0.06, seed=0)


@pytest.fixture(scope="module")
def model(graph):
    config = GCONConfig(epsilon=2.0, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=7)


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, model):
    root = tmp_path_factory.mktemp("telemetry-registry")
    registry = ModelRegistry(root / "reg")
    registry.publish(model, "demo", inference_mode="private",
                     training={"dataset": "cora_ml", "scale": 0.06,
                               "graph_seed": 0})
    return root / "reg"


class _Server:
    """One in-process server, optionally with a telemetry collector wired
    exactly as ``repro serve --telemetry-dir`` wires it."""

    def __init__(self, registry_dir, graph, *, telemetry_dir=None,
                 fleet_dir=None, rid=None, rules=None, slo=False):
        self.service = InferenceService(ModelRegistry(registry_dir),
                                        graph=graph)
        self.service.prewarm("demo@latest")
        self.controller = None
        if slo:
            from repro.serving import SloController

            # Not started: the tests drive tick() deterministically.
            self.controller = SloController(self.service.metrics,
                                            target_p99=0.05)
            self.service.attach_slo(self.controller)
        self.server = serve_http(self.service, port=0, trace=True)
        self.port = self.server.server_address[1]
        self.member = None
        if fleet_dir is not None:
            self.member = FleetMember(fleet_dir, rid, "127.0.0.1", self.port,
                                      ttl=5.0)
            self.member.join(self.service.loaded_digests())
            self.member.start()
            self.server.fleet = FleetRouter(self.member, cache_ttl=0.0)
        self.store = self.engine = self.collector = None
        if telemetry_dir is not None:
            self.store = TelemetryStore(telemetry_dir)
            self.engine = AlertEngine(
                rules if rules is not None else default_rules(),
                self.store,
                history_path=telemetry_dir / "alerts.jsonl")
            self.server.alerts = self.engine
            self.collector = TelemetryCollector(
                self.store,
                lambda: render_server_metrics(self.service,
                                              server=self.server,
                                              tracer=self.server.tracer),
                interval=0.05, replica="r1", engine=self.engine)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def close(self):
        if self.collector is not None:
            self.collector.close()
        if self.member is not None:
            self.member.leave()
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


def _predict(port, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/predict",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.status, json.loads(response.read())


def _get_json(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10.0) as response:
        return response.status, json.loads(response.read())


class TestCollectorEndToEnd:
    def test_alerts_endpoint_disabled_without_collector(self, registry_dir,
                                                        graph):
        server = _Server(registry_dir, graph)
        try:
            status, payload = _get_json(server.port, "/alerts")
            assert status == 200
            assert payload == {"enabled": False, "alerts": []}
        finally:
            server.close()

    def test_collect_once_feeds_store_and_alerts_endpoint(self, registry_dir,
                                                          graph, tmp_path):
        server = _Server(registry_dir, graph, telemetry_dir=tmp_path / "tsdb",
                         slo=True)
        try:
            _predict(server.port, {"model": "demo", "nodes": [0, 3]})
            server.controller.tick()  # publish the SLO budget series
            appended = server.collector.collect_once()
            assert appended > 1
            assert server.store.scrape_times()
            names = server.store.series_names()
            assert names.get("repro_requests_total") == "counter"
            assert names.get("repro_uptime_seconds") == "gauge"
            assert (names.get("repro_process_resident_memory_bytes")
                    in (None, "gauge"))  # absent only without /proc
            assert names.get("repro_request_latency_seconds") == "histogram"
            assert names.get(GOOD_METRIC) == "counter"

            status, payload = _get_json(server.port, "/alerts")
            assert status == 200
            assert payload["enabled"] is True
            assert payload["firing"] == 0
            rule_names = {alert["rule"] for alert in payload["alerts"]}
            assert "slo-burn-rate" in rule_names
        finally:
            server.close()

    def test_collector_thread_scrapes_on_its_own(self, registry_dir, graph,
                                                 tmp_path):
        server = _Server(registry_dir, graph, telemetry_dir=tmp_path / "tsdb")
        try:
            server.collector.start()
            deadline = time.time() + 5.0
            while server.collector.scrapes == 0 and time.time() < deadline:
                time.sleep(0.02)
            assert server.collector.scrapes >= 1
            assert server.collector.errors == 0
            assert server.collector.stats()["last_error"] is None
        finally:
            server.close()
        # Segments survive the close: a restarted replica reopens the store.
        reopened = TelemetryStore(tmp_path / "tsdb")
        assert reopened.scrape_times()

    def test_collector_on_off_scores_bitwise_identical(self, registry_dir,
                                                       graph, model,
                                                       tmp_path):
        nodes = [0, 4, 2, 9]
        plain = _Server(registry_dir, graph)
        collected = _Server(registry_dir, graph,
                            telemetry_dir=tmp_path / "tsdb")
        collected.collector.start()
        try:
            _status, with_collector = _predict(
                collected.port, {"model": "demo", "nodes": nodes})
            _status, without = _predict(
                plain.port, {"model": "demo", "nodes": nodes})
            offline = model.decision_scores(graph, mode="private")[nodes]
            assert np.array_equal(np.asarray(with_collector["scores"]),
                                  offline)
            assert with_collector["scores"] == without["scores"]
        finally:
            collected.close()
            plain.close()


class TestFaultInjection:
    def test_delay_slows_requests_but_scores_are_untouched(
            self, registry_dir, graph, model, tmp_path, monkeypatch):
        nodes = [1, 5, 8]
        fault_file = tmp_path / "delay_ms"
        monkeypatch.setenv(FAULT_DELAY_FILE_ENV, str(fault_file))
        server = _Server(registry_dir, graph)
        try:
            _status, clean = _predict(server.port,
                                      {"model": "demo", "nodes": nodes})
            fault_file.write_text("80")
            start = time.perf_counter()
            _status, delayed = _predict(server.port,
                                        {"model": "demo", "nodes": nodes})
            elapsed = time.perf_counter() - start
            assert elapsed >= 0.08
            offline = model.decision_scores(graph, mode="private")[nodes]
            assert np.array_equal(np.asarray(delayed["scores"]), offline)
            assert delayed["scores"] == clean["scores"]
            fault_file.unlink()  # recovery: the knob is fully dynamic
            start = time.perf_counter()
            _predict(server.port, {"model": "demo", "nodes": nodes})
            assert time.perf_counter() - start < 0.08
        finally:
            server.close()

    def test_garbage_or_missing_delay_file_is_inert(self, registry_dir, graph,
                                                    tmp_path, monkeypatch):
        fault_file = tmp_path / "delay_ms"
        fault_file.write_text("not-a-number")
        monkeypatch.setenv(FAULT_DELAY_FILE_ENV, str(fault_file))
        server = _Server(registry_dir, graph)
        try:
            status, _body = _predict(server.port,
                                     {"model": "demo", "nodes": [0]})
            assert status == 200
        finally:
            server.close()


def _seed_breaching_store(root, *, now, objective=0.99):
    """Three scrapes a minute apart with a 10% bad-request ratio: burn
    10x the 1% budget in both the fast and slow windows."""
    store = TelemetryStore(root)
    for offset, (good, bad) in zip((120.0, 60.0, 0.0),
                                   ((0.0, 0.0), (90.0, 10.0), (180.0, 20.0))):
        store.append_scrape(
            [(GOOD_METRIC, {"model": "demo"}, good),
             (BAD_METRIC, {"model": "demo"}, bad)],
            {GOOD_METRIC: "counter", BAD_METRIC: "counter"},
            replica="r1", at=now - offset)
    return store


class TestAlertsCLI:
    def test_firing_store_exits_nonzero(self, tmp_path, capsys):
        _seed_breaching_store(tmp_path / "tsdb", now=time.time())
        assert main(["alerts", "--telemetry-dir", str(tmp_path / "tsdb")]) == 1
        output = capsys.readouterr().out
        assert "slo-burn-rate" in output
        assert "firing" in output

    def test_healthy_store_exits_zero(self, tmp_path, capsys):
        store = TelemetryStore(tmp_path / "tsdb")
        now = time.time()
        for offset, good in ((120.0, 0.0), (60.0, 100.0), (0.0, 200.0)):
            store.append_scrape([(GOOD_METRIC, {"model": "demo"}, good)],
                                {GOOD_METRIC: "counter"},
                                replica="r1", at=now - offset)
        assert main(["alerts", "--telemetry-dir", str(tmp_path / "tsdb")]) == 0
        assert "firing" not in capsys.readouterr().out.replace("0 firing", "")

    def test_missing_dir_is_a_config_error(self, tmp_path, capsys):
        assert main(["alerts", "--telemetry-dir",
                     str(tmp_path / "absent")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_json_payload(self, tmp_path, capsys):
        _seed_breaching_store(tmp_path / "tsdb", now=time.time())
        assert main(["alerts", "--telemetry-dir", str(tmp_path / "tsdb"),
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["firing"] >= 1
        firing = {alert["rule"] for alert in payload["alerts"]
                  if alert["state"] == "firing"}
        assert "slo-burn-rate" in firing

    def test_bad_rules_file_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "tsdb").mkdir()
        rules = tmp_path / "rules.json"
        rules.write_text("{\"rules\": [{\"kind\": \"nope\"}]}")
        assert main(["alerts", "--telemetry-dir", str(tmp_path / "tsdb"),
                     "--rules", str(rules)]) == 2
        assert "alerts failed" in capsys.readouterr().err


class TestServeTelemetryFlags:
    def test_bad_scrape_interval_fails_before_binding(self, tmp_path, capsys):
        exit_code = main(["serve", "--registry", str(tmp_path / "reg"),
                          "--model", "demo@latest",
                          "--telemetry-dir", str(tmp_path / "tsdb"),
                          "--scrape-interval", "0"])
        assert exit_code == 2
        assert "--scrape-interval" in capsys.readouterr().err

    def test_bad_rules_file_fails_before_binding(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text("not json")
        exit_code = main(["serve", "--registry", str(tmp_path / "reg"),
                          "--model", "demo@latest",
                          "--telemetry-dir", str(tmp_path / "tsdb"),
                          "--alert-rules", str(rules)])
        assert exit_code == 2
        assert "serve failed" in capsys.readouterr().err


class TestDashboard:
    @staticmethod
    def _latency_samples(count):
        name = "repro_request_latency_seconds"
        labels = {"model": "demo"}
        return [
            (f"{name}_bucket", {**labels, "le": "0.05"}, count),
            (f"{name}_bucket", {**labels, "le": "+Inf"}, count),
            (f"{name}_sum", labels, 0.01 * count),
            (f"{name}_count", labels, count),
        ]

    def test_render_dashboard_reads_the_store(self):
        store = TelemetryStore()
        now = time.time()
        for offset, requests in ((30.0, 0.0), (15.0, 30.0), (0.0, 60.0)):
            store.append_scrape(
                [("repro_requests_total", {}, requests),
                 *self._latency_samples(requests),
                 ("repro_uptime_seconds", {}, 600.0 - offset),
                 ("repro_slo_error_budget_remaining_ratio",
                  {"model": "demo"}, 0.75),
                 ("repro_slo_burn_rate", {"model": "demo"}, 2.0),
                 ("repro_slo_target_p99_seconds", {}, 0.05)],
                {"repro_requests_total": "counter",
                 "repro_request_latency_seconds": "histogram",
                 "repro_uptime_seconds": "gauge",
                 "repro_slo_error_budget_remaining_ratio": "gauge",
                 "repro_slo_burn_rate": "gauge",
                 "repro_slo_target_p99_seconds": "gauge"},
                replica="r1", at=now - offset)
        replica = types.SimpleNamespace(replica_id="r1", expired=False)
        status = types.SimpleNamespace(replicas=[replica], live=[replica])
        frame = render_dashboard(status, store, None, now=now, window=60.0)
        assert "1 live / 1 replica(s)" in frame
        assert "r1" in frame and "live" in frame
        # 60 requests over a 60 s window → 1.00 req/s.
        assert "1.00" in frame
        assert "demo" in frame
        assert "0.75" in frame  # budget remaining
        assert "2.00" in frame  # burn rate
        assert "50" in frame    # target ms

    def test_expired_and_unreachable_states(self):
        store = TelemetryStore()
        dead = types.SimpleNamespace(replica_id="dead", expired=True)
        mute = types.SimpleNamespace(replica_id="mute", expired=False)
        status = types.SimpleNamespace(replicas=[dead, mute], live=[mute])
        frame = render_dashboard(status, store, None, now=time.time(),
                                 unreachable=["mute"])
        assert "expired" in frame
        assert "unreachable" in frame

    def test_fleet_watch_cli_one_shot(self, registry_dir, graph, tmp_path,
                                      capsys):
        fleet_dir = tmp_path / "fleet"
        server = _Server(registry_dir, graph, fleet_dir=fleet_dir, rid="w1")
        try:
            _predict(server.port, {"model": "demo", "nodes": [0, 1]})
            exit_code = main(["fleet", "watch", "--fleet-dir", str(fleet_dir),
                              "--iterations", "1", "--no-clear"])
        finally:
            server.close()
        assert exit_code == 0
        frame = capsys.readouterr().out
        assert "fleet watch" in frame
        assert "w1" in frame
        assert "demo" in frame       # the model table found the scrape
        assert "alert" in frame      # the engine section rendered

    def test_fleet_watch_rejects_bad_interval(self, tmp_path, capsys):
        assert main(["fleet", "watch", "--fleet-dir", str(tmp_path),
                     "--interval", "0"]) == 2
        assert "--interval" in capsys.readouterr().err


class TestTraceNotFound:
    def test_unknown_trace_id_message_and_exit_code(self, registry_dir, graph,
                                                    capsys):
        server = _Server(registry_dir, graph)
        try:
            exit_code = main(["trace", "f" * 32, "--url", server.url])
        finally:
            server.close()
        assert exit_code == 1
        assert "not found on any replica" in capsys.readouterr().err
