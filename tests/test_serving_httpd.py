"""Tests for the selector-loop HTTP frontend (framing, 400s, keep-alive,
bounded connections, graceful drain, parked-request deadlines)."""

from __future__ import annotations

import json
import socket
import threading
import time
import types
import urllib.request

import pytest

from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.exceptions import ConfigurationError
from repro.graphs.datasets import load_dataset
from repro.serving import (
    InferenceService,
    ModelRegistry,
    parse_predict_payload,
    serve_http,
)
from repro.serving import httpd
from repro.serving.httpd import _BadRequest, _parse_request


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora_ml", scale=0.06, seed=0)


@pytest.fixture(scope="module")
def model(graph):
    config = GCONConfig(epsilon=2.0, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=7)


@pytest.fixture()
def service(tmp_path, model, graph):
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(model, "demo", inference_mode="private",
                     training={"dataset": "cora_ml", "scale": 0.06,
                               "graph_seed": 0})
    return InferenceService(registry, graph=graph)


@pytest.fixture()
def server(service):
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()


def _raw(server, payload: bytes, *, reads: int = 1) -> list[bytes]:
    """One blocking socket conversation: send bytes, read ``reads`` responses."""
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(payload)
        responses, buf = [], b""
        while len(responses) < reads:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
            while True:
                split = _split_one_response(buf)
                if split is None:
                    break
                response, buf = split
                responses.append(response)
        return responses


def _split_one_response(buf: bytes):
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    head = buf[:head_end].decode("latin-1")
    length = 0
    for line in head.split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    total = head_end + 4 + length
    if len(buf) < total:
        return None
    return buf[:total], buf[total:]


def _status(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def _body(response: bytes) -> dict:
    return json.loads(response.split(b"\r\n\r\n", 1)[1])


class TestParseRequest:
    def test_incomplete_returns_none_and_consumes_nothing(self):
        buf = bytearray(b"GET /healthz HTTP/1.1\r\nHost: x")
        assert _parse_request(buf) is None
        assert bytes(buf).startswith(b"GET")

    def test_complete_request_is_popped_from_buffer(self):
        buf = bytearray(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
                        b"GET /stats HTTP/1.1\r\n\r\n")
        method, path, headers, body, keep_alive = _parse_request(buf)
        assert (method, path, body, keep_alive) == ("POST", "/v1/predict",
                                                    b"{}", True)
        method, path, _headers, body, _ka = _parse_request(buf)
        assert (method, path, body) == ("GET", "/stats", b"")
        assert not buf

    def test_keep_alive_defaults_by_version(self):
        http11 = bytearray(b"GET / HTTP/1.1\r\n\r\n")
        assert _parse_request(http11)[4] is True
        closing = bytearray(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert _parse_request(closing)[4] is False
        http10 = bytearray(b"GET / HTTP/1.0\r\n\r\n")
        assert _parse_request(http10)[4] is False

    @pytest.mark.parametrize("raw", [
        b"NONSENSE\r\n\r\n",
        b"GET /x HTTP/1.1\r\nBroken-Header-No-Colon\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    ])
    def test_malformed_framing_raises_bad_request(self, raw):
        with pytest.raises(_BadRequest):
            _parse_request(bytearray(raw))

    def test_oversized_header_rejected(self):
        with pytest.raises(_BadRequest) as excinfo:
            _parse_request(bytearray(b"GET /" + b"a" * 40000))
        assert excinfo.value.status == 431


class TestPredictPayloadValidation:
    """Every malformed payload is a ConfigurationError (→ 400), never a 500."""

    @pytest.mark.parametrize("payload", [
        ["not", "a", "dict"],
        {},
        {"model": 7, "nodes": [0]},
        {"model": "demo"},
        {"model": "demo", "nodes": []},
        {"model": "demo", "nodes": [0, "one"]},
        {"model": "demo", "nodes": [0, 1.5]},
        {"model": "demo", "nodes": [True]},
        {"model": "demo", "nodes": [2 ** 63]},   # overflows int64 -> 400, not 500
        {"model": "demo", "nodes": [-(2 ** 63) - 1]},
        {"model": "demo", "nodes": [0], "mode": 3},
        {"model": "demo", "nodes": [0], "top_k": 0},
        {"model": "demo", "nodes": [0], "top_k": "two"},
        {"model": "demo", "nodes": [0], "top_k": True},
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            parse_predict_payload(payload)

    def test_valid_payload_parses(self):
        request = parse_predict_payload(
            {"model": "demo@latest", "nodes": [0, 3], "top_k": 2,
             "proba": True})
        assert request.ref == "demo@latest"
        assert request.nodes == [0, 3]
        assert request.top_k == 2
        assert request.proba is True
        assert request.mode is None


class TestHttpFraming:
    def test_malformed_json_body_is_400_with_message(self, server):
        responses = _raw(server,
                         b"POST /v1/predict HTTP/1.1\r\n"
                         b"Content-Length: 9\r\n\r\n{not json")
        assert _status(responses[0]) == 400
        assert "JSON" in _body(responses[0])["error"]

    def test_non_integer_nodes_are_400_not_500(self, server):
        body = json.dumps({"model": "demo", "nodes": [0, 2.5]}).encode()
        responses = _raw(server,
                         b"POST /v1/predict HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        assert _status(responses[0]) == 400
        assert "non-empty list of integers" in _body(responses[0])["error"]

    def test_overflowing_node_index_is_400_not_500(self, server):
        body = json.dumps({"model": "demo", "nodes": [2 ** 80]}).encode()
        responses = _raw(server,
                         b"POST /v1/predict HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        assert _status(responses[0]) == 400
        assert "64-bit" in _body(responses[0])["error"]

    def test_keep_alive_serves_many_requests_on_one_connection(self, server):
        body = json.dumps({"model": "demo", "nodes": [0, 1]}).encode()
        request = (b"POST /v1/predict HTTP/1.1\r\n"
                   b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        responses = _raw(server, request * 3 + b"GET /stats HTTP/1.1\r\n\r\n",
                         reads=4)
        assert len(responses) == 4
        assert all(_status(r) == 200 for r in responses)
        assert b"Connection: keep-alive" in responses[0]
        predictions = [_body(r) for r in responses[:3]]
        assert all(p["labels"] == predictions[0]["labels"]
                   for p in predictions)
        assert _body(responses[3])["batcher"]["requests"] >= 3

    def test_pipelined_responses_are_not_held_for_delayed_acks(self, server):
        """A response written while the previous one is still unacknowledged
        must leave at once.  With Nagle's algorithm on the accepted socket it
        waits for the client's delayed ACK (>= 40 ms on Linux), so every
        pipelined response after the first arrives ~40 ms late."""
        body = json.dumps({"model": "demo", "nodes": [0, 1]}).encode()
        request = (b"POST /v1/predict HTTP/1.1\r\n"
                   b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        port = server.server_address[1]
        gaps = []
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _round in range(12):
                sock.sendall(request * 3)
                arrivals, buf = [], b""
                while len(arrivals) < 3:
                    chunk = sock.recv(65536)
                    assert chunk, "server closed the connection"
                    buf += chunk
                    while (split := _split_one_response(buf)) is not None:
                        response, buf = split
                        assert _status(response) == 200
                        arrivals.append(time.perf_counter())
                gaps.append(max(later - earlier for earlier, later
                                in zip(arrivals, arrivals[1:])))
        # The median shrugs off a scheduling hiccup; a Nagle stall hits
        # nearly every round.
        gaps.sort()
        assert gaps[len(gaps) // 2] < 0.015, (
            f"pipelined response gaps (ms): "
            f"{[round(gap * 1e3, 1) for gap in gaps]}")

    def test_connection_close_is_honoured(self, server):
        responses = _raw(server, b"GET /healthz HTTP/1.1\r\n"
                                 b"Connection: close\r\n\r\n")
        assert _status(responses[0]) == 200
        assert b"Connection: close" in responses[0]

    def test_unknown_method_is_405(self, server):
        responses = _raw(server, b"DELETE /stats HTTP/1.1\r\n\r\n")
        assert _status(responses[0]) == 405

    def test_malformed_request_line_is_400_and_closes(self, server):
        responses = _raw(server, b"GARBAGE\r\n\r\n")
        assert _status(responses[0]) == 400
        assert b"Connection: close" in responses[0]


class TestConnectionBounds:
    def test_excess_connections_get_503(self, service):
        server = serve_http(service, port=0, max_connections=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as first:
                # Make sure the first connection is registered by the loop.
                first.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert first.recv(65536)
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=5.0) as second:
                    data = second.recv(65536)
                    assert b"503" in data.split(b"\r\n", 1)[0]
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_shutdown_drains_inflight_requests(self, service):
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/predict",
                data=json.dumps({"model": "demo", "nodes": [0]}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10.0) as response:
                assert response.status == 200
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert not thread.is_alive() or thread.join(5.0) is None


class _NeverDone:
    """A batch ticket that never resolves."""

    def __init__(self):
        self.submitted_at = time.monotonic()
        self.on_done = None

    def done(self):
        return False


class _StubFleet:
    """Routes every digest to one peer that is never contacted."""

    replica_id = "self"
    proxy = True
    proxy_timeout = 30.0

    def peers_for(self, digest):
        return [types.SimpleNamespace(replica_id="peer",
                                      base_url="http://127.0.0.1:9")]


def _stall_predict(server, service, monkeypatch, release):
    submit = service.submit_batch

    def stuck(ref, nodes, mode=None):
        _ticket, record, mode = submit(ref, nodes, mode)
        return _NeverDone(), record, mode

    monkeypatch.setattr(service, "submit_batch", stuck)


def _stall_proxy(server, service, monkeypatch, release):
    server.fleet = _StubFleet()
    monkeypatch.setattr(httpd, "_forward", lambda *args: release.wait(30.0))


def _stall_graph_update(server, service, monkeypatch, release):
    monkeypatch.setattr(service, "apply_graph_update",
                        lambda **kwargs: release.wait(30.0))


class TestParkedDeadlines:
    @pytest.mark.parametrize("stall,path,payload,message", [
        (_stall_predict, "/v1/predict", {"model": "demo", "nodes": [0]},
         "inference request timed out waiting for its batch"),
        (_stall_proxy, "/v1/predict", {"model": "demo", "nodes": [0]},
         "fleet proxy timed out"),
        (_stall_graph_update, "/v1/graph/update", {"sample_insert": 1},
         "graph update timed out"),
    ], ids=["predict", "proxy", "graph_update"])
    def test_past_its_deadline_a_parked_request_is_503_and_closes(
            self, server, service, monkeypatch, stall, path, payload,
            message):
        monkeypatch.setattr(httpd, "REQUEST_TIMEOUT", 0.3)
        monkeypatch.setattr(httpd, "UPDATE_TIMEOUT", 0.3)
        release = threading.Event()
        stall(server, service, monkeypatch, release)
        body = json.dumps(payload).encode()
        try:
            (response,) = _raw(server, (
                f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
        finally:
            release.set()
        assert _status(response) == 503
        assert _body(response) == {"error": message}
        assert b"Connection: close\r\n" in response
        assert not server._parked

        trace_id = server.tracer.store.recent(1)[0]["trace_id"]
        spans = server.tracer.store.get(trace_id)["spans"]
        root = spans[0]
        assert root["attrs"]["http_status"] == 503
        assert root["status"] == "error"
        proxy = [span for span in spans if span["name"] == "proxy"]
        if stall is _stall_proxy:
            assert [span["status"] for span in proxy] == ["error"]
        else:
            assert proxy == []
