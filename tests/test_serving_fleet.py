"""Tests for the replica-sharded serving fleet: lease-backed membership,
consistent-hash routing, proxy/redirect forwarding, failover and the
registry watcher's pre-warm-then-retire hot reload."""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.exceptions import ConfigurationError
from repro.graphs.datasets import load_dataset
from repro.serving import (
    FleetMember,
    FleetRouter,
    FleetView,
    InferenceService,
    ModelRegistry,
    RegistryWatcher,
    default_replica_id,
    serve_http,
)


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora_ml", scale=0.06, seed=0)


@pytest.fixture(scope="module")
def model(graph):
    config = GCONConfig(epsilon=2.0, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=7)


@pytest.fixture(scope="module")
def other_model(graph):
    config = GCONConfig(epsilon=0.5, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=11)


def _member(fleet_dir, rid, port, clock, *, ttl=10.0, digests=("d" * 64,)):
    member = FleetMember(fleet_dir, rid, "127.0.0.1", port,
                         ttl=ttl, clock=clock)
    member.join(digests)
    return member


class TestFleetMembership:
    def test_join_is_visible_in_the_view(self, tmp_path):
        clock = FakeClock()
        fleet_dir = tmp_path / "fleet"
        member = _member(fleet_dir, "r0", 8100, clock, digests=("abc",))
        view = FleetView(fleet_dir, clock=clock)
        replicas = view.replicas()
        assert [r.replica_id for r in replicas] == ["r0"]
        assert replicas[0].address == "127.0.0.1:8100"
        assert replicas[0].base_url == "http://127.0.0.1:8100"
        assert replicas[0].digests == ("abc",)
        member.leave()
        assert view.replicas() == []

    def test_duplicate_replica_id_is_rejected(self, tmp_path):
        clock = FakeClock()
        _member(tmp_path / "fleet", "r0", 8100, clock)
        with pytest.raises(ConfigurationError, match="already holds"):
            _member(tmp_path / "fleet", "r0", 8200, clock)

    def test_advertise_updates_the_lease_payload(self, tmp_path):
        clock = FakeClock()
        fleet_dir = tmp_path / "fleet"
        member = _member(fleet_dir, "r0", 8100, clock, digests=("old",))
        member.advertise(["new1", "new2"])
        view = FleetView(fleet_dir, clock=clock)
        assert view.replicas()[0].digests == ("new1", "new2")

    def test_expired_replica_routes_to_nobody(self, tmp_path):
        """The failover rule: once a dead replica's lease expires, no
        request may map to it — the survivors' ring absorbs its keys."""
        clock = FakeClock()
        fleet_dir = tmp_path / "fleet"
        alive = _member(fleet_dir, "alive", 8100, clock, ttl=5.0)
        dead = _member(fleet_dir, "dead", 8200, clock, ttl=5.0)
        view = FleetView(fleet_dir, clock=clock)
        digests = ["%064x" % i for i in range(64)]
        before = {d: view.owner(d).replica_id for d in digests}
        assert set(before.values()) == {"alive", "dead"}
        # The dead replica stops heartbeating; alive keeps pumping.
        clock.advance(3.0)
        assert alive.heartbeat_now()
        clock.advance(3.0)  # dead's heartbeat is now 6s old, TTL 5s
        after = {d: view.owner(d).replica_id for d in digests}
        assert set(after.values()) == {"alive"}
        for d in digests:
            assert dead.replica_id not in [
                r.replica_id for r in view.route(d, count=2)]
        # The expired lease still shows up in the census, marked as such.
        census = view.replicas(include_expired=True)
        assert {r.replica_id: r.expired for r in census} == {
            "alive": False, "dead": True}
        alive.leave()
        dead.leave()

    def test_membership_self_heals_after_a_reap(self, tmp_path):
        clock = FakeClock()
        member = _member(tmp_path / "fleet", "r0", 8100, clock, ttl=5.0)
        clock.advance(6.0)  # partitioned long enough to be reaped
        old_nonce = member.lease.nonce
        assert member.heartbeat_now()  # refresh fails -> re-acquire
        assert member.rejoins == 1
        assert member.lease.nonce != old_nonce
        view = FleetView(tmp_path / "fleet", clock=clock)
        assert [r.replica_id for r in view.replicas()] == ["r0"]
        member.leave()

    def test_status_summary_names_replicas_and_routing(self, tmp_path):
        clock = FakeClock()
        fleet_dir = tmp_path / "fleet"
        digest = "f" * 64
        member = _member(fleet_dir, "r0", 8100, clock, digests=(digest,))
        status = FleetView(fleet_dir, clock=clock).status()
        text = status.summary()
        assert "1 live" in text
        assert "r0" in text and "127.0.0.1:8100" in text
        assert digest[:12] in text and "routing" in text
        member.leave()

    def test_view_cache_ttl_defers_rescans(self, tmp_path):
        clock = FakeClock()
        fleet_dir = tmp_path / "fleet"
        member = _member(fleet_dir, "r0", 8100, clock)
        view = FleetView(fleet_dir, clock=clock, cache_ttl=1.0)
        assert len(view.replicas()) == 1
        _member(fleet_dir, "r1", 8200, clock)
        assert len(view.replicas()) == 1  # cached scan still in force
        clock.advance(1.5)
        assert len(view.replicas()) == 2
        member.leave()

    def test_router_peers_exclude_self_and_the_dead(self, tmp_path):
        clock = FakeClock()
        fleet_dir = tmp_path / "fleet"
        a = _member(fleet_dir, "ra", 8100, clock, ttl=5.0)
        b = _member(fleet_dir, "rb", 8200, clock, ttl=5.0)
        router = FleetRouter(a, cache_ttl=0.0)
        view = FleetView(fleet_dir, clock=clock)
        digests = ["%064x" % i for i in range(32)]
        owned_by_a = [d for d in digests if view.owner(d).replica_id == "ra"]
        owned_by_b = [d for d in digests if view.owner(d).replica_id == "rb"]
        assert owned_by_a and owned_by_b
        for d in owned_by_a:
            assert router.peers_for(d) == []  # we own it: serve locally
        for d in owned_by_b:
            peers = router.peers_for(d)
            assert [p.replica_id for p in peers] == ["rb"]
        # b dies; after expiry every digest is served locally again.
        clock.advance(3.0)
        a.heartbeat_now()
        clock.advance(3.0)
        for d in digests:
            assert router.peers_for(d) == []
        payload = router.as_dict()
        assert payload["self"] == "ra"
        assert payload["mode"] == "proxy"
        a.leave()
        b.leave()

    def test_default_replica_id_is_filename_safe_and_unique(self):
        first = default_replica_id("::1", 8100)
        second = default_replica_id("::1", 8100)
        assert first != second
        assert "/" not in first and ":" not in first


class TestRegistryWatcher:
    @pytest.fixture()
    def setup(self, tmp_path, model, graph):
        registry = ModelRegistry(tmp_path / "reg")
        training = {"dataset": "cora_ml", "scale": 0.06, "graph_seed": 0}
        record = registry.publish(model, "demo", inference_mode="private",
                                  training=training)
        service = InferenceService(registry, graph=graph)
        service.prewarm("demo@latest")
        yield registry, service, record, training
        service.close()

    def test_primed_watcher_reports_no_flip_at_startup(self, setup):
        registry, service, _record, _training = setup
        watcher = RegistryWatcher(registry, service, ["demo"])
        assert watcher.poll_once() == []
        assert watcher.flips == 0

    def test_flip_prewarms_new_and_retires_old(self, setup, other_model,
                                               graph):
        registry, service, record, training = setup
        watcher = RegistryWatcher(registry, service, ["demo"])
        seen = []
        watcher.on_flip = lambda name, old, new: seen.append((name, old, new))
        new_record = registry.publish(other_model, "demo",
                                      inference_mode="private",
                                      training=training)
        flips = watcher.poll_once()
        assert flips == [("demo", record.digest, new_record.digest)]
        assert seen == flips
        assert watcher.flips == 1
        loaded = service.loaded_digests()
        assert new_record.digest in loaded
        assert record.digest not in loaded  # old sessions retired
        # @latest traffic now resolves to the new version, bitwise equal to
        # its offline reference — the serving layers never change numbers.
        nodes = [0, 5, 9]
        served = service.predict_scores("demo@latest", nodes)
        offline = other_model.decision_scores(graph, mode="private")[nodes]
        assert np.array_equal(served, offline)
        # A second poll is quiescent.
        assert watcher.poll_once() == []

    def test_pinned_versions_survive_the_flip(self, setup, other_model,
                                              model, graph):
        registry, service, record, training = setup
        watcher = RegistryWatcher(registry, service, ["demo"])
        registry.publish(other_model, "demo", inference_mode="private",
                         training=training)
        watcher.poll_once()
        # Pinning the superseded digest still works: retire only dropped the
        # warm sessions, not the registry bundle.
        nodes = [1, 2]
        pinned = service.predict_scores(f"demo@{record.digest}", nodes)
        offline = model.decision_scores(graph, mode="private")[nodes]
        assert np.array_equal(pinned, offline)


def _post_predict(port, payload, *, forwarded=False, timeout=30.0):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/predict",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    if forwarded:
        req.add_header("X-Fleet-Forwarded", "1")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _get_json(port, path, timeout=10.0):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout) as resp:
        return json.loads(resp.read())


def _raw_post(port, path, payload) -> bytes:
    body = json.dumps(payload).encode()
    head = (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(head.encode() + body)
        buf = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return buf
            buf += chunk


def _read_responses(sock, count) -> list[tuple[int, bytes]]:
    """Read ``count`` pipelined responses as ``(status, body)`` pairs."""
    buf, responses = b"", []
    while len(responses) < count:
        head_end = buf.find(b"\r\n\r\n")
        if head_end >= 0:
            head = buf[:head_end].decode("latin-1").lower()
            length = int(head.split("content-length:")[1].split()[0])
            end = head_end + 4 + length
            if len(buf) >= end:
                responses.append((int(head.split()[1]),
                                  buf[head_end + 4:end]))
                buf = buf[end:]
                continue
        chunk = sock.recv(65536)
        if not chunk:
            break
        buf += chunk
    return responses


class _Replica:
    """One in-process serving replica: service + HTTP loop + fleet lease."""

    def __init__(self, registry, graph, fleet_dir, rid, *, ttl):
        self.service = InferenceService(registry, graph=graph)
        self.service.prewarm("demo@latest")
        self.server = serve_http(self.service, port=0)
        self.port = self.server.server_address[1]
        self.member = FleetMember(fleet_dir, rid, "127.0.0.1", self.port,
                                  ttl=ttl)
        self.member.join(self.service.loaded_digests())
        self.member.start()  # heartbeat pump at ttl/3
        self.server.fleet = FleetRouter(self.member, cache_ttl=0.0)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def kill(self):
        """SIGKILL stand-in: stop serving and heartbeating, release nothing."""
        self.member._stop.set()
        self.server.shutdown()
        self.server.server_close()
        self.service.close()

    def close(self):
        self.member.leave()
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


TTL = 1.5


@pytest.fixture()
def fleet(tmp_path, model, graph):
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(model, "demo", inference_mode="private",
                     training={"dataset": "cora_ml", "scale": 0.06,
                               "graph_seed": 0})
    fleet_dir = tmp_path / "fleet"
    replicas = [_Replica(registry, graph, fleet_dir, f"r{i}", ttl=TTL)
                for i in range(2)]
    digest = registry.resolve("demo@latest").digest
    yield {"replicas": replicas, "digest": digest, "registry": registry,
           "fleet_dir": fleet_dir}
    for replica in replicas:
        try:
            replica.close()
        except Exception:  # noqa: BLE001 - already killed in the test
            pass


def _split_by_ownership(fleet):
    view = FleetView(fleet["fleet_dir"])
    owner_id = view.owner(fleet["digest"]).replica_id
    by_id = {r.member.replica_id: r for r in fleet["replicas"]}
    owner = by_id.pop(owner_id)
    (peer,) = by_id.values()
    return owner, peer


class TestFleetHTTP:
    def test_fleet_endpoint_reports_membership(self, fleet):
        for replica in fleet["replicas"]:
            payload = _get_json(replica.port, "/fleet")
            assert payload["enabled"] is True
            assert payload["self"] == replica.member.replica_id
            assert len(payload["replicas"]) == 2
            assert payload["routing"][fleet["digest"]] in {"r0", "r1"}
            assert payload["mode"] == "proxy"
        # A fleetless server still answers the endpoint.
        view = FleetView(fleet["fleet_dir"])
        assert view.as_dict()["routing"] == {
            fleet["digest"]: view.owner(fleet["digest"]).replica_id}

    def test_non_owner_proxies_to_owner_bitwise(self, fleet, model, graph):
        owner, peer = _split_by_ownership(fleet)
        nodes = [0, 4, 2]
        status, body = _post_predict(
            peer.port, {"model": "demo", "nodes": nodes})
        assert status == 200
        offline = model.decision_scores(graph, mode="private")[nodes]
        assert np.array_equal(np.asarray(body["scores"]), offline)
        assert peer.server.fleet_stats["proxied"] == 1
        assert owner.server.fleet_stats["received_forwards"] == 1
        # The owner serves its own traffic without another hop.
        status, body2 = _post_predict(
            owner.port, {"model": "demo", "nodes": nodes})
        assert status == 200
        assert body2["scores"] == body["scores"]
        assert owner.server.fleet_stats["proxied"] == 0

    def test_forwarded_requests_always_terminate_locally(self, fleet, model,
                                                         graph):
        _owner, peer = _split_by_ownership(fleet)
        nodes = [3, 1]
        status, body = _post_predict(
            peer.port, {"model": "demo", "nodes": nodes}, forwarded=True)
        assert status == 200
        offline = model.decision_scores(graph, mode="private")[nodes]
        assert np.array_equal(np.asarray(body["scores"]), offline)
        assert peer.server.fleet_stats["proxied"] == 0  # no relay chains
        assert peer.server.fleet_stats["received_forwards"] == 1

    def test_redirect_mode_sends_307_to_the_owner(self, fleet):
        owner, peer = _split_by_ownership(fleet)
        peer.server.fleet.proxy = False
        raw = _raw_post(peer.port, "/v1/predict",
                        {"model": "demo", "nodes": [0]})
        head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 307")
        assert f"http://127.0.0.1:{owner.port}/v1/predict" in head
        assert peer.server.fleet_stats["redirected"] == 1

    def test_owner_death_fails_over_within_one_ttl(self, fleet, model, graph):
        """Kill the owner mid-traffic: the survivor first falls back locally
        (lease still live, socket dead), and once the lease expires no
        request maps to the dead replica at all — same bitwise scores
        throughout."""
        owner, peer = _split_by_ownership(fleet)
        nodes = [6, 0, 8]
        offline = model.decision_scores(graph, mode="private")[nodes]
        owner.kill()
        # Phase 1: the lease is still valid, so the survivor tries the owner,
        # hits the dead socket and serves locally.
        status, body = _post_predict(peer.port,
                                     {"model": "demo", "nodes": nodes})
        assert status == 200
        assert np.array_equal(np.asarray(body["scores"]), offline)
        assert peer.server.fleet_stats["failover_local"] == 1
        # Phase 2: past the TTL the dead lease is excluded from routing —
        # no proxy attempt, no request maps to the dead replica.
        deadline = time.time() + 4.0 * TTL
        while time.time() < deadline:
            view = FleetView(fleet["fleet_dir"])
            if [r.replica_id for r in view.route(fleet["digest"])] == \
                    [peer.member.replica_id]:
                break
            time.sleep(0.1)
        else:
            pytest.fail("dead lease never expired out of the routing table")
        proxied_before = peer.server.fleet_stats["proxied"]
        status, body = _post_predict(peer.port,
                                     {"model": "demo", "nodes": nodes})
        assert status == 200
        assert np.array_equal(np.asarray(body["scores"]), offline)
        assert peer.server.fleet_stats["proxied"] == proxied_before
        assert peer.server.fleet_stats["failover_local"] == 1  # unchanged

    def test_owner_answering_garbage_fails_over_locally(self, fleet, model,
                                                        graph, monkeypatch):
        """A peer that answers with something that is not HTTP is skipped
        like an unreachable one: the client gets a local 200 at once, not
        a proxy timeout."""
        _owner, peer = _split_by_ownership(fleet)
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10.0)

        def answer_garbage():
            with listener, listener.accept()[0] as sock:
                buf = b""
                while b"\r\n\r\n" not in buf:
                    buf += sock.recv(65536)
                head, _, body = buf.partition(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1]
                             .split()[0])
                while len(body) < length:  # read it all: no RST on close
                    body += sock.recv(65536)
                sock.sendall(b"garbage not http\r\n")

        threading.Thread(target=answer_garbage, daemon=True).start()
        owner_record = FleetView(fleet["fleet_dir"]).owner(fleet["digest"])
        garbage = dataclasses.replace(owner_record,
                                      port=listener.getsockname()[1])
        monkeypatch.setattr(peer.server.fleet, "peers_for",
                            lambda digest: [garbage])
        nodes = [5, 1]
        status, body = _post_predict(peer.port,
                                     {"model": "demo", "nodes": nodes},
                                     timeout=5.0)
        assert status == 200
        offline = model.decision_scores(graph, mode="private")[nodes]
        assert np.array_equal(np.asarray(body["scores"]), offline)
        assert peer.server.fleet_stats["failover_local"] == 1

    def test_pipelined_request_after_a_failover_error_is_answered(
            self, fleet, monkeypatch):
        """The local failover answers at once (a 400 here); the request
        already buffered behind it must still be served."""
        owner, peer = _split_by_ownership(fleet)
        dead = FleetView(fleet["fleet_dir"]).owner(fleet["digest"])
        owner.kill()
        monkeypatch.setattr(peer.server.fleet, "peers_for",
                            lambda digest: [dead])
        body = json.dumps({"model": "demo", "nodes": [10**6]}).encode()
        pipelined = (f"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n").encode() \
            + body + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(("127.0.0.1", peer.port),
                                      timeout=5.0) as sock:
            sock.sendall(pipelined)
            responses = _read_responses(sock, 2)
        assert [status for status, _ in responses] == [400, 200]
        assert "node indices" in json.loads(responses[0][1])["error"]
        assert peer.server.fleet_stats["failover_local"] == 1
