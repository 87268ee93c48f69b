"""The ``serve_read`` and ``serve_churn`` workloads: a ``repro serve``
process answering open-loop ``/v1/predict`` traffic for two GCON releases.

Set-up trains the two releases once, then — repeated, each time into a
fresh registry — publishes them, starts the server process and waits until
it has pre-warmed both models.  ``serve_read`` steps the arrival rate
through 50, 150 and 250 requests/s; ``serve_churn`` runs 50 and then 150
requests/s and adds one explicit 5-insert + 5-delete graph update per
second.  Every answer is compared bitwise with offline
``GCON.decision_scores``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from statistics import median

import numpy as np

from common import (
    ROOT,
    BenchmarkError,
    Metric,
    fresh_dir,
    percentile,
    pid_cpu_seconds,
    pid_peak_rss_mb,
    subprocess_env,
)
from layers import SpanRecorder, layer_totals, layer_unit, traced_layers
from loadgen import Call, run_phase

DATASET = "cora_ml"
RELEASES = (("alpha", 1.0, 0.8), ("beta", 4.0, 0.2))  # name, epsilon, traffic
SIZES = ((1, 0.80), (16, 0.15), (256, 0.05))          # nodes per request
# (rate in requests/s, share of --seconds) per phase.  serve_churn adds a
# light phase ahead of its 150 req/s phase: with updates stalling the
# server, the median at 150 req/s sits near a tipping point and moved from
# 9.8 to 12.8 ms between two sets of ten runs, so the gated median is taken
# at 50 req/s on both serve workloads.
READ_PLAN = ((50, 0.25), (150, 0.5), (250, 0.25))
CHURN_PLAN = ((50, 0.5), (150, 0.5))
MID_RATE = 150                       # the tracing-overhead comparison rate
UPDATE_PERIOD_S = 1.0
DELTA_EDGES = (5, 5)                                  # inserts, deletes
SLO_P99_MS = 50.0                                     # repro serve's default
LATE_LIMIT_MS = 10.0
WARMUP_S = 1.0
SETUP_REPEATS = 3
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))


# --------------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------------- #
class ServerProcess:
    """``python -m repro.cli serve`` on an ephemeral port, log in a file."""

    _ADDRESS = re.compile(rb"on http://([0-9.]+):(\d+)")

    def __init__(self, registry, log_path, *, trace: bool):
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--registry", str(registry), "--port", "0", "--quiet"]
        for name, _epsilon, _share in RELEASES:
            command += ["--model", f"{name}@latest"]
        if not trace:
            command.append("--no-trace")
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(command, stdout=self._log,
                                        stderr=subprocess.STDOUT,
                                        env=subprocess_env(), cwd=ROOT)
        self.address = None

    def wait_ready(self, timeout: float = 120.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = self._ADDRESS.search(self.log_path.read_bytes())
            if match:
                self.address = (match.group(1).decode(), int(match.group(2)))
                return self.address
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        tail = self.log_path.read_bytes()[-2000:].decode(errors="replace")
        raise BenchmarkError(f"server did not come up:\n{tail}")

    def get_json(self, path: str) -> dict:
        return json.loads(self.get(path))

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read().decode("utf-8")
        finally:
            conn.close()
        if response.status != 200:
            raise BenchmarkError(f"GET {path} answered {response.status}")
        return body

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #
def _train(graph, seed: int, scale: float, encoder_epochs: int) -> dict:
    from repro.core.model import GCON
    from repro.evaluation.figures import FigureSettings, default_gcon_config

    settings = FigureSettings(scale=scale, encoder_epochs=encoder_epochs)
    delta = 1.0 / max(graph.num_edges, 1)
    models = {}
    for index, (name, epsilon, _share) in enumerate(RELEASES):
        model = GCON(default_gcon_config(epsilon, delta, settings))
        models[name] = model.fit(graph, seed=seed * 7919 + index)
    return models


def _publish(registry_dir, models, seed: int, scale: float) -> list[float]:
    from repro.serving import ModelRegistry

    registry = ModelRegistry(registry_dir)
    seconds = []
    for name, model in models.items():
        start = time.perf_counter()
        registry.publish(model, name, inference_mode="private",
                         training={"dataset": DATASET, "scale": scale,
                                   "graph_seed": seed})
        seconds.append(time.perf_counter() - start)
    return seconds


def _offline_references(registry_dir, graph, seed: int, updates: int):
    """The seed's graph deltas and ``{name: [score matrix per epoch]}``.

    Each delta is sampled against, then applied to, an offline
    ``GraphStore``; every epoch's reference is offline
    ``GCON.decision_scores`` of the published release."""
    from repro.serving import GraphStore, ModelRegistry

    registry = ModelRegistry(registry_dir)
    loaded = {name: registry.load(f"{name}@latest") for name, _e, _s in RELEASES}
    store = GraphStore(graph)
    deltas, references = [], {name: [] for name in loaded}
    for epoch in range(updates + 1):
        if epoch:
            deltas.append(store.sample_delta(
                *DELTA_EDGES, seed=np.random.default_rng([seed, epoch - 1])))
            store.apply(deltas[-1])
        current = store.current()[1]
        for name, (model, record) in loaded.items():
            references[name].append(model.decision_scores(
                current, mode=record.inference_mode))
    return deltas, references


# --------------------------------------------------------------------------- #
# traffic
# --------------------------------------------------------------------------- #
def _predict_calls(rng, rate: float, duration: float, num_nodes: int):
    names = [name for name, _e, _s in RELEASES]
    shares = [share for _n, _e, share in RELEASES]
    sizes = [size for size, _p in SIZES]
    size_p = [p for _s, p in SIZES]
    calls, due = [], 0.0
    while True:
        due += rng.exponential(1.0 / rate)
        if due >= duration:
            return calls
        name = names[rng.choice(len(names), p=shares)]
        size = min(sizes[rng.choice(len(sizes), p=size_p)], num_nodes)
        nodes = rng.choice(num_nodes, size=size, replace=False).tolist()
        body = json.dumps({"model": name, "nodes": nodes}).encode()
        calls.append(Call("predict", due, "/v1/predict", body,
                          {"name": name, "nodes": nodes}))


def _update_calls(deltas, first: int, duration: float):
    """One update per period from ``deltas[first]`` on; the update that
    applies ``deltas[i]`` must answer with epoch ``i + 1``."""
    calls = []
    for index in range(first, len(deltas)):
        due = (index - first + 1) * UPDATE_PERIOD_S
        if due >= duration:
            break
        delta = deltas[index]
        body = json.dumps({"insert": [list(e) for e in delta.inserts],
                           "delete": [list(e) for e in delta.deletes]}).encode()
        calls.append(Call("update", due, "/v1/graph/update", body,
                          {"epoch": index + 1}))
    return calls


def _check_phase(phase, references, epoch: int = 0) -> list[str]:
    """Mark every wrong answer failed (status -1); return what was wrong.

    The graph is at ``epoch`` when the phase starts.  A predict is right if
    its scores equal, bitwise, the offline reference of an epoch that was
    current at some moment of its flight: at least the epochs of updates
    answered before it was sent, at most those of updates sent before its
    answer arrived.
    """
    updates = phase.by_kind("update")
    problems = []
    for call in updates:
        if call.ok and json.loads(call.response).get("epoch") != call.meta["epoch"]:
            call.status = -1
            problems.append(f"update {call.meta['epoch']} landed at another epoch")
    for call in phase.by_kind("predict"):
        if not call.ok:
            problems.append(f"predict answered {call.status}")
            continue
        low = epoch + sum(1 for u in updates
                          if u.done is not None and u.done <= call.sent)
        high = epoch + sum(1 for u in updates
                           if u.sent is not None and u.sent <= call.done)
        payload = json.loads(call.response)
        served = np.asarray(payload["scores"], dtype=np.float64)
        nodes = call.meta["nodes"]
        matches = any(
            served.shape == (len(nodes), matrix.shape[1])
            and np.array_equal(served.view(np.uint64),
                               np.ascontiguousarray(matrix[nodes]).view(np.uint64))
            for matrix in references[call.meta["name"]][low:high + 1])
        if not matches or not payload["model"].startswith(call.meta["name"] + "@"):
            call.status = -1
            problems.append(f"{call.meta['name']} nodes {nodes[:4]}… scores differ "
                            f"from every epoch in [{low}, {high}]")
    return problems


def _latency_ms(calls) -> list[float]:
    return [call.latency * 1e3 for call in calls if call.ok]


def _backlog_grew(phase, rate: float) -> bool:
    """Little's law over the last tenth of the phase: requests in flight per
    arrival rate is the mean time in the system; above the latency limit,
    the queue is growing (or the server saturated)."""
    tail = [count for at, count in phase.inflight if at >= 0.9 * phase.duration]
    return bool(tail) and sum(tail) / len(tail) / rate * 1e3 > SLO_P99_MS


# --------------------------------------------------------------------------- #
# server-side counters, read from outside
# --------------------------------------------------------------------------- #
def _histograms(before: str, after: str, metric: str) -> dict:
    """``{label items: (bounds, counts, count, sum)}`` of one Prometheus
    histogram family, recorded between two ``/metrics`` scrapes."""
    from repro.obs.prometheus import histogram_series, parse_prometheus_text

    old = histogram_series(parse_prometheus_text(before), metric)
    new = histogram_series(parse_prometheus_text(after), metric)
    empty = {"counts": [], "count": 0, "sum": 0.0}
    out = {}
    for key, data in new.items():
        was = old.get(key, empty)
        counts = [a - b for a, b in
                  zip(data["counts"], was["counts"] or [0] * len(data["counts"]))]
        out[key] = (data["bounds"], counts, data["count"] - was["count"],
                    data["sum"] - was["sum"])
    return out


def _stage_quantiles(before: str, after: str) -> dict:
    """``{stage: Histogram}`` of the trace spans recorded between scrapes."""
    from repro.serving.metrics import Histogram

    return {dict(key).get("stage"): Histogram(bounds).merge(counts)
            for key, (bounds, counts, _n, _s) in _histograms(
                before, after, "repro_stage_duration_seconds").items()}


def _batch_totals(before: str, after: str) -> tuple[float, float, float]:
    """``(batches, requests, rows)`` between scrapes, summed over every
    model label.  Read from the per-label histograms, which outlive a
    retired queue; the router's aggregate ``/stats`` counters drop a queue's
    counts when its session is evicted, as graph updates do."""
    tickets = _histograms(before, after, "repro_batch_tickets").values()
    rows = _histograms(before, after, "repro_batch_rows").values()
    return (int(sum(n for _b, _c, n, _s in tickets)),
            sum(total for _b, _c, _n, total in tickets),
            sum(total for _b, _c, _n, total in rows))


def _server_layers(stats_before, stats_after, metrics_before, metrics_after,
                   updates) -> list[Metric]:
    def delta(path):
        a, b = stats_before, stats_after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    stages = _stage_quantiles(metrics_before, metrics_after)

    def stage(name, q):
        histogram = stages.get(name)
        if histogram is None or histogram.count == 0:
            return 0.0, 0
        return histogram.quantile(q) * 1e3, histogram.count

    metrics = []
    for metric, name, q in (
            ("serving.httpd.parse_ms", "parse", 0.5),
            ("serving.service.admission_ms", "admission", 0.5),
            ("serving.httpd.render_ms", "render", 0.5),
            ("serving.batcher.queue_ms.p50", "queue", 0.5),
            ("serving.batcher.queue_ms.p99", "queue", 0.99),
            ("serving.batcher.batch_ms.p99", "batch", 0.99),
            ("serving.batcher.compute_ms.p99", "compute", 0.99)):
        value, count = stage(name, q)
        metrics.append(Metric(metric, value, "ms", count, "trace stage histogram"))

    batches, requests, rows = _batch_totals(metrics_before, metrics_after)
    hits = delta(("feature_cache", "feature_hits"))
    lookups = hits + delta(("feature_cache", "feature_misses"))
    recomputed = delta(("graph", "rows_recomputed"))
    reused = delta(("graph", "rows_reused"))
    slo = stats_after.get("slo", {}).get("models", {})
    # The busiest release's newest budget (labels carry the graph epoch).
    primary = sorted((label for label in slo if label.startswith("alpha@")),
                     key=lambda label: int(label.split(":g")[1].split(":")[0]))
    budget = slo[primary[-1]] if primary else {}
    metrics += [
        Metric("serving.batcher.requests_per_batch",
               requests / batches if batches else 0.0, "ratio", batches,
               "requests / batches"),
        Metric("serving.batcher.rows_per_batch",
               rows / batches if batches else 0.0, "ratio", batches,
               "rows / batches"),
        Metric("serving.batcher.batches", batches, "count"),
        Metric("serving.router.queues",
               len(stats_after["batcher"]["per_model_matmuls"]), "count"),
        Metric("serving.slo.shed", delta(("admission", "shed_total")), "count"),
        Metric("serving.slo.max_batch_size", budget.get("max_batch_size", 0),
               "rows", 1, "final AIMD budget of the 80% release"),
        Metric("serving.slo.max_latency_ms",
               budget.get("max_latency_seconds", 0.0) * 1e3, "ms", 1,
               "final AIMD budget of the 80% release"),
        Metric("serving.service.feature_hit_ratio",
               hits / lookups if lookups else 0.0, "ratio", lookups,
               "session lookups served from the feature LRU"),
        Metric("serving.service.feature_lookups", lookups, "count"),
        Metric("serving.service.rows_reused_ratio",
               reused / (reused + recomputed) if reused + recomputed else 0.0,
               "ratio", reused + recomputed, "rows reused / rows rebuilt"),
        Metric("serving.service.sessions_rebuilt_incremental",
               delta(("graph", "sessions_rebuilt_incremental")), "count"),
        Metric("serving.service.sessions_rebuilt_full",
               delta(("graph", "sessions_rebuilt_full")), "count"),
    ]
    timings = [json.loads(call.response)["timings_ms"]
               for call in updates if call.ok]
    for metric, key in (("serving.graphstore.apply_ms", "apply"),
                        ("core.propagation.repropagate_ms", "repropagate")):
        values = [t[key] for t in timings]
        metrics.append(Metric(metric, median(values) if values else 0.0, "ms",
                              len(values), "update response timings_ms"))
    return metrics


def _cold_load_ms(registry_dir) -> float:
    from repro.serving import InferenceService

    service = InferenceService(registry_dir)
    try:
        start = time.perf_counter()
        service.prewarm(f"{RELEASES[0][0]}@latest")
        return (time.perf_counter() - start) * 1e3
    finally:
        service.close()


# --------------------------------------------------------------------------- #
# the workloads
# --------------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float, trace: bool, *,
        scale: float = 1.0, encoder_epochs: int = 200) -> dict:
    from repro.graphs.datasets import load_dataset

    churn = workload == "serve_churn"
    graph = load_dataset(DATASET, scale=scale, seed=seed)
    recorder = SpanRecorder()
    if trace:
        with traced_layers(recorder):
            models = _train(graph, seed, scale, encoder_epochs)
    else:
        models = _train(graph, seed, scale, encoder_epochs)
    training_spans = recorder.take()

    servers = []
    try:
        setup, publish = [], []
        for repeat in range(SETUP_REPEATS):
            registry_dir = fresh_dir(f"registry{repeat}")
            # The last server carries the measured traffic; in the traced
            # run it traces, and the one before it stays up untraced to
            # measure the tracing overhead.
            traced_server = trace and repeat == SETUP_REPEATS - 1
            start = time.perf_counter()
            publish += _publish(registry_dir, models, seed, scale)
            server = ServerProcess(registry_dir, registry_dir / "server.log",
                                   trace=traced_server)
            servers.append(server)
            server.wait_ready()
            setup.append(time.perf_counter() - start)
            keep = (repeat == SETUP_REPEATS - 1
                    or (trace and not churn and repeat == SETUP_REPEATS - 2))
            if not keep:
                server.stop()
        server = servers[-1]

        deltas, references = _offline_references(
            registry_dir, graph, seed,
            int(seconds / UPDATE_PERIOD_S) + 1 if churn else 0)
        num_nodes = graph.num_nodes

        checked = []  # every phase's calls, warm-ups included
        applied = [0]  # graph updates sent to the measured server so far

        def phase(stream, target, rate, duration, with_updates=False):
            # Each stream of arrivals has its own generator, so the measured
            # traffic of a seed is the same in the traced and untraced runs.
            rng = np.random.default_rng([seed, stream])
            predicts = _predict_calls(rng, rate, duration, num_nodes)
            updates = (_update_calls(deltas, applied[0], duration)
                       if with_updates else [])
            result = run_phase(target.address, predicts, updates, duration,
                               connections=CONNECTIONS)
            checked.append((result, _check_phase(result, references, applied[0])))
            applied[0] += len(updates)
            return result

        m = {"setup": setup, "publish": publish, "checked": checked,
             "registry_dir": registry_dir, "overhead_base": None,
             "training_spans": training_spans}
        if trace and not churn:
            untraced = servers[-2]
            phase(0, untraced, MID_RATE, WARMUP_S)
            m["overhead_base"] = phase(2, untraced, MID_RATE,
                                       seconds * dict(READ_PLAN)[MID_RATE])
            untraced.stop()

        phase(1, server, MID_RATE, WARMUP_S)  # warm-up, not timed
        m["stats_before"] = server.get_json("/stats")
        m["metrics_before"] = server.get("/metrics") if trace else ""
        cpu_before = pid_cpu_seconds(server.process.pid)
        plan = [(rate, seconds * share, churn)
                for rate, share in (CHURN_PLAN if churn else READ_PLAN)]
        m["phases"] = [(rate, phase(stream, server, rate, duration, updates))
                       for stream, (rate, duration, updates) in enumerate(plan, 10)]
        m["cpu"] = pid_cpu_seconds(server.process.pid) - cpu_before
        m["stats_after"] = server.get_json("/stats")
        m["metrics_after"] = server.get("/metrics") if trace else ""
        m["peak_rss"] = pid_peak_rss_mb(server.process.pid)
    finally:
        for server in servers:
            server.stop()
    return _report(m, churn=churn, trace=trace, encoder_epochs=encoder_epochs)


def _report(m: dict, *, churn: bool, trace: bool, encoder_epochs: int) -> dict:
    # Failures count over every phase, warm-ups included; timings only over
    # the measured phases.
    attempted = sum(len(result.calls) for result, _p in m["checked"])
    failed = sum(1 for result, _p in m["checked"]
                 for call in result.calls if not call.ok)
    notes = [note for _result, problems in m["checked"] for note in problems]
    answered = 0
    detail, loadgen = [], {"sent": 0, "ok": 0, "failed": 0}
    lateness = []
    max_ok = 0
    by_rate = {}
    for rate, result in m["phases"]:
        predicts = result.by_kind("predict")
        calls = result.calls
        ok = sum(1 for call in calls if call.ok)
        sent = sum(1 for call in calls if call.sent is not None)
        answered += sum(1 for call in calls if call.done is not None)
        loadgen["sent"] += sent
        loadgen["ok"] += ok
        loadgen["failed"] += len(calls) - ok
        lateness += result.lateness
        latency = _latency_ms(predicts) or [0.0]  # 0 only if every call failed
        late_p99 = percentile(result.lateness, 99) * 1e3 if result.lateness else 0.0
        p50, p99 = median(latency), percentile(latency, 99)
        by_rate[rate] = (p50, len(latency))
        backlog = _backlog_grew(result, rate)
        valid = ok == len(calls) and not backlog and late_p99 <= LATE_LIMIT_MS
        if valid and p99 <= SLO_P99_MS:
            max_ok = max(max_ok, rate)
        detail += [
            Metric(f"predict_p50_ms.r{rate}", p50, "ms", len(latency)),
            Metric(f"predict_p99_ms.r{rate}", p99, "ms", len(latency)),
            Metric(f"loadgen.r{rate}.sent", sent, "count"),
            Metric(f"loadgen.r{rate}.failed", len(calls) - ok, "count"),
            Metric(f"loadgen.r{rate}.late_p99_ms", late_p99, "ms",
                   len(result.lateness)),
            Metric(f"loadgen.r{rate}.backlog_grew", int(backlog), "bool"),
        ]
    if churn:
        updates = [call.latency * 1e3 for _rate, result in m["phases"]
                   for call in result.by_kind("update") if call.ok]
        detail.append(Metric("update_p50_ms", median(updates) if updates else 0.0,
                             "ms", len(updates)))
    else:
        detail.append(Metric("max_rate_ok_rps", max_ok, "1/s", len(m["phases"]),
                             f"highest rate with p99 <= {SLO_P99_MS:g} ms, no "
                             f"failures, no backlog, generator on time"))

    # The gated median is taken at the lightest rate (see READ_PLAN): at
    # 150 req/s the two pipelined connections queue behind each other, and
    # the median swings with CPU contention from outside the benchmark.
    light = min(by_rate)
    p50, samples = by_rate[light]
    end_to_end = [
        Metric("setup_s", median(m["setup"]), "s", len(m["setup"]),
               "publish two releases + server start until pre-warmed"),
        Metric("peak_rss_mb", m["peak_rss"], "MB", 1, "server process VmHWM"),
        Metric("op_p50_ms", p50, "ms", samples,
               f"/v1/predict at {light} req/s, from due time"),
        Metric("op_cpu_ms", m["cpu"] / max(answered, 1) * 1e3, "ms", answered,
               "server CPU per answered request"),
    ]

    layers = []
    if trace:
        updates = [call for _rate, result in m["phases"]
                   for call in result.by_kind("update")]
        layers = _server_layers(m["stats_before"], m["stats_after"],
                                m["metrics_before"], m["metrics_after"], updates)
        training = layer_totals(m["training_spans"])
        layers += [Metric(name, value / len(RELEASES), layer_unit(name),
                          len(RELEASES), "set-up training, per release")
                   for name, value in training.items()
                   if not name.startswith("runtime.")]
        fit = training["core.encoder.fit_s"] / len(RELEASES)
        layers += [
            Metric("serving.registry.publish_s", median(m["publish"]), "s",
                   len(m["publish"]), "per release"),
            Metric("serving.registry.cold_load_ms",
                   _cold_load_ms(m["registry_dir"]),
                   "ms", 1, "InferenceService.prewarm on a fresh service"),
            Metric("core.encoder.step_ms", fit / encoder_epochs * 1e3, "ms",
                   len(RELEASES)),
            Metric("loadgen.sent", loadgen["sent"], "count"),
            Metric("loadgen.ok", loadgen["ok"], "count"),
            Metric("loadgen.failed", loadgen["failed"], "count"),
            Metric("loadgen.late_p99_ms",
                   percentile(lateness, 99) * 1e3 if lateness else 0.0, "ms",
                   len(lateness)),
        ]
        if m["overhead_base"] is not None:
            base = median(_latency_ms(m["overhead_base"].by_kind("predict")))
            traced_p50, samples = by_rate[MID_RATE]
            layers.append(Metric("obs.trace_overhead_ms", traced_p50 - base, "ms",
                                 samples,
                                 f"traced p50 minus untraced p50 at {MID_RATE} req/s"))
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "end_to_end": end_to_end, "detail": detail, "layers": layers}
