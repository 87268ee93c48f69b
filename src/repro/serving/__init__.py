"""The serving data plane: registry, per-model batching and the HTTP API.

Once Θ_priv is released, inference is pure post-processing — no privacy
budget is spent answering queries — so serving is an ordinary data plane:

* :mod:`repro.serving.registry` — a content-addressed, filesystem-backed
  model registry (`publish` / `resolve` / `verify`), turning sweep artefacts
  or live :class:`~repro.core.model.GCON` instances into versioned bundles;
* :mod:`repro.serving.batcher` — a work-conserving micro-batching request
  queue that stacks the queries waiting behind an in-flight matmul into the
  next one, up to a fixed row cap;
* :mod:`repro.serving.router` — one batch queue **per model version** (own
  forming batch, own dispatch thread), so mixed traffic never head-of-line
  blocks across models;
* :mod:`repro.serving.metrics` — per-model latency histograms
  (fixed log-spaced buckets, p50/p95/p99), batch-size and queue-depth
  distributions — the ``/stats`` payload;
* :mod:`repro.serving.service` — the :class:`InferenceService` control room
  over an LRU of propagated-feature sessions;
* :mod:`repro.serving.httpd` — a single-threaded ``selectors``-based HTTP
  frontend (keep-alive, bounded connections, graceful drain) that parks
  connections on batch tickets instead of blocking a thread per request;
* :mod:`repro.serving.slo` — the :class:`SloController` that charges each
  model's latency windows against a target-p99 error budget, and the
  :class:`OverloadedError` admission-control signal (queue-depth load
  shedding → HTTP 429 with ``Retry-After``);
* :mod:`repro.serving.hashring` + :mod:`repro.serving.fleet` — the
  replica-sharded fleet: membership via heartbeat leases on a shared
  directory, a consistent-hash ring routing each model digest to the
  replica whose session cache is hot, and a registry watcher that
  pre-warms a flipped ``@latest`` before retiring the old version.
"""

from repro.serving.batcher import BatchStats, MicroBatcher
from repro.serving.fleet import (
    FleetMember,
    FleetRouter,
    FleetStatus,
    FleetView,
    RegistryWatcher,
    Replica,
    default_replica_id,
    watch_models,
)
from repro.serving.graphstore import EdgeDelta, GraphStore
from repro.serving.hashring import HashRing
from repro.serving.httpd import SelectorHTTPServer, serve_http
from repro.serving.metrics import Histogram, ModelMetrics, ServingMetrics
from repro.serving.registry import ModelRecord, ModelRegistry, parse_model_ref
from repro.serving.router import ModelRouter
from repro.serving.service import (
    InferenceService,
    PredictRequest,
    format_prediction,
    format_prediction_body,
    parse_graph_update_payload,
    parse_predict_payload,
    render_scores_json,
)
from repro.serving.slo import OverloadedError, SloController

__all__ = [
    "BatchStats",
    "EdgeDelta",
    "FleetMember",
    "FleetRouter",
    "FleetStatus",
    "FleetView",
    "GraphStore",
    "HashRing",
    "Histogram",
    "InferenceService",
    "MicroBatcher",
    "ModelMetrics",
    "ModelRecord",
    "ModelRegistry",
    "ModelRouter",
    "OverloadedError",
    "PredictRequest",
    "RegistryWatcher",
    "Replica",
    "SelectorHTTPServer",
    "ServingMetrics",
    "SloController",
    "default_replica_id",
    "format_prediction",
    "format_prediction_body",
    "parse_graph_update_payload",
    "parse_model_ref",
    "parse_predict_payload",
    "render_scores_json",
    "serve_http",
    "watch_models",
]
