"""From sweep artefact to HTTP endpoint: the serving data plane end to end.

The paper's deliverable is a *released* model: once the perturbed Θ_priv is
published, answering queries is pure post-processing — no privacy budget is
spent at inference time, however much traffic arrives.  This tour walks the
full production path on a scaled-down graph:

1. **train** a GCON release (ε = 2 edge-DP);
2. **publish** it into a content-addressed model registry — an atomic,
   versioned bundle of theta + encoder weights + a manifest carrying the
   privacy stamp (ε, δ, mechanism) and the serving configuration;
3. **serve** it over the stdlib HTTP JSON API, where concurrently arriving
   queries are micro-batched into one stacked matmul per model over an LRU
   cache of propagated features;
4. **verify** that what the server answers is bitwise identical to offline
   ``GCON.decision_scores`` — batching and caching change latency, never
   numbers.

The CLI equivalent (after a ``repro sweep --output results/sweep.jsonl``):

    repro publish --store results/sweep.jsonl --registry results/registry \
        --name cora-gcon --datasets cora_ml --methods GCON,MLP \
        --epsilons 0.5,1,2,4
    repro serve --registry results/registry --model cora-gcon@latest

    curl -s -X POST http://127.0.0.1:8151/v1/predict \
        -d '{"model": "cora-gcon@latest", "nodes": [0, 1, 2], "top_k": 2}'

Run with:  python examples/serving_quickstart.py [--scale 0.1]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import threading
import urllib.request

import numpy as np

from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.graphs.datasets import load_dataset
from repro.serving import InferenceService, ModelRegistry, serve_http


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1,
                        help="graph down-scaling factor in (0, 1]")
    parser.add_argument("--epsilon", type=float, default=2.0)
    args = parser.parse_args()

    # 1. Train a release.
    graph = load_dataset("cora_ml", scale=args.scale, seed=0)
    config = GCONConfig(epsilon=args.epsilon, alpha=0.8, encoder_epochs=60,
                        use_pseudo_labels=True)
    model = GCON(config).fit(graph, seed=0)
    epsilon, delta = model.privacy_spent
    print(f"trained GCON on {graph.name} (n={graph.num_nodes}): "
          f"epsilon={epsilon:g}, delta={delta:.3g}, "
          f"test micro-F1={model.score(graph):.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        # 2. Publish into a registry.
        registry = ModelRegistry(f"{tmp}/registry")
        record = registry.publish(model, "cora-gcon",
                                  training={"dataset": "cora_ml",
                                            "scale": args.scale,
                                            "graph_seed": 0})
        print(f"published {record.ref}")
        print(f"  manifest privacy stamp: {record.manifest['privacy']}")
        registry.verify("cora-gcon@latest")
        print("  integrity verified (stored archive hashes to the manifest digest)")

        # 3. Serve over HTTP (ephemeral port) and fire concurrent queries.
        service = InferenceService(registry, graph=graph)
        server = serve_http(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        port = server.server_address[1]
        print(f"serving on http://127.0.0.1:{port}")

        def query(nodes):
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/predict",
                data=json.dumps({"model": "cora-gcon@latest",
                                 "nodes": nodes}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request) as response:
                return json.loads(response.read())

        answers = [None] * 24
        threads = [threading.Thread(
            target=lambda i=i: answers.__setitem__(i, query([i])))
            for i in range(24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # 4. Served == offline, bit for bit.
        offline = model.decision_scores(graph, mode="private")
        for i, answer in enumerate(answers):
            assert np.array_equal(np.array(answer["scores"]), offline[[i]]), i
        stats = service.stats()
        batcher = stats["batcher"]
        print(f"24 concurrent single-node queries answered with "
              f"{batcher['matmuls']} matmul(s) "
              f"({batcher['coalesced_requests']} coalesced); "
              f"all bitwise identical to offline inference")
        print(f"feature cache: {stats['feature_cache']}")

        server.shutdown()
        server.server_close()
        service.close()


if __name__ == "__main__":
    main()
