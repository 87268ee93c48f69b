"""Bitwise pins of the ``repro.nn`` training hot path.

The encoder fit is the bulk of every GCON epsilon-sweep group, so the autograd
engine and the optimizers are tuned for speed.  Every such change must leave
the trained weights bit for bit where they were.  These tests are the gate:

* SHA-256 pins of a full ``MLPEncoder`` fit and of a ``train_full_batch``
  (baseline) fit on ``cora_ml`` at scale 1.0.  The digests were recorded
  before the hot path was tuned and must never be edited to make a change
  pass.  They depend on the BLAS kernel (recorded with OpenBLAS 0.3.31,
  Haswell kernels, x86-64); a different BLAS build may round matmuls
  differently and needs its own reference run of the untuned code.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.mlp import MLPClassifier
from repro.core.encoder import MLPEncoder
from repro.graphs.datasets import load_dataset


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        sha.update(repr(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def cora_ml():
    return load_dataset("cora_ml", scale=1.0, seed=0)


ENCODER_PINS = {
    0: ("7d266441270ffa218ecfe95a96924e05b03f407b99b91d95eb96cc22510ec4c3",
        "cfb192141362195fa374f498cdbd9c7f766d96dc48f863e6e58224e94bdfbd5b"),
    1: ("d633af1d8e10bee60a35e052c3bbdb64284fe664fae2f93173c1cdd56c510aeb",
        "82f94dafee9aeac41511281998991d47ccb5983cf8528714f8f906d8066cb6de"),
}

BASELINE_PIN = ("cccd524f87d52a3fd1edbfcf88eb8f5f37ec3748fd6f5d3d21e60fee5b094fa5",
                "47aa4a56e5bd759f0bc53c5716832d163d0fd58e356724aa26bed345af2f7569")


@pytest.mark.parametrize("seed", sorted(ENCODER_PINS))
def test_mlp_encoder_fit_is_pinned(cora_ml, seed):
    encoder = MLPEncoder(seed=seed).fit(cora_ml.features, cora_ml.labels,
                                        cora_ml.train_idx)
    encoded = _digest(encoder.encode(cora_ml.features))
    history = _digest(np.asarray(encoder.history_))
    assert (encoded, history) == ENCODER_PINS[seed]


def test_baseline_adam_fit_is_pinned(cora_ml):
    model = MLPClassifier(epochs=20).fit(cora_ml, seed=0)
    scores = _digest(model.decision_scores(cora_ml))
    history = _digest(np.asarray(model.history_))
    assert (scores, history) == BASELINE_PIN
