"""Bitwise pins of the batched edge-delta path.

Every graph edit goes through :func:`repro.graphs.adjacency.apply_edge_delta`:
live serving updates (``GraphStore.apply``), the DP neighbouring pairs
(``with_edge`` / ``without_edge``) and the bulk perturbations.  It checks a
whole batch against the current CSR and builds ``A + Δ`` in one sparse add.
It replaced one ``lil_matrix`` round trip per edge, which survives only here,
as the reference every result must equal bit for bit: the canonical CSR
arrays (values and dtypes) and therefore every ``graph_fingerprint`` and
epoch digest.  The samplers are pinned the same way against the per-edge
loops they replaced, so a seed keeps naming the same edges.

``per_edge_delta`` and ``per_edge_graph`` are also the reference side of the
apply-stage table in ``benchmarks/bench_graph_update.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.propagation import graph_fingerprint
from repro.exceptions import GraphDataError
from repro.graphs.adjacency import apply_edge_delta
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import GraphDataset
from repro.graphs.perturbations import (
    add_random_edges,
    remove_random_edges,
    rewire_edges,
)
from repro.serving import EdgeDelta, GraphStore
from repro.utils.random import as_rng

SEEDS = (0, 1, 2)
KINDS = ("insert", "delete", "mixed")
SIZES = (1, 5, 50)


# ---------------------------------------------------------------------- #
# the per-edge reference
# ---------------------------------------------------------------------- #
def _lil_remove(adjacency, u, v):
    matrix = sp.lil_matrix(adjacency, dtype=np.float64)
    if matrix[u, v] == 0:
        raise GraphDataError(f"edge ({u}, {v}) is not present")
    matrix[u, v] = 0.0
    matrix[v, u] = 0.0
    out = matrix.tocsr()
    out.eliminate_zeros()
    return out


def _lil_add(adjacency, u, v):
    matrix = sp.lil_matrix(adjacency, dtype=np.float64)
    if matrix[u, v] != 0:
        raise GraphDataError(f"edge ({u}, {v}) is already present")
    matrix[u, v] = 1.0
    matrix[v, u] = 1.0
    return matrix.tocsr()


def per_edge_delta(adjacency, inserts=(), deletes=()):
    for u, v in inserts:
        adjacency = _lil_add(adjacency, int(u), int(v))
    for u, v in deletes:
        adjacency = _lil_remove(adjacency, int(u), int(v))
    return adjacency


def _ref_with_edge(graph, u, v):
    return replace(graph, adjacency=_lil_add(graph.adjacency, u, v))


def _ref_without_edge(graph, u, v):
    return replace(graph, adjacency=_lil_remove(graph.adjacency, u, v))


def per_edge_graph(graph, inserts=(), deletes=()):
    """What ``GraphStore.apply`` did per batch: one ``lil_matrix`` round trip
    and one ``validate()`` per edge."""
    for u, v in inserts:
        graph = _ref_with_edge(graph, int(u), int(v))
    for u, v in deletes:
        graph = _ref_without_edge(graph, int(u), int(v))
    return graph


def _ref_sample_absent_edge(graph, rng):
    n = graph.num_nodes
    if graph.num_edges >= n * (n - 1) // 2:
        raise GraphDataError("the graph is complete; no absent edge exists")
    while True:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        u, v = (u, v) if u < v else (v, u)
        if graph.adjacency[u, v] == 0:
            return u, v


def _ref_sample_present_edge(graph, rng):
    edges = graph.edges()
    index = int(rng.integers(0, edges.shape[0]))
    return int(edges[index, 0]), int(edges[index, 1])


def _ref_sample_delta(graph, inserts, deletes, seed):
    rng = as_rng(seed)
    added, insert_edges = graph, []
    for _ in range(inserts):
        u, v = _ref_sample_absent_edge(added, rng)
        added = _ref_with_edge(added, u, v)
        insert_edges.append((u, v))
    removed, delete_edges = graph, []
    for _ in range(deletes):
        u, v = _ref_sample_present_edge(removed, rng)
        removed = _ref_without_edge(removed, u, v)
        delete_edges.append((u, v))
    return insert_edges, delete_edges


def _ref_remove_random_edges(graph, fraction, seed):
    rng = as_rng(seed)
    edges = graph.edges()
    chosen = rng.choice(edges.shape[0], size=int(round(fraction * edges.shape[0])),
                        replace=False)
    for index in chosen:
        graph = _ref_without_edge(graph, int(edges[index, 0]), int(edges[index, 1]))
    return graph


def _ref_add_random_edges(graph, count, seed):
    rng = as_rng(seed)
    for _ in range(count):
        graph = _ref_with_edge(graph, *_ref_sample_absent_edge(graph, rng))
    return graph


def _ref_rewire_edges(graph, fraction, seed):
    """The per-edge rewire; also counts replacements that re-drew an edge
    removed earlier in the same call."""
    rng = as_rng(seed)
    edges = graph.edges()
    chosen = rng.choice(edges.shape[0], size=int(round(fraction * edges.shape[0])),
                        replace=False)
    removed, redrawn = set(), 0
    for index in chosen:
        edge = (int(edges[index, 0]), int(edges[index, 1]))
        graph = _ref_without_edge(graph, *edge)
        removed.add(edge)
        new_edge = _ref_sample_absent_edge(graph, rng)
        redrawn += new_edge in removed
        graph = _ref_with_edge(graph, *new_edge)
    return graph, redrawn


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def _assert_same_csr(actual, expected):
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert actual.shape == expected.shape
    assert graph_fingerprint(actual) == graph_fingerprint(expected)


def _random_batch(graph, kind, size, seed):
    """``size`` inserts and/or deletes valid against ``graph``; about half of
    the edges are given as (v, u)."""
    rng = np.random.default_rng(seed)
    inserts, deletes = [], []
    if kind in ("insert", "mixed"):
        taken = set()
        while len(inserts) < size:
            u, v = (int(x) for x in rng.integers(0, graph.num_nodes, 2))
            edge = (min(u, v), max(u, v))
            if u != v and edge not in taken and graph.adjacency[u, v] == 0:
                taken.add(edge)
                inserts.append((u, v))
    if kind in ("delete", "mixed"):
        edges = graph.edges()
        for index in rng.choice(edges.shape[0], size=size, replace=False):
            u, v = (int(x) for x in edges[index])
            deletes.append((v, u) if rng.random() < 0.5 else (u, v))
    return inserts, deletes


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora_ml", scale=0.3, seed=0)


# ---------------------------------------------------------------------- #
# apply_edge_delta
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_apply_edge_delta_equals_per_edge_reference(graph, seed, kind, size):
    inserts, deletes = _random_batch(graph, kind, size, seed)
    _assert_same_csr(apply_edge_delta(graph.adjacency, inserts, deletes),
                     per_edge_delta(graph.adjacency, inserts, deletes))


def test_index_dtype_follows_contents_like_the_reference(graph):
    wide = graph.adjacency.copy()
    wide.indices = wide.indices.astype(np.int64)
    wide.indptr = wide.indptr.astype(np.int64)
    inserts, deletes = _random_batch(graph, "mixed", 5, seed=3)
    out = apply_edge_delta(wide, inserts, deletes)
    _assert_same_csr(out, per_edge_delta(wide, inserts, deletes))
    assert out.indices.dtype == np.int32


def test_empty_delta_is_a_canonical_copy(graph):
    out = apply_edge_delta(graph.adjacency)
    assert out is not graph.adjacency
    _assert_same_csr(out, graph.adjacency)


@pytest.mark.parametrize("inserts, deletes, fragment", [
    ([(0, 10**6)], [], "out of range"),
    ([], [(-1, 3)], "out of range"),
    ([(4, 4)], [], "self-loop"),
    ("absent", "absent", "twice"),
    ([(1, 2), (2, 1)], [], "twice"),
    ("present", [], "already present"),
    ([], "absent", "not present"),
    ("present", "present", "twice"),
    ([(1, 2, 3)], [], "shape"),
])
def test_invalid_batches_raise_and_leave_the_input_alone(graph, inserts,
                                                         deletes, fragment):
    edges = {"present": [tuple(int(x) for x in graph.edges()[0])],
             "absent": _random_batch(graph, "insert", 1, seed=0)[0]}
    inserts, deletes = (edges[half] if isinstance(half, str) else half
                        for half in (inserts, deletes))
    before = graph_fingerprint(graph.adjacency)
    with pytest.raises(GraphDataError, match=fragment):
        apply_edge_delta(graph.adjacency, inserts, deletes)
    assert graph_fingerprint(graph.adjacency) == before


def test_with_edges_validates_once_per_batch(graph, monkeypatch):
    calls = []
    original = GraphDataset.validate
    monkeypatch.setattr(GraphDataset, "validate",
                        lambda self: calls.append(1) or original(self))
    inserts, deletes = _random_batch(graph, "mixed", 50, seed=4)
    graph.with_edges(inserts, deletes)
    assert len(calls) == 1


# ---------------------------------------------------------------------- #
# GraphStore
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("inserts, deletes", [(5, 5), (1, 0), (0, 3), (24, 24)])
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_delta_draws_the_per_edge_loop_edges(graph, seed, inserts, deletes):
    delta = GraphStore(graph).sample_delta(inserts, deletes, seed=seed)
    want_inserts, want_deletes = _ref_sample_delta(graph, inserts, deletes, seed)
    assert list(delta.inserts) == want_inserts
    assert list(delta.deletes) == want_deletes


def test_epoch_digests_equal_the_per_edge_path(graph):
    store = GraphStore(graph)
    reference = graph.adjacency
    for seed in SEEDS:
        delta = store.sample_delta(5, 5, seed=seed)
        entry = store.apply(delta)
        reference = per_edge_delta(reference, delta.inserts, delta.deletes)
        assert entry["digest"] == graph_fingerprint(reference)
        _assert_same_csr(store.current()[1].adjacency, reference)


def test_out_of_range_update_is_rejected_and_the_epoch_stays(graph):
    store = GraphStore(graph)
    digest = store.digest
    with pytest.raises(GraphDataError, match="out of range"):
        store.apply(EdgeDelta([(0, graph.num_nodes)]))
    assert store.epoch == 0
    assert store.digest == digest
    assert store.delta_log() == []


# ---------------------------------------------------------------------- #
# bulk perturbations
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_remove_random_edges_equals_per_edge_reference(graph, seed):
    _assert_same_csr(remove_random_edges(graph, 0.02, rng=seed).adjacency,
                     _ref_remove_random_edges(graph, 0.02, seed).adjacency)


@pytest.mark.parametrize("seed", SEEDS)
def test_add_random_edges_equals_per_edge_reference(graph, seed):
    _assert_same_csr(add_random_edges(graph, 20, rng=seed).adjacency,
                     _ref_add_random_edges(graph, 20, seed).adjacency)


@pytest.mark.parametrize("seed", SEEDS)
def test_rewire_edges_equals_per_edge_reference(graph, seed):
    expected, _redrawn = _ref_rewire_edges(graph, 0.02, seed)
    _assert_same_csr(rewire_edges(graph, 0.02, rng=seed).adjacency,
                     expected.adjacency)


def test_rewire_counts_a_just_removed_edge_as_absent(path_graph):
    """Rewiring every edge of a 6-node path often re-draws an edge removed
    a moment before; the batch must land on the per-edge graph anyway."""
    redrawn_total = 0
    for seed in range(20):
        expected, redrawn = _ref_rewire_edges(path_graph, 1.0, seed)
        redrawn_total += redrawn
        _assert_same_csr(rewire_edges(path_graph, 1.0, rng=seed).adjacency,
                         expected.adjacency)
    assert redrawn_total > 0
