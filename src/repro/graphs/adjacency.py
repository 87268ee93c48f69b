"""Adjacency-matrix construction and normalisation utilities.

The paper's propagation uses the row-stochastic normalisation
``Ã = D^{-1}(A + I)`` (Section IV-C2 with r = 0); the non-private GCN
baseline uses the symmetric normalisation ``D^{-1/2}(A + I)D^{-1/2}`` of Kipf
& Welling.  Both are provided here, along with the edge-delta helpers used
to construct edge-level neighbouring graphs and to apply live graph updates.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphDataError


def build_adjacency(edge_list: np.ndarray, num_nodes: int) -> sp.csr_matrix:
    """Build a symmetric binary adjacency matrix from an undirected edge list.

    Parameters
    ----------
    edge_list:
        Array of shape ``(m, 2)``; each row is an undirected edge.  Duplicate
        edges and both orientations are tolerated; self-loops are rejected.
    num_nodes:
        Number of nodes ``n``.
    """
    edge_list = np.asarray(edge_list, dtype=np.int64)
    if edge_list.size == 0:
        return sp.csr_matrix((num_nodes, num_nodes), dtype=np.float64)
    if edge_list.ndim != 2 or edge_list.shape[1] != 2:
        raise GraphDataError(f"edge_list must have shape (m, 2), got {edge_list.shape}")
    if np.any(edge_list < 0) or np.any(edge_list >= num_nodes):
        raise GraphDataError("edge_list contains out-of-range node indices")
    if np.any(edge_list[:, 0] == edge_list[:, 1]):
        raise GraphDataError("edge_list must not contain self-loops")
    rows = np.concatenate([edge_list[:, 0], edge_list[:, 1]])
    cols = np.concatenate([edge_list[:, 1], edge_list[:, 0]])
    data = np.ones(rows.shape[0], dtype=np.float64)
    adjacency = sp.coo_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes)).tocsr()
    # Collapse duplicates to binary entries.
    adjacency.data[:] = 1.0
    adjacency.sum_duplicates()
    adjacency.data[:] = 1.0
    return adjacency


def add_self_loops(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Return ``A + I`` (the paper's ``Â``)."""
    n = adjacency.shape[0]
    return (sp.csr_matrix(adjacency) + sp.identity(n, format="csr")).tocsr()


def row_stochastic_normalize(adjacency: sp.spmatrix, add_loops: bool = True) -> sp.csr_matrix:
    """Row-stochastic message-passing matrix ``Ã = D^{-1}(A + I)``.

    This is the ``r = 0`` normalisation used by GCON (Section IV-C2): every
    row sums to one, which is the property Lemma 1 relies on.
    """
    matrix = add_self_loops(adjacency) if add_loops else sp.csr_matrix(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv[nonzero] = 1.0 / degrees[nonzero]
    return sp.diags(inv).dot(matrix).tocsr()


def symmetric_normalize(adjacency: sp.spmatrix, add_loops: bool = True) -> sp.csr_matrix:
    """Symmetric normalisation ``D^{-1/2}(A + I)D^{-1/2}`` (Kipf & Welling GCN)."""
    matrix = add_self_loops(adjacency) if add_loops else sp.csr_matrix(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
    diag = sp.diags(inv_sqrt)
    return diag.dot(matrix).dot(diag).tocsr()


def general_normalize(adjacency: sp.spmatrix, r: float, add_loops: bool = True) -> sp.csr_matrix:
    """General normalisation ``D^{r-1}(A + I)D^{-r}`` with ``r`` in ``[0, 1]``.

    ``r = 0`` recovers :func:`row_stochastic_normalize` and ``r = 0.5`` the
    symmetric normalisation.
    """
    if not 0.0 <= r <= 1.0:
        raise GraphDataError(f"r must be in [0, 1], got {r}")
    matrix = add_self_loops(adjacency) if add_loops else sp.csr_matrix(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        left = np.where(degrees > 0, degrees ** (r - 1.0), 0.0)
        right = np.where(degrees > 0, degrees ** (-r), 0.0)
    return sp.diags(left).dot(matrix).dot(sp.diags(right)).tocsr()


def _edge_array(edges, verb: str, n: int) -> np.ndarray:
    """Check an edge batch against ``n`` nodes; return it as ``(k, 2)`` with u < v."""
    array = np.asarray(edges, dtype=np.int64)
    if array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise GraphDataError(f"edges to {verb} must have shape (k, 2), got {array.shape}")
    bad = np.flatnonzero(((array < 0) | (array >= n)).any(axis=1))
    if bad.size:
        u, v = array[bad[0]]
        raise GraphDataError(f"cannot {verb} edge ({u}, {v}): node id out of range [0, {n})")
    loops = np.flatnonzero(array[:, 0] == array[:, 1])
    if loops.size:
        raise GraphDataError(f"cannot {verb} a self-loop: u == v == {array[loops[0], 0]}")
    return np.sort(array, axis=1)


def apply_edge_delta(adjacency: sp.spmatrix, inserts=(), deletes=()) -> sp.csr_matrix:
    """Return a copy of ``adjacency`` with a batch of undirected edges inserted
    and deleted.

    The whole batch is checked against ``adjacency`` before anything is built:
    node ids in range, no self-loops, no edge twice in one half, no edge in
    both halves, no insert of a present edge, no delete of an absent one.  Any
    failure raises :class:`GraphDataError`.  The result is ``A + Δ`` from one
    sparse add, where ``Δ`` holds +1 (insert) or -1 (delete) at both
    orientations of every edge, in canonical CSR form (no stored zeros,
    sorted indices, the smallest index dtype that fits): the same arrays,
    bit for bit, as applying the edges one at a time.
    """
    matrix = sp.csr_matrix(adjacency, dtype=np.float64)
    n = matrix.shape[0]
    added = _edge_array(inserts, "add", n)
    removed = _edge_array(deletes, "remove", n)
    edges = np.concatenate([added, removed])
    codes = edges[:, 0] * n + edges[:, 1]
    unique, first, counts = np.unique(codes, return_index=True, return_counts=True)
    if unique.size < codes.size:
        u, v = edges[first[np.argmax(counts > 1)]]
        raise GraphDataError(f"edge ({u}, {v}) appears twice in one batch")
    present = np.zeros(len(edges), dtype=bool)
    if len(edges):
        present = np.asarray(matrix[edges[:, 0], edges[:, 1]]).ravel() != 0
    wrong = np.flatnonzero(present[:len(added)])
    if wrong.size:
        u, v = added[wrong[0]]
        raise GraphDataError(f"edge ({u}, {v}) is already present")
    wrong = np.flatnonzero(~present[len(added):])
    if wrong.size:
        u, v = removed[wrong[0]]
        raise GraphDataError(f"edge ({u}, {v}) is not present")
    signs = np.concatenate([np.ones(len(added)), -np.ones(len(removed))])
    delta = sp.csr_matrix(
        (np.concatenate([signs, signs]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=matrix.shape)
    out = matrix + delta
    out.eliminate_zeros()
    out.sort_indices()
    # Rebuilding through the constructor picks the index dtype from the
    # contents, as ``lil_matrix.tocsr`` does.
    return sp.csr_matrix((out.data, out.indices, out.indptr), shape=out.shape)


def remove_edge(adjacency: sp.spmatrix, u: int, v: int) -> sp.csr_matrix:
    """Return a copy of ``adjacency`` with the undirected edge (u, v) removed."""
    return apply_edge_delta(adjacency, deletes=[(u, v)])


def add_edge(adjacency: sp.spmatrix, u: int, v: int) -> sp.csr_matrix:
    """Return a copy of ``adjacency`` with the undirected edge (u, v) added."""
    return apply_edge_delta(adjacency, inserts=[(u, v)])
