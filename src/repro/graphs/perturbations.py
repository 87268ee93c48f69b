"""Edge-level neighbouring-graph construction and edge perturbation utilities.

Edge DP reasons about pairs of graphs that differ in exactly one undirected
edge (Definition 2 specialised to graphs, Section II-C).  The helpers here
enumerate and sample such pairs — they power the empirical sensitivity checks
of Lemma 2 in the test suite, the privacy audit, and the attack-candidate
sampling — and provide bulk random edge addition/removal used to study
robustness to graph noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.exceptions import GraphDataError
from repro.graphs.graph import GraphDataset
from repro.utils.random import as_rng


@dataclass(frozen=True)
class NeighboringPair:
    """A graph and one of its edge-level neighbours.

    ``kind`` is ``"remove"`` when the neighbour lacks an edge present in the
    original graph and ``"add"`` when the neighbour has one extra edge.
    """

    original: GraphDataset
    neighbor: GraphDataset
    edge: tuple[int, int]
    kind: str


def _absent_edge(graph: GraphDataset, rng: np.random.Generator,
                 added=frozenset(), removed=frozenset()) -> tuple[int, int]:
    """Draw a uniformly random node pair (u < v) absent from the graph
    ``graph + added - removed``; an edge in both sets was removed, then
    added back, so it is present."""
    n = graph.num_nodes
    if n < 2:
        raise GraphDataError("need at least two nodes to sample a non-edge")
    max_edges = n * (n - 1) // 2
    if graph.num_edges + len(added) - len(removed) >= max_edges:
        raise GraphDataError("the graph is complete; no absent edge exists")
    adjacency = graph.adjacency
    while True:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in added:
            continue
        if edge in removed or adjacency[edge] == 0:
            return edge


def sample_absent_edge(graph: GraphDataset,
                       rng: int | np.random.Generator | None = None) -> tuple[int, int]:
    """Sample a uniformly random node pair (u < v) that is *not* an edge."""
    return _absent_edge(graph, as_rng(rng))


def sample_absent_edges(graph: GraphDataset, count: int,
                        rng: int | np.random.Generator | None = None,
                        ) -> list[tuple[int, int]]:
    """Sample ``count`` distinct non-edges (u < v), each uniform over the pairs
    still absent once the earlier ones are added: the draws of ``count``
    calls of :func:`sample_absent_edge` with an :meth:`GraphDataset.with_edge`
    after each, without building a graph per edge."""
    rng = as_rng(rng)
    added: dict[tuple[int, int], None] = {}  # insertion-ordered set
    for _ in range(count):
        added[_absent_edge(graph, rng, added)] = None
    return list(added)


def sample_present_edge(graph: GraphDataset,
                        rng: int | np.random.Generator | None = None) -> tuple[int, int]:
    """Sample a uniformly random existing undirected edge (u < v)."""
    return sample_present_edges(graph, 1, rng)[0]


def sample_present_edges(graph: GraphDataset, count: int,
                         rng: int | np.random.Generator | None = None,
                         ) -> list[tuple[int, int]]:
    """Sample ``count`` distinct edges (u < v), each uniform over the edges
    left once the earlier ones are removed: the draws of ``count`` calls of
    :func:`sample_present_edge` with an :meth:`GraphDataset.without_edge`
    after each, from one edge list."""
    rng = as_rng(rng)
    edges = graph.edges()
    chosen = []
    for _ in range(count):
        if edges.shape[0] == 0:
            raise GraphDataError("the graph has no edges to sample")
        index = int(rng.integers(0, edges.shape[0]))
        chosen.append((int(edges[index, 0]), int(edges[index, 1])))
        edges = np.delete(edges, index, axis=0)
    return chosen


def sample_neighboring_pair(graph: GraphDataset, kind: str = "remove",
                            rng: int | np.random.Generator | None = None) -> NeighboringPair:
    """Sample one edge-level neighbouring pair of ``graph``.

    ``kind="remove"`` drops a random existing edge; ``kind="add"`` inserts a
    random absent edge; ``kind="either"`` flips a fair coin between the two.
    """
    rng = as_rng(rng)
    if kind == "either":
        kind = "remove" if rng.random() < 0.5 else "add"
    if kind == "remove":
        u, v = sample_present_edge(graph, rng)
        return NeighboringPair(graph, graph.without_edge(u, v), (u, v), "remove")
    if kind == "add":
        u, v = sample_absent_edge(graph, rng)
        return NeighboringPair(graph, graph.with_edge(u, v), (u, v), "add")
    raise GraphDataError(f"kind must be 'remove', 'add' or 'either', got {kind!r}")


def iter_neighboring_pairs(graph: GraphDataset, count: int, kind: str = "remove",
                           rng: int | np.random.Generator | None = None,
                           ) -> Iterator[NeighboringPair]:
    """Yield ``count`` independently sampled neighbouring pairs."""
    if count < 0:
        raise GraphDataError(f"count must be >= 0, got {count}")
    rng = as_rng(rng)
    for _ in range(count):
        yield sample_neighboring_pair(graph, kind=kind, rng=rng)


def remove_random_edges(graph: GraphDataset, fraction: float,
                        rng: int | np.random.Generator | None = None) -> GraphDataset:
    """Return a copy of ``graph`` with a random ``fraction`` of its edges removed."""
    if not 0.0 <= fraction <= 1.0:
        raise GraphDataError(f"fraction must be in [0, 1], got {fraction}")
    rng = as_rng(rng)
    edges = graph.edges()
    num_remove = int(round(fraction * edges.shape[0]))
    if num_remove == 0:
        return graph
    chosen = rng.choice(edges.shape[0], size=num_remove, replace=False)
    return graph.with_edges(deletes=edges[chosen])


def add_random_edges(graph: GraphDataset, count: int,
                     rng: int | np.random.Generator | None = None) -> GraphDataset:
    """Return a copy of ``graph`` with ``count`` uniformly random new edges added."""
    if count < 0:
        raise GraphDataError(f"count must be >= 0, got {count}")
    if count == 0:
        return graph
    return graph.with_edges(inserts=sample_absent_edges(graph, count, rng))


def rewire_edges(graph: GraphDataset, fraction: float,
                 rng: int | np.random.Generator | None = None) -> GraphDataset:
    """Rewire a random ``fraction`` of edges (remove each and add a random non-edge).

    Keeps the edge count constant while destroying structure; used to study
    how homophily degradation affects GCON versus the baselines.  Edges are
    rewired in turn, so a replacement is drawn after its edge is gone and
    may land on any edge removed so far, that one included.
    """
    if not 0.0 <= fraction <= 1.0:
        raise GraphDataError(f"fraction must be in [0, 1], got {fraction}")
    rng = as_rng(rng)
    edges = graph.edges()
    num_rewire = int(round(fraction * edges.shape[0]))
    if num_rewire == 0:
        return graph
    chosen = rng.choice(edges.shape[0], size=num_rewire, replace=False)
    removed: set[tuple[int, int]] = set()
    added: set[tuple[int, int]] = set()
    for index in chosen:
        removed.add((int(edges[index, 0]), int(edges[index, 1])))
        added.add(_absent_edge(graph, rng, added, removed))
    # An edge removed and then drawn back is unchanged.
    return graph.with_edges(inserts=sorted(added - removed),
                            deletes=sorted(removed - added))


def edge_flip_distance(first: GraphDataset, second: GraphDataset) -> int:
    """Number of undirected edges by which two graphs over the same node set differ."""
    if first.num_nodes != second.num_nodes:
        raise GraphDataError("graphs must share the same node set")
    difference = (first.adjacency != second.adjacency)
    return int(difference.nnz // 2)
