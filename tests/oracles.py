"""Test oracles: an exhaustive modularity maximiser and the schoolbook size
model, which only the tests use."""

import math

from satfactor.analysis import CommunityResult, Graph, modularity


def best_partition_exhaustive(graph: Graph) -> CommunityResult:
    """Exact maximum-modularity partition by enumerating all partitions.

    Only feasible for small vertex counts.
    """
    if not graph.edges:
        raise ValueError("modularity undefined on an empty edge set")
    vertices = list(range(1, graph.num_vertices + 1))

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for smaller in partitions(rest):
            for k, subset in enumerate(smaller):
                yield smaller[:k] + [[first] + subset] + smaller[k + 1:]
            yield [[first]] + smaller

    best_q = -math.inf
    best_partition = None
    for blocks in partitions(vertices):
        part = {v: idx for idx, block in enumerate(blocks) for v in block}
        q = modularity(graph, part)
        if q > best_q:
            best_q = q
            best_partition = part
    return CommunityResult(best_partition, best_q)


def schoolbook_size_model(n_bits: int) -> tuple[float, float]:
    """Size model for the schoolbook encoder, from regression on generated
    instances: variables 0.750 n^2 + 0.496 n - 2.05, clauses
    4.25 n^2 - 4.01 n - 9.87.
    """
    n = n_bits
    return 0.750 * n * n + 0.496 * n - 2.05, 4.25 * n * n - 4.01 * n - 9.87
