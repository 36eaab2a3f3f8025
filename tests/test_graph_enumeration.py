"""Constructive graph enumeration against a generate-and-filter reference.

``enumerate_valid_graphs`` builds each graph from the degree rules.  The
reference here tries every multiset of right-vertex edges and filters, as
the package once did.  Both must give the same graphs in the same order,
with the same vertex names and edge ids.
"""

import itertools

import pytest

from shiftlab.abstract_graphs import AbstractGraph, enumerate_valid_graphs


def naive_valid_graphs(K, max_vertices=8):
    for k_l in range(1, K + 1):
        for k_r in range(1, K + 1):
            if k_l + k_r > max_vertices:
                continue
            lefts = [f"u{i}" for i in range(1, k_l + 1)]
            rights = [f"v{i}" for i in range(1, k_r + 1)]
            verts = {**{u: "left" for u in lefts}, **{v: "right" for v in rights}}
            names = lefts + rights
            # one out-edge per left vertex
            left_targets = itertools.product(
                *[[t for t in names if t != u] for u in lefts]
            )
            pair_types = [(v, t) for v in rights for t in names if t != v]
            n_right_edges = K + k_r
            for targets in left_targets:
                for multiset in itertools.combinations_with_replacement(
                    pair_types, n_right_edges
                ):
                    in_deg = {w: 0 for w in names}
                    out_right = {v: 0 for v in rights}
                    for u, t in zip(lefts, targets):
                        in_deg[t] += 1
                    for v, t in multiset:
                        in_deg[t] += 1
                        out_right[v] += 1
                    if any(in_deg[v] != 1 for v in rights):
                        continue
                    if any(in_deg[u] < 2 for u in lefts):
                        continue
                    if any(out_right[v] < 2 for v in rights):
                        continue
                    edges = {}
                    for i, (u, t) in enumerate(zip(lefts, targets)):
                        edges[f"a{i}"] = (u, t)
                    for i, (v, t) in enumerate(multiset):
                        edges[f"b{i}"] = (v, t)
                    g = AbstractGraph(verts, edges)
                    if g.is_strongly_connected():
                        yield g


def as_lists(graphs):
    return [(list(g.vertices.items()), list(g.edges.items())) for g in graphs]


CASES = [(K, m) for K in (1, 2) for m in range(1, 9)] + [(3, m) for m in range(1, 6)]


@pytest.mark.parametrize("K,max_vertices", CASES, ids=[f"K{K}-m{m}" for K, m in CASES])
def test_matches_naive_in_order(K, max_vertices):
    assert as_lists(enumerate_valid_graphs(K, max_vertices)) == as_lists(
        naive_valid_graphs(K, max_vertices)
    )

