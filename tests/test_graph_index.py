"""Indexed adjacency queries against a naive edge-scan reference.

Every graph class answers its adjacency queries from one index built on
the first query.  The reference here rescans all edges per query, as the
classes once did; each indexed answer must equal it, order included,
also for unknown vertices.  The union-find ``weak_components`` is checked against a depth-first
search over per-vertex neighbour lists, as it once ran.
"""

import random

import pytest

from shiftlab._graphutil import is_weakly_connected, weak_components
from shiftlab.abstract_graphs import (
    AbstractGraph,
    apply_rbs,
    enumerate_valid_graphs,
    random_abc_move,
    random_graph_with_loops,
    random_twist_shrink_log,
)
from shiftlab.generators import SequencePrefix, oracle_from_prefix
from shiftlab.rauzy import build_special_rauzy
from shiftlab.words import Alphabet


def scan_abstract(g, v):
    ids = sorted(g.edges)
    outs = [e for e in ids if g.edges[e][0] == v]
    ins = [e for e in ids if g.edges[e][1] == v]
    return {
        "out_edges": outs,
        "in_edges": ins,
        "successors": [g.edges[e][1] for e in outs],
        "predecessors": [g.edges[e][0] for e in ins],
    }


def assert_matches_scan(graph, vertices, scan):
    for v in vertices:
        for name, expected in scan(graph, v).items():
            got = getattr(graph, name)(v)
            assert got == expected, (name, v)
            if isinstance(got, list):
                got.append(None)  # a caller's edit must not reach the index
                assert getattr(graph, name)(v) == expected, (name, v)


def random_instances(count):
    rng = random.Random(7)
    return [random_graph_with_loops(rng) for _ in range(count)]


def rewritten_graphs():
    """Outputs of ``apply_rbs``: one random A/B/C move and a short
    twist/shrink log per random instance."""
    rng = random.Random(11)
    out = []
    for g, loops in random_instances(30):
        mv = random_abc_move(rng, g, loops)
        if mv is not None:
            out.append(apply_rbs(g, mv.e0, mv.chosen_in, mv.chosen_out))
        current = g
        for mv in random_twist_shrink_log(rng, g, loops, 3):
            current = apply_rbs(current, mv.e0, mv.chosen_in, mv.chosen_out)
            out.append(current)
    return out


class TestAbstractGraph:
    @pytest.mark.parametrize(
        "source",
        ["random", "enumerated", "rewritten"],
    )
    def test_queries_match_scan(self, source):
        graphs = {
            "random": lambda: [g for g, _ in random_instances(40)],
            "enumerated": lambda: list(enumerate_valid_graphs(2, 4)),
            "rewritten": rewritten_graphs,
        }[source]()
        assert graphs
        for g in graphs:
            assert_matches_scan(g, [*g.vertex_list(), "not-a-vertex"], scan_abstract)

    def test_parallel_edges_keep_id_order(self):
        g = AbstractGraph(
            {"u": "left", "v": "right"},
            {"c": ("v", "u"), "a": ("u", "v"), "b": ("v", "u")},
        )
        assert g.in_edges("u") == ["b", "c"]
        assert_matches_scan(g, ["u", "v"], scan_abstract)


def random_binary_oracle(seed, length=3000, horizon=10):
    rng = random.Random(seed)
    tokens = "".join(rng.choice("01") for _ in range(length))
    return oracle_from_prefix(SequencePrefix.from_tokens(Alphabet(("0", "1")), tokens), horizon)


@pytest.fixture(scope="module")
def oracles(fib_oracle):
    return [(fib_oracle, (3, 5, 8)), (random_binary_oracle(1), (2, 4)), (random_binary_oracle(2), (3,))]


class TestRauzyGraphs:
    def test_special_graph_queries_match_scan(self, oracles):
        for oracle, lengths in oracles:
            for n in lengths:
                g = build_special_rauzy(oracle, n)
                unknown = "L:" + "2" * n
                assert_matches_scan(g, [*g.vertex_list(), unknown], scan_abstract)


def naive_weak_components(vertices, arcs):
    vset = set(vertices)
    nbrs = {v: [] for v in vset}
    for a, b in arcs:
        if a in vset and b in vset:
            nbrs[a].append(b)
            nbrs[b].append(a)
    comps, seen = [], set()
    for v in vertices:
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


class TestWeakComponents:
    def test_matches_naive_dfs(self):
        # vertex lists with duplicates, arcs with an end outside them
        rng = random.Random(29)
        sizes = set()
        for _ in range(2000):
            names = [f"x{i}" for i in range(rng.randint(0, 9))]
            vertices = [rng.choice(names) for _ in range(rng.randint(0, 12))] if names else []
            pool = names + ["out1", "out2"]
            arcs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 10))]
            expected = naive_weak_components(vertices, arcs)
            assert weak_components(vertices, iter(arcs)) == expected
            assert is_weakly_connected(vertices, iter(arcs)) == (len(expected) <= 1)
            sizes.add(len(expected))
        assert {0, 1, 2, 3} <= sizes

    def test_empty_input(self):
        assert weak_components([], [("a", "b")]) == []
        assert is_weakly_connected([], [])
        assert weak_components(["a", "b", "a"], []) == [frozenset("a"), frozenset("b")]
