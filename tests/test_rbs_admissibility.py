"""``apply_rbs`` decides admissibility locally; the reference below
builds the rewritten graph, scans it for self-loops that the move made
(the least id is named) and runs a forward and a backward search over the
whole result.  A self-loop that the move does not touch is not the move's
fault and is not named.

Where the bispecial edge is not its left end's only out-edge or its right
end's only in-edge, ``apply_rbs`` refuses before the reference's checks;
every other triple must give the same result edges, or the same exception
class and message.

``apply_rbs`` keeps each result on its parent graph.  The memo tests
compare each call with the rewrite of a fresh copy of the graph, which
has an empty memo, and check that a replayed log builds no graph.  A
rewrite is built without the endpoint and kind check of
``AbstractGraph.__post_init__``; the admissibility test runs that check
on each admitted rewrite.
"""

import random
from unittest.mock import patch

import pytest

from shiftlab._graphutil import arc_index, is_strongly_connected
from shiftlab.abstract_graphs import (
    AbstractGraph,
    _candidate_moves,
    apply_rbs,
    bound_check,
    build_xi,
    random_graph_with_loops,
    random_twist_shrink_log,
)
from shiftlab.errors import InadmissibleMove, PreconditionFailure


def reference_rbs(graph, e0, chosen_in, chosen_out):
    if e0 not in graph.edges:
        raise PreconditionFailure(f"unknown edge {e0}")
    u, v = graph.edges[e0]
    if graph.vertices[u] != "left" or graph.vertices[v] != "right":
        raise PreconditionFailure(f"edge {e0} is not bispecial")
    in_ids = set(graph.in_edges(u)) - {e0}
    out_ids = set(graph.out_edges(v)) - {e0}
    if chosen_in not in in_ids:
        raise PreconditionFailure(f"{chosen_in} does not end at {u}")
    if chosen_out not in out_ids:
        raise PreconditionFailure(f"{chosen_out} does not begin at {v}")
    new_edges = {}
    for eid, (s, d) in graph.edges.items():
        if eid == e0:
            new_edges[eid] = (v, u)
        elif eid in in_ids and eid in out_ids:
            ns = u if eid == chosen_out else v
            nd = v if eid == chosen_in else u
            new_edges[eid] = (ns, nd)
        elif eid in in_ids:
            new_edges[eid] = (s, v if eid == chosen_in else u)
        elif eid in out_ids:
            new_edges[eid] = (u if eid == chosen_out else v, d)
        else:
            new_edges[eid] = (s, d)
    made = sorted(e for e, (s, d) in new_edges.items() if s == d and graph.edges[e] != (s, d))
    if made:
        raise InadmissibleMove(
            f"choice ({chosen_in},{chosen_out}) creates self-loop {made[0]}"
        )
    vertices = sorted(graph.vertices)
    succ = {w: [] for w in vertices}
    pred = {w: [] for w in vertices}
    for s, d in new_edges.values():
        succ[s].append(d)
        pred[d].append(s)
    if not is_strongly_connected(vertices, succ.__getitem__, pred.__getitem__):
        raise InadmissibleMove(
            f"choice ({chosen_in},{chosen_out}) disconnects the graph"
        )
    return new_edges


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (InadmissibleMove, PreconditionFailure) as exc:
        return type(exc).__name__, str(exc)


def degree_fault(graph, e0):
    """The vertex of a bispecial ``e0`` whose degree breaks the rule, or None."""
    u, v = graph.edges[e0]
    kinds = (graph.vertices[u], graph.vertices[v])
    if kinds != ("left", "right"):
        return None
    if len(graph.out_edges(u)) != 1:
        return u
    if len(graph.in_edges(v)) != 1:
        return v
    return None


def triples(graph):
    for e0 in graph.edge_list():
        s, d = graph.edges[e0]
        for cin in graph.in_edges(s) + [e0]:
            for cout in graph.out_edges(d) + [e0]:
                yield e0, cin, cout


def prefixed(graph, tag):
    return AbstractGraph(
        {tag + w: k for w, k in graph.vertices.items()},
        {tag + e: (tag + s, tag + d) for e, (s, d) in graph.edges.items()},
    )


def union(g, h):
    g, h = prefixed(g, "p"), prefixed(h, "q")
    return AbstractGraph({**g.vertices, **h.vertices}, {**g.edges, **h.edges})


def with_self_loop(graph, w, first):
    loop = {"zz": (w, w)}
    edges = {**loop, **graph.edges} if first else {**graph.edges, **loop}
    return AbstractGraph(dict(graph.vertices), edges)


def accepted_chain(rng, graph, steps):
    chain = [graph]
    for _ in range(steps):
        moves = list(triples(chain[-1]))
        rng.shuffle(moves)
        for mv in moves:
            kind, got = outcome(reference_rbs, chain[-1], *mv)
            if kind == "ok":
                chain.append(AbstractGraph(dict(graph.vertices), got))
                break
    return chain


def sample_graphs():
    rng = random.Random(4242)
    base = [random_graph_with_loops(rng)[0] for _ in range(200)]
    out = list(base)
    for g in base[:50]:
        out += accepted_chain(rng, g, 3)[1:]
    out += [union(base[i], base[i + 1]) for i in range(50, 100)]
    for i, g in enumerate(base[100:]):
        out.append(with_self_loop(g, rng.choice(g.vertex_list()), first=i % 2 == 0))
    return out


def test_local_admissibility_matches_whole_graph_reference():
    built = []
    original = AbstractGraph.__post_init__

    def recording(self):
        built.append(self)
        original(self)

    counts = {"ok": 0, "InadmissibleMove": 0, "PreconditionFailure": 0}
    disconnects = 0
    for graph in sample_graphs():
        for e0, cin, cout in triples(graph):
            built.clear()
            kept = set(graph._rewrites)
            with patch.object(AbstractGraph, "__post_init__", recording):
                kind, got = outcome(apply_rbs, graph, e0, cin, cout)
            fault = degree_fault(graph, e0)
            if fault is not None:
                assert kind == "PreconditionFailure"
                assert f"vertex {fault} has" in got
            else:
                ref_kind, ref = outcome(reference_rbs, graph, e0, cin, cout)
                assert kind == ref_kind
                if kind == "ok":
                    assert got.edges == ref and list(got.edges) == list(ref)
                    assert got.is_strongly_connected()
                else:
                    assert got == ref
                    disconnects += got.endswith("disconnects the graph")
            # a rewrite skips the endpoint and kind check, which holds for
            # it; only an admitted move builds a graph, and keeps it
            assert built == []
            if kind == "ok":
                assert graph._rewrites.keys() - kept == {(e0, cin, cout)}
                assert graph._rewrites[e0, cin, cout] is got
                original(got)
            else:
                assert graph._rewrites.keys() == kept
            counts[kind] += 1
    assert counts["ok"] > 2000 and counts["InadmissibleMove"] > 4000
    assert counts["PreconditionFailure"] > 4000 and disconnects > 1500


def test_self_loop_named_in_edge_order():
    # v -> u edge "b" chosen as the in-edge only becomes a self-loop at v;
    # a self-loop "zz" that the move does not touch is never named
    g = AbstractGraph(
        {"u": "left", "v": "right", "w": "right", "x": "left"},
        {"a": ("u", "v"), "b": ("v", "u"), "c": ("v", "x"), "d": ("x", "w"),
         "f": ("w", "u"), "g": ("w", "x")},
    )
    with pytest.raises(InadmissibleMove, match="creates self-loop b"):
        apply_rbs(g, "a", "b", "c")
    for first in (True, False):
        looped = with_self_loop(g, "w", first)
        with pytest.raises(InadmissibleMove, match="creates self-loop b$"):
            apply_rbs(looped, "a", "b", "c")
    # two v -> u edges chosen: b turns into a self-loop at v and y into one
    # at u; the lesser id is named, whichever edge the graph lists first
    for order in (("a", "b", "y", "f"), ("y", "f", "b", "a")):
        h = AbstractGraph(
            {"u": "left", "v": "right", "w": "right"},
            {e: {"a": ("u", "v"), "b": ("v", "u"), "y": ("v", "u"),
                 "f": ("w", "u")}[e] for e in order} | {"c": ("v", "w")},
        )
        with pytest.raises(InadmissibleMove, match="creates self-loop b$"):
            apply_rbs(h, "a", "b", "y")


def test_untouched_self_loop_not_blamed():
    # s: w -> w is no edge of the move: a rewrite that makes no self-loop
    # keeps it, and a refusal names the edge that the move turns into one
    g = AbstractGraph(
        {"u": "left", "v": "right", "w": "right"},
        {"a": ("u", "v"), "b": ("v", "u"), "c": ("v", "u"), "x": ("w", "u"),
         "y": ("v", "w"), "s": ("w", "w")},
    )
    got = apply_rbs(g, "a", "x", "y")
    assert got.edges == {"a": ("v", "u"), "b": ("v", "u"), "c": ("v", "u"),
                         "x": ("w", "v"), "y": ("u", "w"), "s": ("w", "w")}
    with pytest.raises(InadmissibleMove, match=r"choice \(b,c\) creates self-loop b$"):
        apply_rbs(g, "a", "b", "c")


def test_derived_index_matches_fresh_index():
    # every candidate move of random instances, and of the graphs that a
    # chain of accepted moves derives from them: each result's index,
    # derived from its parent's, equals one built from all its edges
    rng = random.Random(2718)
    rewrites = 0
    for _ in range(300):
        graph, loops = random_graph_with_loops(rng)
        for _ in range(3):
            accepted = []
            for _, ids in _candidate_moves(graph, loops):
                kind, got = outcome(apply_rbs, graph, *ids)
                if kind != "ok":
                    continue
                result = got
                fresh = arc_index((e, *result.edges[e]) for e in sorted(result.edges))
                assert result._adjacency == fresh, ids
                rewrites += 1
                accepted.append(result)
            if not accepted:
                break
            graph = rng.choice(accepted)
    assert rewrites > 5000


def fresh_copy(graph):
    return AbstractGraph(dict(graph.vertices), dict(graph.edges))


def test_rewrite_memo_matches_fresh_graph():
    # every triple of random instances and of graphs derived from them, then
    # every triple with its chosen edges swapped, so that a refused triple
    # comes after the admitted one it mirrors
    rng = random.Random(1618)
    counts = {"ok": 0, "InadmissibleMove": 0, "PreconditionFailure": 0}
    for _ in range(200):
        graph, _ = random_graph_with_loops(rng)
        for _ in range(3):
            moves = list(triples(graph))
            moves += [(e0, cout, cin) for e0, cin, cout in moves]
            accepted = []
            for ids in moves:
                kind, got = outcome(apply_rbs, graph, *ids)
                ref_kind, ref = outcome(apply_rbs, fresh_copy(graph), *ids)
                assert kind == ref_kind, ids
                if kind == "ok":
                    assert got == ref and got._adjacency == ref._adjacency, ids
                    assert apply_rbs(graph, *ids) is got
                    accepted.append(got)
                else:
                    assert got == ref, ids
                    assert outcome(apply_rbs, graph, *ids) == (kind, got)
                    assert ids not in graph._rewrites
                counts[kind] += 1
            if not accepted:
                break
            graph = rng.choice(accepted)
    assert counts["ok"] > 4000 and counts["InadmissibleMove"] > 4000
    assert counts["PreconditionFailure"] > 20000


def kept_rewrites(graph):
    """The number of rewrites kept on ``graph`` and on the graphs derived
    from it."""
    return sum(1 + kept_rewrites(g) for g in graph._rewrites.values())


def test_replayed_log_is_looked_up():
    # build_xi and bound_check replay the drawn log from the rewrites kept
    # on the original graph: they build no graph, checked or rewritten, and
    # agree with a replay on a fresh copy
    built = []
    original = AbstractGraph.__post_init__

    def recording(self):
        built.append(self)
        original(self)

    rng = random.Random(5772)
    replayed = 0
    for _ in range(200):
        graph, loops = random_graph_with_loops(rng)
        moves = random_twist_shrink_log(rng, graph, loops, rng.randint(0, 5))
        kept = kept_rewrites(graph)
        with patch.object(AbstractGraph, "__post_init__", recording):
            xi = build_xi(graph, loops, moves)
            report = bound_check(graph, loops, moves)
        assert built == [] and kept_rewrites(graph) == kept
        assert xi == build_xi(fresh_copy(graph), loops, moves)
        assert report == bound_check(fresh_copy(graph), loops, moves)
        replayed += len(moves)
    assert replayed > 400
