"""The one-pass loop kernels against the bodies they replaced.

``check_loop`` looks up each edge's ends once and returns the loop's
vertices; ``_check_loops`` reuses those lists for the disjointness test.
``_tag_components`` gathers
the loops' edges and vertex sets in one pass and takes the components in
the order ``weak_components`` gives them.  ``validate`` counts the left
vertices in its structural pass.  ``bispecial_edges`` reads the out-lists
of the left vertices.  ``random_graph_with_loops`` fills the adjacency
index as it adds edges.

The references below are the former bodies, with the components found by
the depth-first search of ``test_graph_index``.  Each kernel must give
the same result, or refuse with the same exception type and message, on
random instances, on the graphs their moves rewrite, and on malformed
families.
"""

import random

import pytest

from shiftlab._graphutil import arc_index
from shiftlab.abstract_graphs import (
    AbstractGraph,
    ComponentTags,
    Loop,
    _check_loops,
    _tag_components,
    _track_move,
    check_loop,
    loop_vertices,
    move_effect,
    random_abc_move,
    random_graph_with_loops,
    random_twist_shrink_log,
    validate,
)
from shiftlab import abstract_graphs
from shiftlab.errors import PreconditionFailure
from test_graph_index import naive_weak_components


def reference_check_loop(graph, loop):
    if len(loop.edges) < 2:
        raise PreconditionFailure("a loop needs at least two edges")
    for e in loop.edges:
        if e not in graph.edges:
            raise PreconditionFailure(f"loop edge {e!r} is not an edge of the graph")
    for e, f in zip(loop.edges, loop.edges[1:] + loop.edges[:1]):
        if graph.edges[e][1] != graph.edges[f][0]:
            raise PreconditionFailure(f"edges {e},{f} are not consecutive")
    verts = loop_vertices(graph, loop)
    if len(set(verts)) != len(verts):
        raise PreconditionFailure("loop is not vertex self-avoiding")
    if len({graph.vertices[w] for w in verts}) != 2:
        raise PreconditionFailure("a loop needs a left and a right vertex")


def reference_check_loops(graph, loops):
    labels = sorted(loops)
    for lab in labels:
        reference_check_loop(graph, loops[lab])
    seen = set()
    for lab in labels:
        vs = set(loop_vertices(graph, loops[lab]))
        if vs & seen:
            raise PreconditionFailure("tracked loops must be vertex-disjoint")
        seen |= vs


def reference_tag_components(graph, loops):
    labels = tuple(sorted(loops))
    loop_edges = {e for lab in labels for e in loops[lab].edges}
    comps = naive_weak_components(
        graph.vertex_list(),
        [ends for e, ends in graph.edges.items() if e not in loop_edges],
    )
    comps = tuple(sorted(comps, key=sorted))
    loop_sets = [frozenset(loop_vertices(graph, loops[lab])) for lab in labels]
    tags = tuple(tuple(lv & comp for lv in loop_sets) for comp in comps)
    return ComponentTags(comps, tags)


def reference_structure(graph):
    """Structural violations and side counts, as ``validate`` found them."""
    v = []
    for name, kind in sorted(graph.vertices.items()):
        ins = sum(1 for _, d in graph.edges.values() if d == name)
        outs = sum(1 for s, _ in graph.edges.values() if s == name)
        if kind == "left" and (outs != 1 or ins < 2):
            v.append(f"notation-2: left vertex {name} has in={ins}, out={outs}")
        if kind == "right" and (ins != 1 or outs < 2):
            v.append(f"notation-3: right vertex {name} has in={ins}, out={outs}")
    if graph.K < 1:
        v.append(f"notation-4: edge excess K={graph.K} must be >= 1")
    if not graph.is_strongly_connected():
        v.append("notation-5: graph is not strongly connected")
    for eid, (s, d) in sorted(graph.edges.items()):
        if s == d:
            v.append(f"notation-5: self-loop {eid} at {s}")
    kinds = list(graph.vertices.values())
    return tuple(v), kinds.count("left"), kinds.count("right")


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except PreconditionFailure as exc:
        return type(exc).__name__, str(exc)


def fresh(graph):
    """An equal graph object, with nothing kept on it."""
    return AbstractGraph(dict(graph.vertices), dict(graph.edges))


def states():
    """Random instances and the graphs and loops their moves lead to: a
    random A/B/C move, and every state of a short twist/shrink log."""
    rng = random.Random(2323)
    for _ in range(250):
        graph, loops = random_graph_with_loops(rng)
        yield graph, loops
        mv = random_abc_move(rng, graph, loops)
        if mv is not None:
            yield move_effect(graph, loops, mv).graph_after, loops
        for mv in random_twist_shrink_log(rng, graph, loops, 3):
            _, _, graph, loops = _track_move(graph, loops, mv)
            yield graph, loops


def malformed(rng, graph, loops):
    """Families built from a valid one that the check may refuse."""
    labels = sorted(loops)
    lab = rng.choice(labels)
    eids = list(loops[lab].edges)
    other = sorted(set(graph.edges) - set(eids))
    yield {**loops, lab: Loop(tuple(eids[:1]))}
    yield {**loops, lab: Loop(tuple(eids[1:] + eids[:1]))}  # rotated: still valid
    yield {**loops, lab: Loop(tuple(reversed(eids)))}
    yield {**loops, lab: Loop((*eids, "zz"))}
    yield {**loops, lab: Loop((*eids, *eids))}  # twice round
    yield {**loops, lab: Loop((*eids[:-1], rng.choice(other)))}
    yield {**loops, "0": loops[lab]}  # the same loop under a second label
    yield {"0": loops[lab], **{k: Loop(("zz", "yy")) for k in labels}}
    if len(eids) > 2:
        i = rng.randrange(len(eids) - 1)
        swapped = eids[:i] + [eids[i + 1], eids[i]] + eids[i + 2:]
        yield {**loops, lab: Loop(tuple(swapped))}


class TestCheckLoops:
    def test_matches_reference_on_random_states(self):
        rng = random.Random(17)
        messages = set()
        count = 0
        for graph, loops in states():
            for family in [loops, *malformed(rng, graph, loops)]:
                g = fresh(graph)
                expected = outcome(reference_check_loops, g, family)
                assert outcome(_check_loops, g, family) == expected, family
                assert outcome(_check_loops, g, family) == expected, family
                messages.add(expected[-1])
                for lp in family.values():
                    got = outcome(check_loop, g, lp)
                    assert got[0] == outcome(reference_check_loop, g, lp)[0]
                    if got[0] == "ok":
                        assert list(got[1]) == loop_vertices(g, lp)
                    else:
                        assert got == outcome(reference_check_loop, g, lp)
                count += 1
        assert count > 4000
        assert {
            None,
            "a loop needs at least two edges",
            "loop edge 'zz' is not an edge of the graph",
            "loop is not vertex self-avoiding",
            "tracked loops must be vertex-disjoint",
        } <= messages
        assert any(str(m).endswith("are not consecutive") for m in messages)

    @pytest.mark.parametrize(
        "loops",
        [
            {"1": Loop(("a",))},
            {"1": Loop(("a", "b", "zz"))},
            {"1": Loop(("a", "zz", "b"))},
            {"1": Loop(("b", "a", "c"))},
            {"1": Loop(("a", "b", "c", "a", "b", "c"))},
            {"1": Loop(("h", "i")), "2": Loop(("a", "b", "c"))},
            {"1": Loop(("a", "b", "c")), "2": Loop(("a", "f", "g"))},
            {"1": Loop(("a", "b", "c")), "2": Loop(("a", "f", "g")), "3": Loop(("zz", "b"))},
            {"2": Loop(("a", "b", "c")), "1": Loop(("a", "f", "g"))},
            {"1": Loop(("a", "f", "g")), "2": Loop(("a", "f", "g"))},
            {"1": Loop(("a", "b", "c")), "2": Loop(("d", "e"))},
        ],
        ids=["one-edge", "unknown-last", "unknown-before-gap", "non-consecutive",
             "repeated-vertex", "single-kind", "overlap", "malformed-after-overlap",
             "overlap-labels-swapped", "same-loop-twice", "valid"],
    )
    def test_malformed_families_match_reference(self, loops):
        # a 3-loop, a 2-loop, a 2-loop of one kind, and a detour through
        # x that shares u1 and v1 with the 3-loop
        graph = AbstractGraph(
            {"u1": "left", "v1": "right", "w1": "left", "u2": "left",
             "v2": "right", "x": "right", "y": "left", "z": "left"},
            {"a": ("u1", "v1"), "b": ("v1", "w1"), "c": ("w1", "u1"),
             "d": ("u2", "v2"), "e": ("v2", "u2"), "f": ("v1", "x"),
             "g": ("x", "u1"), "h": ("y", "z"), "i": ("z", "y")},
        )
        expected = outcome(reference_check_loops, graph, loops)
        for _ in range(2):
            assert outcome(_check_loops, graph, loops) == expected

    def test_refused_family_is_never_kept(self):
        graph, loops = random_graph_with_loops(random.Random(4))
        lab = sorted(loops)[0]
        bad = {**loops, lab: Loop(tuple(reversed(loops[lab].edges)))}
        for _ in range(2):
            with pytest.raises(PreconditionFailure, match="not consecutive"):
                _check_loops(graph, bad)
        _check_loops(graph, loops)
        with pytest.raises(PreconditionFailure, match="not consecutive"):
            _check_loops(graph, bad)

    def test_every_call_checks_in_full(self, monkeypatch):
        calls = []
        original = abstract_graphs.check_loop

        def counting(graph, loop):
            calls.append(loop)
            return original(graph, loop)

        monkeypatch.setattr(abstract_graphs, "check_loop", counting)
        graph, loops = random_graph_with_loops(random.Random(8), 2)
        _check_loops(graph, loops)
        assert len(calls) == 2
        # nothing is kept on the graph: a repeat, in any label order, checks
        # every loop again
        _check_loops(graph, dict(reversed(list(loops.items()))))
        _check_loops(graph, {lab: Loop(lp.edges) for lab, lp in loops.items()})
        assert len(calls) == 6
        _check_loops(fresh(graph), loops)
        assert len(calls) == 8

    def test_move_effect_checks_a_fresh_instance_in_full(self, monkeypatch):
        calls = []
        original = abstract_graphs.check_loop
        monkeypatch.setattr(
            abstract_graphs, "check_loop",
            lambda graph, loop: calls.append(loop) or original(graph, loop),
        )
        validated = []
        original_validate = abstract_graphs.validate
        monkeypatch.setattr(
            abstract_graphs, "validate",
            lambda graph, coloring=None: validated.append(graph)
            or original_validate(graph, coloring),
        )
        rng = random.Random(12)
        done = 0
        while done < 20:
            graph, loops = random_graph_with_loops(rng)
            mv = random_abc_move(random.Random(done), fresh(graph), loops)
            if mv is None:
                continue
            calls.clear()
            validated.clear()
            move_effect(graph, loops, mv)
            assert len(calls) == len(loops)
            assert len(validated) == 1 and validated[0] is graph
            done += 1


class TestTagComponents:
    def test_matches_reference_on_random_states(self):
        sizes = set()
        for graph, loops in states():
            for family in (loops, {}, {lab: loops[lab] for lab in sorted(loops)[:1]}):
                got = _tag_components(graph, family)
                assert got == reference_tag_components(graph, family)
                sizes.add(len(got.components))
        assert {1, 2, 3} <= sizes


class TestValidateStructure:
    def test_matches_reference(self):
        rng = random.Random(5)
        graphs = [graph for graph, _ in states()]
        # random rewirings break the degree rules, connectivity and loops
        for graph in graphs[:200]:
            edges = dict(graph.edges)
            for eid in rng.sample(sorted(edges), 2):
                edges[eid] = (rng.choice(graph.vertex_list()), edges[eid][1])
            graphs.append(AbstractGraph(dict(graph.vertices), edges))
        seen = set()
        for graph in graphs:
            rep = validate(graph)
            violations, k_left, k_right = reference_structure(graph)
            assert (rep.violations, rep.K_left, rep.K_right) == (violations, k_left, k_right)
            assert rep.K_left + rep.K_right == len(graph.vertices)
            seen.update(x.split(":")[0] for x in violations)
        assert {"notation-2", "notation-3", "notation-5"} <= seen


class TestIndexes:
    def test_bispecial_edges_match_scan(self):
        for graph, _ in states():
            assert graph.bispecial_edges() == [
                e for e in sorted(graph.edges)
                if graph.vertices[graph.edges[e][0]] == "left"
                and graph.vertices[graph.edges[e][1]] == "right"
            ]

    @pytest.mark.parametrize("n_loops", [None, 1, 3, 12, 99])
    def test_generator_index_matches_arc_index(self, n_loops):
        rng = random.Random(n_loops or 0)
        for _ in range(300 if n_loops in (None, 1, 3) else 5):
            graph, _ = random_graph_with_loops(rng, n_loops)
            expected = arc_index((e, *graph.edges[e]) for e in sorted(graph.edges))
            assert graph._adjacency == expected

    def test_more_than_99_loops_refused(self):
        with pytest.raises(PreconditionFailure, match="n_loops must be <= 99, got 100"):
            random_graph_with_loops(random.Random(1), 100)
