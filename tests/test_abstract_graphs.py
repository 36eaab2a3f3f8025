"""Abstract branching graphs: validation, rewrites, quotients,
components-and-tags, itineraries, searches."""

import itertools
import random
from unittest.mock import patch

import pytest

from shiftlab.abstract_graphs import (
    MAX_CYCLES,
    AbstractGraph,
    Coloring,
    Event,
    Itinerary,
    Loop,
    Move,
    SearchResult,
    apply_rbs,
    bound_check,
    build_xi,
    enumerate_valid_graphs,
    exhaustive_bound_probe,
    graph_from_json,
    graph_to_json,
    itinerary_check,
    itinerary_from_json,
    itinerary_to_json,
    loop_vertices,
    move_effect,
    random_abc_move,
    random_graph_with_loops,
    random_twist_shrink_log,
    search_colorings,
    simple_cycles,
    validate,
)
from shiftlab.abstract_graphs import _candidate_moves, _check_loops, _tag_components, _track_move
from shiftlab.errors import InadmissibleMove, PreconditionFailure


def sturmian_shape():
    g = AbstractGraph(
        {"u": "left", "v": "right"},
        {"a": ("u", "v"), "b": ("v", "u"), "c": ("v", "u")},
    )
    coloring = Coloring({"u": 1, "v": 1}, {"a": 1, "b": 1})
    return g, coloring


def k3_shape():
    """Six vertices, two 2-loops, one relay pair; branching constant 3."""
    return AbstractGraph(
        {"u1": "left", "v1": "right", "u2": "left", "v2": "right",
         "u3": "left", "v3": "right"},
        {"a": ("u1", "v1"), "b": ("v1", "u1"), "c": ("u2", "v2"),
         "d": ("v2", "u2"), "g": ("u3", "v3"), "h": ("v3", "u1"),
         "i": ("v3", "u2"), "j": ("v1", "u3"), "k": ("v2", "u3")},
    )


def three_loop_fixture():
    """A 3-loop and a 2-loop with a relay vertex; branching constant 3."""
    g = AbstractGraph(
        {"u1": "left", "v1": "right", "w1": "left", "u2": "left",
         "v2": "right", "x": "right"},
        {"a": ("u1", "v1"), "b": ("v1", "w1"), "c": ("w1", "u1"),
         "d": ("u2", "v2"), "e": ("v2", "u2"), "f": ("v1", "x"),
         "g": ("x", "w1"), "h": ("x", "u2"), "k": ("v2", "u1")},
    )
    coloring = Coloring(
        {"u1": 1, "v1": 1, "w1": 1, "u2": 2, "v2": 2},
        {"a": 1, "b": 1, "c": 1, "d": 2, "e": 2},
    )
    loops = {"1": Loop(("a", "b", "c")), "2": Loop(("d", "e"))}
    return g, coloring, loops


def recolored(c, vertices, edges):
    """``c`` with the given colors replaced."""
    return Coloring({**c.vertex_colors, **vertices}, {**c.edge_colors, **edges})


def degrees(g):
    return {v: (len(g.in_edges(v)), len(g.out_edges(v))) for v in g.vertices}


class TestValidate:
    def test_sturmian_shape_valid(self):
        g, coloring = sturmian_shape()
        rep = validate(g, coloring)
        assert rep.ok
        assert (rep.K, rep.K_left, rep.K_right, rep.E) == (1, 1, 1, 1)

    def test_uncolored_endpoint_violates(self):
        g, _ = sturmian_shape()
        bad = Coloring({"u": 0, "v": 1}, {"a": 1, "b": 1})
        rep = validate(g, bad)
        assert any(v.startswith("notation-8") for v in rep.violations)

    def test_self_loop_invalid(self):
        g = AbstractGraph(
            {"u": "left", "v": "right"},
            {"a": ("u", "v"), "b": ("v", "u"), "c": ("v", "v")},
        )
        rep = validate(g)
        assert any("self-loop" in v for v in rep.violations)

    def test_degree_violations_name_items(self):
        g = AbstractGraph(
            {"u": "left", "v": "right"},
            {"a": ("u", "v"), "b": ("v", "u")},
        )
        rep = validate(g)
        assert any(v.startswith("notation-2") for v in rep.violations)
        assert any(v.startswith("notation-3") for v in rep.violations)

    def test_color_without_circuit(self):
        g = k3_shape()
        # color a path that is not a circuit
        bad = Coloring({"u3": 1, "v3": 1, "u1": 1, "v1": 1},
                       {"g": 1, "h": 1, "a": 1, "b": 1})
        rep = validate(g, bad)
        # h: v3 -> u1 has no monochromatic circuit through it
        assert any(v.startswith("rules1-4") for v in rep.violations) or rep.ok is False

    def test_missing_side_for_color(self):
        g = k3_shape()
        for vertex in ("u1", "v1"):  # a color on a left vertex only, a right one only
            rep = validate(g, Coloring({vertex: 1}, {}))
            assert any(v.startswith("rules1-2") for v in rep.violations)


class TestApplyRbs:
    def test_twist_preserves_two_loop(self):
        g, coloring = sturmian_shape()
        g2 = apply_rbs(g, "a", "b", "b")
        assert g2.edges["a"] == ("v", "u") and g2.edges["b"] == ("u", "v")
        assert validate(g2, coloring).ok

    def test_undo_two_loop(self):
        g = k3_shape()
        g2 = apply_rbs(g, "a", "h", "j")
        assert g2.edges["a"] == ("v1", "u1") and g2.edges["b"] == ("v1", "u1")
        assert g2.edges["h"] == ("v3", "v1") and g2.edges["j"] == ("u1", "u3")
        assert degrees(g2) == degrees(g)

    def test_mixed_choice_inadmissible(self):
        g = k3_shape()
        with pytest.raises(InadmissibleMove):
            apply_rbs(g, "a", "b", "j")
        with pytest.raises(InadmissibleMove):
            apply_rbs(g, "a", "h", "b")

    def test_non_bispecial_rejected(self):
        g = k3_shape()
        with pytest.raises(PreconditionFailure):
            apply_rbs(g, "b", "a", "a")

    @pytest.mark.parametrize(
        "extra,message",
        [
            (("u1", "v2"), "left vertex u1 has out-degree 2"),
            (("u2", "v1"), "right vertex v1 has in-degree 2"),
        ],
    )
    def test_second_edge_at_rewired_end_refused(self, extra, message):
        # the local connectivity test needs e0 to be u's only out-edge and
        # v's only in-edge
        g = k3_shape()
        g = AbstractGraph(dict(g.vertices), {**g.edges, "z": extra})
        with pytest.raises(PreconditionFailure, match=message):
            apply_rbs(g, "a", "h", "j")

    def test_edge_ids_survive(self):
        g = k3_shape()
        g2 = apply_rbs(g, "a", "h", "j")
        assert set(g2.edges) == set(g.edges)

    def test_every_admissible_move_keeps_each_degree(self):
        rng = random.Random(31)
        moves = 0
        for _ in range(40):
            g, _ = random_graph_with_loops(rng)
            for e0 in g.bispecial_edges():
                u, v = g.edges[e0]
                for cin in g.in_edges(u):
                    for cout in g.out_edges(v):
                        if e0 in (cin, cout):
                            continue
                        try:
                            g2 = apply_rbs(g, e0, cin, cout)
                        except InadmissibleMove:
                            continue
                        assert degrees(g2) == degrees(g)
                        moves += 1
        assert moves > 100


def kind_of(graph, loops, move):
    """The move's kind as the move-log step decides it."""
    return _track_move(graph, loops, move)[1]


class TestClassify:
    def test_twist(self):
        g, _, loops = three_loop_fixture()
        assert kind_of(g, loops, Move("a", "c", "b")) == "twist"

    def test_shrink_u(self):
        g, _, loops = three_loop_fixture()
        assert kind_of(g, loops, Move("a", "c", "f")) == "shrink-u"

    def test_shrink_v_needs_second_right_special(self):
        # the 3-loop has a single right special vertex, so ejecting it
        # is refused even though the index pattern matches a shrink
        g, _, loops = three_loop_fixture()
        with pytest.raises(PreconditionFailure, match="only right special"):
            kind_of(g, loops, Move("a", "k", "b"))

    def test_collapse(self):
        g, _, loops = three_loop_fixture()
        assert kind_of(g, loops, Move("a", "k", "f")) == "collapse"

    def test_outside(self):
        g, _, loops = three_loop_fixture()
        assert kind_of(g, {"2": loops["2"]}, Move("a", "c", "b")) == "outside"

    def test_shrink_on_two_loop_rejected(self):
        g, _, loops = three_loop_fixture()
        with pytest.raises(PreconditionFailure, match="2-loop"):
            kind_of(g, loops, Move("d", "k", "e"))

    def test_shrink_needs_second_left_special(self):
        # a 3-loop with one left and two right specials: ejecting the
        # left vertex is refused, ejecting a right one is fine
        g = AbstractGraph(
            {"u1": "left", "v1": "right", "v2": "right", "u3": "left"},
            {"a": ("u1", "v1"), "b": ("v1", "v2"), "c": ("v2", "u1"),
             "f": ("v1", "u3"), "g": ("v2", "u3"), "h": ("u3", "u1")},
        )
        assert validate(g).ok
        loops = {"1": Loop(("a", "b", "c"))}
        with pytest.raises(PreconditionFailure, match="only left special"):
            kind_of(g, loops, Move("a", "c", "f"))
        assert kind_of(g, loops, Move("a", "h", "b")) == "shrink-v"


class TestQuotient:
    def test_two_loops_on_k3(self):
        g = k3_shape()
        loops = {"1": Loop(("a", "b")), "2": Loop(("c", "d"))}
        xi = build_xi(g, loops)
        assert len(xi.vertices) == 6 and len(xi.edges) == 5
        assert xi.is_connected()

    def test_count_identity_single_loop(self):
        g = k3_shape()
        xi = build_xi(g, {"1": Loop(("a", "b"))})
        # six vertices stay six (two merge, two new), edges drop by two
        assert len(xi.vertices) == 6 and len(xi.edges) == 7
        assert len(xi.edges) - len(xi.vertices) == g.K - 2

    def test_four_loop_picture(self):
        # a 4-loop u1 -> v1 -> v2 -> u2 -> u1 with five outside vertices;
        # after deletion and merging, the quotient keeps the pictured
        # incidences around the two merged vertices
        g = AbstractGraph(
            {"u1": "left", "v1": "right", "u2": "left", "v2": "right",
             "x1": "right", "x2": "left", "x3": "left", "x4": "left",
             "x5": "right"},
            {"l1": ("u1", "v1"), "l2": ("v1", "v2"), "l3": ("v2", "u2"),
             "l4": ("u2", "u1"),
             "e1": ("x1", "u1"), "e2": ("v1", "x2"), "e3": ("v2", "x3"),
             "e4": ("x4", "u2"), "e5": ("x5", "u2"),
             "r1": ("x2", "x1"), "r2": ("x3", "x5"), "r3": ("x5", "x4"),
             "r4": ("x1", "x3"), "r5": ("x3", "x2")},
        )
        loops = {"n": Loop(("l1", "l2", "l3", "l4"))}
        xi = build_xi(g, loops)
        incident = {
            frozenset((a, b)) for _, a, b in xi.edges if "n_l" in (a, b) or "n_r" in (a, b)
        }
        assert incident == {
            frozenset(("x1", "n_l")),
            frozenset(("n_r", "x2")),
            frozenset(("n_r", "x3")),
            frozenset(("x4", "n_l")),
            frozenset(("x5", "n_l")),
        }
        assert len(xi.edges) - len(xi.vertices) == g.K - 2

    def test_shrink_before_quotient(self):
        g, _, loops = three_loop_fixture()
        move = Move("a", "c", "f")
        xi = build_xi(g, loops, [move])
        assert len(xi.edges) - len(xi.vertices) == g.K - 2 * 2
        assert xi.is_connected()

    def test_move_off_the_loops_is_applied(self):
        g = k3_shape()
        loops = {"1": Loop(("a", "b")), "2": Loop(("c", "d"))}
        g2 = apply_rbs(g, "g", "j", "h")
        assert build_xi(g, loops, [Move("g", "j", "h")]) == build_xi(g2, loops)

    def test_collapse_in_log_rejected(self):
        g, _, loops = three_loop_fixture()
        with pytest.raises(PreconditionFailure, match="collapse"):
            build_xi(g, loops, [Move("a", "k", "f")])


class TestBoundCheck:
    def test_sturmian(self):
        g, _ = sturmian_shape()
        rep = bound_check(g, {"1": Loop(("a", "b"))})
        assert rep.xi_connected and rep.bound_satisfied
        assert (rep.E, rep.K) == (1, 1)

    def test_k3_two_loops(self):
        g = k3_shape()
        rep = bound_check(g, {"1": Loop(("a", "b")), "2": Loop(("c", "d"))})
        assert rep.xi_connected and rep.bound_satisfied

    def test_k2_two_loops_impossible(self):
        # with branching constant 2, two loops force a quotient with two
        # more vertices than edges: necessarily disconnected
        g = AbstractGraph(
            {"u1": "left", "v1": "right", "u2": "left", "v2": "right"},
            {"a": ("u1", "v1"), "b": ("v1", "u1"), "c": ("u2", "v2"),
             "d": ("v2", "u2"), "e": ("v1", "u2"), "f": ("v2", "u1")},
        )
        assert validate(g).ok
        rep = bound_check(g, {"1": Loop(("a", "b")), "2": Loop(("c", "d"))})
        assert not rep.xi_connected
        assert not rep.bound_satisfied
        assert rep.witness_components is not None


class TestComponentsAndTags:
    def test_fixture_components(self):
        g, _, loops = three_loop_fixture()
        assert validate(g).ok
        _check_loops(g, loops)
        ct = _tag_components(g, loops)
        comps = {frozenset(c) for c in ct.components}
        assert comps == {
            frozenset({"u1", "v2"}),
            frozenset({"u2", "v1", "w1", "x"}),
        }

    def test_shrink_merges_and_drops_ejected(self):
        g, _, loops = three_loop_fixture()
        eff = move_effect(g, loops, Move("a", "c", "f"))
        assert eff.kind == "B" and eff.ejected == "u1"
        assert len(eff.after.components) == 1
        merged_tag = eff.after.tags[0]
        assert "u1" not in set().union(*merged_tag)

    def test_twist_unchanged(self):
        g, _, loops = three_loop_fixture()
        eff = move_effect(g, loops, Move("a", "c", "b"))
        assert eff.kind == "A"
        assert eff.before.as_set() == eff.after.as_set()

    def test_twist_only_permutes_inside_the_loop(self):
        g, _, loops = three_loop_fixture()
        g2 = apply_rbs(g, "a", "c", "b")
        on_loop = set(loops["1"].edges)
        for eid, ends in g.edges.items():
            if eid not in on_loop:
                assert g2.edges[eid] == ends
        assert set(loop_vertices(g2, loops["1"])) == set(
            loop_vertices(g, loops["1"])
        )

    def test_collapse_not_abc(self):
        g, _, loops = three_loop_fixture()
        with pytest.raises(PreconditionFailure, match="A/B/C"):
            move_effect(g, loops, Move("a", "k", "f"))

    def test_randomized_against_recomputation(self):
        rng = random.Random(20240811)
        done = 0
        while done < 300:
            g, loops = random_graph_with_loops(rng)
            mv = random_abc_move(rng, g, loops)
            if mv is None:
                continue
            eff = move_effect(g, loops, mv)  # raises on any disagreement
            # the output is not re-checked inside move_effect
            assert validate(eff.graph_after).ok
            _check_loops(eff.graph_after, eff.loops_after)
            done += 1

    def test_equal_tags_evolve_equally(self):
        # two graphs with the same loops and equal components-and-tags
        # stay equal under the same loop move; off-loop moves on either
        # side leave them equal as well
        rng = random.Random(7)
        done = 0
        while done < 60:
            g, loops = random_graph_with_loops(rng)
            mv_c = random_abc_move(rng, g, loops)
            if mv_c is None:
                continue
            eff_c = move_effect(g, loops, mv_c)
            if eff_c.kind != "C":
                continue
            other = eff_c.graph_after
            assert validate(other).ok
            _check_loops(other, loops)
            assert _tag_components(g, loops).as_set() == _tag_components(
                other, loops
            ).as_set()
            log = random_twist_shrink_log(rng, g, loops, 1)
            if not log:
                continue
            mv = log[0]
            try:
                eff1 = move_effect(g, loops, mv)
                eff2 = move_effect(other, loops, mv)
            except (InadmissibleMove, PreconditionFailure):
                continue
            assert eff1.after.as_set() == eff2.after.as_set()
            done += 1


class TestItinerary:
    def build(self):
        g, coloring, loops = three_loop_fixture()
        m1 = Move("a", "c", "f")
        g1 = apply_rbs(g, "a", "c", "f")
        # the shrink ejects u1 from loop 1, so u1 and the rewired a lose color 1
        c1 = recolored(coloring, vertices={"u1": 0}, edges={"a": 0})
        p1 = {"1": Loop(("b", "c")), "2": loops["2"]}
        c2 = recolored(
            c1, vertices={"x": 1, "u1": 1}, edges={"g": 1, "f": 1, "a": 1}
        )
        p2 = {"2": loops["2"]}
        c3 = recolored(
            c2,
            vertices={"x": 2, "u1": 2},
            edges={"g": 0, "f": 2, "a": 0, "h": 2, "k": 2},
        )
        return Itinerary(
            [g, g1, g1, g1],
            [coloring, c1, c2, c3],
            [loops, p1, p2, {}],
            [[m1], [], []],
            [
                {"1": Event("shrink")},
                {"1": Event("spread", "g", "a")},
                {"2": Event("spread", "h", "k")},
            ],
        )

    def collapsing(self):
        g, coloring, loops = three_loop_fixture()
        return Itinerary(
            [g, g], [coloring, coloring], [loops, loops],
            [[Move("a", "k", "f")]], [{"1": Event("shrink")}],
        )

    def test_valid(self):
        it = self.build()
        verdict = itinerary_check(it)
        assert verdict.ok, verdict.violations
        assert verdict.moves == (Move("a", "c", "f"),)

    def test_collapse_reported_as_item_2(self):
        # a collapse does not replay: it is refused, not an item-2 violation
        with pytest.raises(PreconditionFailure) as exc:
            itinerary_check(self.collapsing())
        assert str(exc.value) == "collapse on tracked loop 1 at step 0"

    def test_bad_loops_refused_by_the_replay(self):
        it = self.build()
        it.partitions[1] = {"1": Loop(("b", "zz"))}
        with pytest.raises(PreconditionFailure, match="state 1 loops: loop edge 'zz'"):
            itinerary_check(it)

    def test_collapse_refused_by_twist_shrink_moves(self):
        # the step's moves are no twist-shrink log: neither the replay
        # nor build_xi takes the collapse
        it = self.collapsing()
        with pytest.raises(PreconditionFailure, match="collapse on tracked loop 1"):
            itinerary_check(it)
        with pytest.raises(PreconditionFailure, match="collapse on tracked loop 1"):
            build_xi(it.graphs[0], it.partitions[0], it.move_lists[0])

    def test_unknown_move_edge_reported_as_item_1(self):
        # an inadmissible move does not replay: refused, not an item-1 violation
        it = self.build()
        it.move_lists[0][0] = Move("zz", "c", "f")
        with pytest.raises(PreconditionFailure) as exc:
            itinerary_check(it)
        assert str(exc.value) == "move 0 at step 0 inadmissible: unknown edge zz"

    def test_final_state_loops_checked(self):
        # the replay checks the loops of every state but the last, whose
        # broken loop is a violation; the log is kept
        it = self.build()
        it.partitions[3] = {"2": Loop(("h", "zz"))}
        verdict = itinerary_check(it)
        assert verdict.violations == (
            "state 3 loop 2: loop edge 'zz' is not an edge of the graph",
        )
        assert verdict.moves == (Move("a", "c", "f"),)

    def test_invalid_state_keeps_the_log(self):
        it = self.build()
        it.colorings[1] = recolored(it.colorings[1], vertices={"x": 5}, edges={})
        verdict = itinerary_check(it)
        assert not verdict.ok
        assert verdict.violations[0].startswith("state 1 invalid: ")
        assert verdict.moves == (Move("a", "c", "f"),)

    def test_off_loop_move_left_out_of_the_log(self):
        # a move off every tracked loop replays but is no twist or shrink
        rng = random.Random(11)
        found = None
        while found is None:
            g, loops = random_graph_with_loops(rng)
            for lab, ids in _candidate_moves(g, loops):
                try:
                    if lab is None:
                        found = Move(*ids), _track_move(g, loops, Move(*ids))[2]
                        break
                except (InadmissibleMove, PreconditionFailure):
                    continue
        mv, g2 = found
        empty = Coloring({}, {})
        it = Itinerary([g, g2], [empty, empty], [loops, loops], [[mv]], [{}])
        verdict = itinerary_check(it)
        assert verdict.moves == ()
        assert "item-3: no event at step 0" in verdict.violations

    def test_spread_event_for_untracked_loop_is_a_violation(self):
        it = self.build()
        it.events[0]["9"] = Event("spread", "a", "a")
        verdict = itinerary_check(it)
        assert verdict.violations == ("item-3: event for untracked loop 9 at step 0",)

    def test_spread_loop_edge_missing_from_next_state(self):
        # the spreading loop's vertices are read in the replayed graph
        it = self.build()
        g = it.graphs[2]
        it.graphs[2] = AbstractGraph(
            dict(g.vertices), {("bb" if e == "b" else e): ends for e, ends in g.edges.items()}
        )
        verdict = itinerary_check(it)
        assert "item-1: replayed moves do not produce state 2" in verdict.violations
        assert verdict.moves == (Move("a", "c", "f"),)

    def test_trivial_immediate_spread(self):
        # two parallel-edge 2-loops of the same colors: both colors
        # already pass along outside edges, so everything spreads at once
        g = AbstractGraph(
            {"u1": "left", "v1": "right", "u2": "left", "v2": "right"},
            {"a": ("u1", "v1"), "b": ("v1", "u1"), "b2": ("v1", "u1"),
             "c": ("u2", "v2"), "d": ("v2", "u2"), "d2": ("v2", "u2"),
             "e": ("v1", "u2"), "f": ("v2", "u1")},
        )
        coloring = Coloring(
            {"u1": 1, "v1": 1, "u2": 2, "v2": 2},
            {"a": 1, "b": 1, "b2": 1, "c": 2, "d": 2, "d2": 2},
        )
        loops = {"1": Loop(("a", "b")), "2": Loop(("c", "d"))}
        it = Itinerary(
            [g, g],
            [coloring, coloring],
            [loops, {}],
            [[]],
            [{"1": Event("spread", "b2", "b2"), "2": Event("spread", "d2", "d2")}],
        )
        verdict = itinerary_check(it)
        assert verdict.ok, verdict.violations
        rep = bound_check(g, loops, verdict.moves)
        assert rep.xi_connected and rep.bound_satisfied

    def test_shrink_and_spread_same_step_rejected(self):
        it = self.build()
        # claim a spread for loop 1 in the same step as its shrink move
        it.events[0] = {"1": Event("spread", "g", "a")}
        it.partitions[1] = {"1": Loop(("b", "c")), "2": it.partitions[0]["2"]}
        verdict = itinerary_check(it)
        assert not verdict.ok

    def test_wrong_partition_rejected(self):
        it = self.build()
        # silently drop loop 2 although no event removed it
        it.partitions[1] = {"1": it.partitions[1]["1"]}
        verdict = itinerary_check(it)
        assert not verdict.ok
        assert any("item-5" in v for v in verdict.violations)

    def test_json_roundtrip(self):
        it = self.build()
        obj = itinerary_to_json(it)
        back = itinerary_from_json(obj)
        assert back.graphs == it.graphs
        assert itinerary_check(back).ok
        assert itinerary_to_json(back) == obj

    def test_bound_from_itinerary(self):
        it = self.build()
        rep = bound_check(it.graphs[0], it.partitions[0], itinerary_check(it).moves)
        assert rep.xi_connected
        assert (rep.E, rep.K) == (2, 3)
        assert rep.bound_satisfied


class TestSearch:
    def test_k3_attains_two(self):
        res = search_colorings(k3_shape(), 2)
        assert res.found is not None
        coloring, loops = res.found
        assert validate(k3_shape(), coloring).ok
        assert len(loops) == 2

    def test_k3_cannot_attain_three(self):
        res = search_colorings(k3_shape(), 3)
        assert res.found is None and res.exhausted

    def test_sturmian_max_one(self):
        g, _ = sturmian_shape()
        assert search_colorings(g, 1).found is not None
        res = search_colorings(g, 2)
        assert res.found is None and res.exhausted

    def test_found_colorings_pass_validation(self):
        # the canonical coloring of a found loop family meets the one-graph
        # rules by construction, so search_colorings does not re-check it
        rng = random.Random(31)
        graphs = [g for K in (1, 2, 3) for g in enumerate_valid_graphs(K, 6)]
        graphs += [random_graph_with_loops(rng)[0] for _ in range(500)]
        found = 0
        for g in graphs:
            for e_target in (1, 2, 3):
                res = search_colorings(g, e_target)
                if res.found is not None:
                    assert validate(g, res.found[0]).ok
                    found += 1
        assert found > 2500

    @pytest.mark.parametrize("e_target", [2, 3])
    def test_direct_quotients_match_checked_build_xi(self, e_target):
        # every K=3 graph up to 6 vertices: the search builds its quotients
        # without checking the families, which the reference checks
        found = 0
        for g in enumerate_valid_graphs(3, 6):
            res = search_colorings(g, e_target)
            assert res == reference_search_colorings(g, e_target)
            found += res.found is not None
        assert found == (286 if e_target == 2 else 0)

    def test_cycle_enumeration_counts(self):
        g, _ = sturmian_shape()
        cycles = simple_cycles(g)
        # a+b and a+c: parallel edges give distinct circuits
        assert len(cycles) == 2

    def test_exhaustive_probe_k2(self):
        cert, witness = exhaustive_bound_probe(2, 2, 8)
        assert cert.impossible and witness is None
        assert cert.graphs_examined == 17 and cert.truncated == 0

    def test_exhaustive_probe_k3_attains_two(self):
        cert, witness = exhaustive_bound_probe(3, 2, 6)
        assert (cert.graphs_examined, cert.witnesses) == (1558, 286)
        graph, coloring, loops = witness
        assert len(loops) == 2 and validate(graph, coloring).ok

    def test_exhaustive_probe_k3_cannot_attain_three(self):
        cert, witness = exhaustive_bound_probe(3, 3, 6)
        assert cert.graphs_examined == 1558 and cert.witnesses == 0
        assert cert.impossible and witness is None

    def test_truncated_search_is_not_impossible(self, monkeypatch):
        def capped(graph, e_target):
            return SearchResult(None, False, 0, "cycle cap reached; search incomplete")

        monkeypatch.setattr("shiftlab.abstract_graphs.search_colorings", capped)
        cert, witness = exhaustive_bound_probe(2, 2, 8)
        assert (cert.witnesses, cert.truncated) == (0, 17)
        assert not cert.impossible and witness is None

    def test_cycle_cap_reports_incomplete_search(self, monkeypatch):
        monkeypatch.setattr("shiftlab.abstract_graphs.MAX_CYCLES", 1)
        res = search_colorings(k3_shape(), 3)
        assert res.found is None and not res.exhausted
        assert res.note == "cycle cap reached; search incomplete"
        cert, witness = exhaustive_bound_probe(2, 2, 8)
        assert cert.witnesses == 0 and cert.truncated > 0
        assert not cert.impossible and witness is None

    def test_enumerated_graphs_are_valid(self):
        seen = 0
        for g in enumerate_valid_graphs(2, 8):
            assert validate(g).ok
            seen += 1
        assert seen == 17


def reference_search_colorings(graph: AbstractGraph, e_target: int) -> SearchResult:
    """The search through the checked entry: each vertex-disjoint family of
    circuits must pass ``_check_loops`` and is built by ``build_xi``."""
    cycles = simple_cycles(graph)
    exhausted = len(cycles) < MAX_CYCLES
    tried = 0
    for family in itertools.combinations(cycles, e_target):
        verts = [loop_vertices(graph, lp) for lp in family]
        if len(set().union(*verts)) != sum(map(len, verts)):
            continue
        tried += 1
        loops = {str(i + 1): lp for i, lp in enumerate(family)}
        _check_loops(graph, loops)
        if not build_xi(graph, loops).is_connected():
            continue
        coloring = Coloring(
            {w: i + 1 for i, vs in enumerate(verts) for w in vs},
            {e: i + 1 for i, lp in enumerate(family) for e in lp.edges},
        )
        return SearchResult((coloring, loops), exhausted, tried, "found")
    note = "exhausted" if exhausted else "cycle cap reached; search incomplete"
    return SearchResult(None, exhausted, tried, note)


def _reaches_every_vertex(g: AbstractGraph, forward: bool) -> bool:
    """Whether a search along (or against) the edges from one vertex
    reaches every vertex, read off the edge list alone."""
    nbrs: dict[str, list[str]] = {}
    for src, dst in g.edges.values():
        a, b = (src, dst) if forward else (dst, src)
        nbrs.setdefault(a, []).append(b)
    start = next(iter(g.vertices))
    seen, stack = {start}, [start]
    while stack:
        for w in nbrs.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(g.vertices)


class TestRandomInstances:
    def test_identity_and_bound_over_many(self):
        rng = random.Random(99)
        for _ in range(120):
            g, loops = random_graph_with_loops(rng)
            moves = random_twist_shrink_log(rng, g, loops, rng.randint(0, 4))
            xi = build_xi(g, loops, moves)
            E = len(loops)
            assert len(xi.edges) - len(xi.vertices) == g.K - 2 * E
            rep = bound_check(g, loops, moves)
            if rep.xi_connected:
                assert rep.bound_satisfied

    def test_json_roundtrip(self):
        rng = random.Random(5)
        g, _ = random_graph_with_loops(rng)
        assert graph_from_json(graph_to_json(g)) == g

    def test_instances_valid_by_construction(self):
        built = []
        original = AbstractGraph.__post_init__

        def recording(graph):
            built.append(graph)
            original(graph)

        for seed in range(2000):
            for n_loops in (None, 1, 2, 3):
                built.clear()
                with patch.object(AbstractGraph, "__post_init__", recording):
                    g, loops = random_graph_with_loops(random.Random(seed), n_loops)
                assert len(built) == 1 and built[0] is g
                # validate reads the strong connectivity recorded at
                # construction, so the search here tests it
                assert _reaches_every_vertex(g, forward=True)
                assert _reaches_every_vertex(g, forward=False)
                rep = validate(g)
                assert rep.ok
                _check_loops(g, loops)
                assert n_loops is None or len(loops) == n_loops
                assert g.K >= rep.K_right

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, g, loops: random_abc_move(rng, g, loops),
            lambda rng, g, loops: random_twist_shrink_log(rng, g, loops, 1),
        ],
        ids=["abc", "twist-shrink"],
    )
    def test_bad_loops_refused(self, draw):
        g, _ = sturmian_shape()
        with pytest.raises(PreconditionFailure, match="loop edge 'zz'"):
            draw(random.Random(1), g, {"1": Loop(("a", "zz"))})

    @pytest.mark.parametrize("n_loops", [0, -1])
    def test_no_loops_refused(self, n_loops):
        with pytest.raises(PreconditionFailure, match="n_loops must be >= 1"):
            random_graph_with_loops(random.Random(1), n_loops)
