"""Random rewrite moves against hand-written references.

``random_twist_shrink_log`` and ``random_abc_move`` draw from the
candidates of ``_candidate_moves`` the moves that ``_track_move`` would
apply.  The references below list the same moves another way: the
twists and shrinks from each loop's own structure (another in-edge at
``u`` ejects ``v``, another out-edge at ``v`` ejects ``u``, and a loop keeps
at least one vertex of each kind), and the A/B/C moves by classifying
each on-loop move against its loop with ``reference_classify``.  Each
keeps only the moves that ``apply_rbs`` accepts.

The generators admit each candidate through ``_track_move`` and continue
from the graph it builds.  ``old_first_tracked`` is that draw over lists
of ``Move``; the generators must draw the same moves as the ones built on
it, from the same random stream.  ``reference_track_move`` classifies a
move against every loop in label order with ``reference_classify``, a
classifier of one move against one loop, and ``_track_move``, which
decides the kind itself and asks only the loop that holds ``e0``, must
agree with it: the same kind and result, or the same refusal.
``reference_random_graph_with_loops`` builds each path of a random
instance from a generator of edge ids and counts degrees with
``Counter``; the one-pass generator must build the same instance from
the same random calls.
"""

import itertools
import random
from collections import Counter

from shiftlab.abstract_graphs import (
    COLLAPSE,
    OUTSIDE,
    SHRINK_U,
    SHRINK_V,
    TWIST,
    AbstractGraph,
    Loop,
    Move,
    apply_rbs,
    loop_vertices,
    random_abc_move,
    random_graph_with_loops,
    random_twist_shrink_log,
)
from shiftlab.abstract_graphs import _candidate_moves, _check_loops, _track_move
from shiftlab.errors import InadmissibleMove, PreconditionFailure


def reference_classify(graph, loop, move):
    """Kind of the move relative to one loop, which ``check_loop`` has
    accepted for the graph: ``twist`` keeps the loop, ``shrink-u`` and
    ``shrink-v`` eject the left or right vertex of the rewired edge,
    ``collapse`` destroys the loop, and ``outside`` means the move does
    not touch the loop at all."""
    if move.e0 not in graph.edges:
        raise PreconditionFailure(f"unknown edge {move.e0}")
    u, v = graph.edges[move.e0]
    if move.e0 not in loop.edges:
        lverts = loop_vertices(graph, loop)
        if u in lverts or v in lverts:
            raise PreconditionFailure(
                "a bispecial edge touching a loop vertex must be a loop edge"
            )
        return OUTSIDE
    idx = loop.edges.index(move.e0)
    loop_in = loop.edges[idx - 1]  # loop edge ending at u
    loop_out = loop.edges[(idx + 1) % len(loop.edges)]  # loop edge leaving v
    in_on_loop = move.chosen_in == loop_in
    out_on_loop = move.chosen_out == loop_out
    if in_on_loop and out_on_loop:
        return TWIST
    if not in_on_loop and not out_on_loop:
        return COLLAPSE
    if len(loop.edges) == 2:
        raise PreconditionFailure("shrink is never allowed in a 2-loop")
    # choosing the loop's in-edge at u ejects u, choosing its out-edge at v ejects v
    side, kind = ("left", SHRINK_U) if in_on_loop else ("right", SHRINK_V)
    if sum(1 for w in loop_vertices(graph, loop) if graph.vertices[w] == side) < 2:
        raise PreconditionFailure(f"cannot eject the loop's only {side} special vertex")
    return kind


def admissible(graph, moves):
    out = set()
    for mv in moves:
        try:
            apply_rbs(graph, mv.e0, mv.chosen_in, mv.chosen_out)
        except (InadmissibleMove, PreconditionFailure):
            continue
        out.add(mv)
    return out


def naive_twist_shrink_moves(graph, track):
    moves = []
    for lab in sorted(track):
        lp = track[lab]
        lvs = loop_vertices(graph, lp)
        lefts_on = sum(1 for w in lvs if graph.vertices[w] == "left")
        rights_on = len(lvs) - lefts_on
        for idx, eid in enumerate(lp.edges):
            u, v = graph.edges[eid]
            if graph.vertices[u] != "left" or graph.vertices[v] != "right":
                continue
            loop_in = lp.edges[idx - 1]
            loop_out = lp.edges[(idx + 1) % len(lp.edges)]
            moves.append(Move(eid, loop_in, loop_out))
            if len(lp.edges) >= 3:
                for cin in graph.in_edges(u):
                    if cin != loop_in and cin != eid and rights_on >= 2:
                        moves.append(Move(eid, cin, loop_out))
                for cout in graph.out_edges(v):
                    if cout != loop_out and cout != eid and lefts_on >= 2:
                        moves.append(Move(eid, loop_in, cout))
    return admissible(graph, moves)


def naive_abc_moves(graph, loops):
    loop_vs = {w for lab in loops for w in loop_vertices(graph, loops[lab])}
    moves = []
    for e0 in graph.bispecial_edges():
        u, v = graph.edges[e0]
        on_loop = u in loop_vs or v in loop_vs
        lab = None
        for cand in sorted(loops):
            if e0 in loops[cand].edges:
                lab = cand
        if on_loop and lab is None:
            continue
        for cin in graph.in_edges(u):
            if cin == e0:
                continue
            for cout in graph.out_edges(v):
                if cout == e0:
                    continue
                mv = Move(e0, cin, cout)
                if lab is not None:
                    try:
                        kind = reference_classify(graph, loops[lab], mv)
                    except PreconditionFailure:
                        continue
                    if kind == COLLAPSE:
                        continue
                moves.append(mv)
    return admissible(graph, moves)


def accepted_candidates(graph, loops):
    """Candidates that ``_track_move`` applies without a collapse, as a
    map from move to its loop label."""
    out = {}
    for lab, ids in _candidate_moves(graph, loops):
        mv = Move(*ids)
        try:
            _, kind, _, _ = _track_move(graph, loops, mv)
        except (InadmissibleMove, PreconditionFailure):
            continue
        if kind != COLLAPSE:
            out[mv] = lab
    return out


def test_random_moves_match_naive_references():
    # every state of random twist/shrink logs of up to five moves
    rng = random.Random(20261018)
    kinds = set()
    states = 0
    for _ in range(300):
        graph, track = random_graph_with_loops(rng)
        for _ in range(6):
            states += 1
            ts_ref = naive_twist_shrink_moves(graph, track)
            abc_ref = naive_abc_moves(graph, track)
            accepted = accepted_candidates(graph, track)
            assert set(accepted) == abc_ref
            assert {mv for mv, lab in accepted.items() if lab is not None} == ts_ref
            mv = random_abc_move(rng, graph, track)
            assert mv in abc_ref if abc_ref else mv is None
            log = random_twist_shrink_log(rng, graph, track, 1)
            assert log[0] in ts_ref if ts_ref else log == []
            if not log:
                break
            _, kind, graph, track = _track_move(graph, track, log[0])
            kinds.add(kind)
    assert {TWIST, SHRINK_U, SHRINK_V} <= kinds
    assert states > 1200


def old_first_tracked(rng, graph, loops, candidates):
    rng.shuffle(candidates)
    for mv in candidates:
        try:
            _, kind, graph_after, loops_after = _track_move(graph, loops, mv)
        except (InadmissibleMove, PreconditionFailure):
            continue
        if kind != COLLAPSE:
            return mv, graph_after, loops_after
    return None


def old_random_abc_move(rng, graph, loops):
    _check_loops(graph, loops)
    candidates = [Move(*ids) for _, ids in _candidate_moves(graph, loops)]
    step = old_first_tracked(rng, graph, loops, candidates)
    return None if step is None else step[0]


def old_random_twist_shrink_log(rng, graph, loops, length):
    _check_loops(graph, loops)
    current, track = graph, loops
    out = []
    for _ in range(length):
        on_loop = [Move(*ids) for lab, ids in _candidate_moves(current, track) if lab is not None]
        step = old_first_tracked(rng, current, track, on_loop)
        if step is None:
            break
        mv, current, track = step
        out.append(mv)
    return out


def test_generators_match_old_first_tracked():
    instances = random.Random(31)
    for seed in range(400):
        graph, loops = random_graph_with_loops(instances)
        new, old = random.Random(seed), random.Random(seed)
        assert random_abc_move(new, graph, loops) == old_random_abc_move(old, graph, loops)
        assert random_twist_shrink_log(new, graph, loops, 6) == old_random_twist_shrink_log(
            old, graph, loops, 6
        )
        assert new.getstate() == old.getstate()


def reference_track_move(graph, loops, move):
    label, kind = None, OUTSIDE
    for lab in sorted(loops):
        kind = reference_classify(graph, loops[lab], move)
        if kind != OUTSIDE:
            label = lab
            break
    if kind == COLLAPSE:
        return label, kind, graph, loops
    graph_after = apply_rbs(graph, move.e0, move.chosen_in, move.chosen_out)
    loops_after = dict(loops)
    if kind in (SHRINK_U, SHRINK_V):
        loops_after[label] = Loop(tuple(e for e in loops[label].edges if e != move.e0))
    return label, kind, graph_after, loops_after


def tracked(fn, graph, loops, move):
    try:
        label, kind, graph_after, loops_after = fn(graph, loops, move)
    except (InadmissibleMove, PreconditionFailure) as exc:
        return type(exc).__name__, str(exc)
    return label, kind, graph_after, {lab: lp.edges for lab, lp in loops_after.items()}


def with_touching_edge(rng, graph, loops):
    """The graph plus a bispecial edge ``x`` off the loops from a left loop
    vertex, or into a right loop vertex."""
    loop_vs = [w for lab in sorted(loops) for w in loop_vertices(graph, loops[lab])]
    lefts = [w for w in graph.vertex_list() if graph.vertices[w] == "left"]
    rights = [w for w in graph.vertex_list() if graph.vertices[w] == "right"]
    if rng.random() < 0.5:
        ends = (rng.choice([w for w in loop_vs if w in lefts]), rng.choice(rights))
    else:
        ends = (rng.choice(lefts), rng.choice([w for w in loop_vs if w in rights]))
    return AbstractGraph(dict(graph.vertices), {**graph.edges, "x": ends})


def test_track_move_matches_label_order_reference():
    # every candidate move of every state of random twist/shrink logs, the
    # same with no tracked loops, and every move on an extra edge that
    # touches a loop vertex off the loops
    rng = random.Random(1414)
    seen = Counter()
    for _ in range(300):
        graph, track = random_graph_with_loops(rng)
        for _ in range(4):
            touching = with_touching_edge(rng, graph, track)
            cases = [(graph, track, Move(*ids)) for _, ids in _candidate_moves(graph, track)]
            cases += [(graph, {}, mv) for _, _, mv in cases]
            cases += [(touching, track, Move(*ids))
                      for _, ids in _candidate_moves(touching, track) if ids[0] == "x"]
            cases.append((graph, track, Move("zz", "a", "b")))
            for g, loops, mv in cases:
                got = tracked(_track_move, g, loops, mv)
                assert got == tracked(reference_track_move, g, loops, mv), mv
                seen[got[1]] += 1  # the kind, or the refusal's message
            log = random_twist_shrink_log(rng, graph, track, 1)
            if not log:
                break
            _, _, graph, track = _track_move(graph, track, log[0])
    assert min(seen[k] for k in (TWIST, SHRINK_U, SHRINK_V, COLLAPSE, OUTSIDE)) > 100
    assert seen["a bispecial edge touching a loop vertex must be a loop edge"] > 500
    assert seen["unknown edge zz"] > 500
    assert seen["shrink is never allowed in a 2-loop"] > 100
    assert seen["cannot eject the loop's only left special vertex"] > 100
    assert seen["cannot eject the loop's only right special vertex"] > 100


def reference_random_graph_with_loops(rng, n_loops=None):
    E = n_loops if n_loops is not None else rng.choice([1, 1, 2, 2, 3])
    sizes = [rng.choice([2, 2, 3, 3, 4]) for _ in range(E)]
    verts = {}
    edges = {}
    counter = itertools.count()

    def add_path(*path):
        eids = tuple(f"e{next(counter):03d}" for _ in path[1:])
        edges.update(zip(eids, zip(path, path[1:])))
        return eids

    def pick(names, kind):
        return rng.choice([w for w in names if verts[w] == kind])

    loops = {}
    rings = []
    for li, size in enumerate(sizes, start=1):
        kinds = ["left", "right"] + [
            rng.choice(["left", "right"]) for _ in range(size - 2)
        ]
        rng.shuffle(kinds)
        names = [f"L{li}x{j}" for j in range(size)]
        verts.update(zip(names, kinds))
        loops[str(li)] = Loop(add_path(*names, names[0]))
        rings.append(names)
    extra = [f"w{j}" for j in range(rng.choice([0, 1, 1, 2, 2, 3]))]
    for w in extra:
        verts[w] = rng.choice(["left", "right"])
    core = rings[0]
    for names in rings[1:]:
        add_path(pick(core, "right"), pick(names, "left"))
        add_path(pick(names, "right"), pick(core, "left"))
        core = core + names
    if extra:
        add_path(pick(core, "right"), *extra, pick(core, "left"))
    lefts = sorted(w for w, k in verts.items() if k == "left")
    rights = sorted(w for w, k in verts.items() if k == "right")
    out_count = Counter(s for s, _ in edges.values())
    for v in rights:
        for _ in range(2 - out_count[v]):
            add_path(v, rng.choice(lefts))
    in_count = Counter(d for _, d in edges.values())
    for u in lefts:
        for _ in range(2 - in_count[u]):
            add_path(rng.choice(rights), u)
    for _ in range(rng.choice([0, 0, 1, 2])):
        add_path(rng.choice(rights), rng.choice(lefts))
    return AbstractGraph(verts, edges), loops


def test_random_graph_matches_reference():
    for seed in range(2000):
        for n_loops in (None, 1, 2, 3, 4):
            new, old = random.Random(seed), random.Random(seed)
            graph, loops = random_graph_with_loops(new, n_loops)
            ref_graph, ref_loops = reference_random_graph_with_loops(old, n_loops)
            assert list(graph.vertices.items()) == list(ref_graph.vertices.items())
            assert list(graph.edges.items()) == list(ref_graph.edges.items())
            assert loops == ref_loops
            assert new.getstate() == old.getstate()
