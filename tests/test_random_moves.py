"""Random rewrite moves against hand-written references.

``random_twist_shrink_log`` and ``random_abc_move`` draw from the
candidates of ``_candidate_moves`` the moves that ``_track_move`` would
apply.  The references below list the same moves another way: the
twists and shrinks from each loop's own structure (another in-edge at
``u`` ejects ``v``, another out-edge at ``v`` ejects ``u``, and a loop keeps
at least one vertex of each kind), and the A/B/C moves by classifying
each on-loop move against its loop.  Each keeps only the moves that
``apply_rbs`` accepts.

The generators decide each candidate by classification and ``_rewire``,
without building a graph; ``old_first_tracked`` keeps the body that
applied each candidate with ``_track_move``, and the generators must draw
the same moves as the ones built on it, from the same random stream.
"""

import random

from shiftlab.abstract_graphs import (
    COLLAPSE,
    SHRINK_U,
    SHRINK_V,
    TWIST,
    Move,
    apply_rbs,
    classify_move,
    loop_vertices,
    random_abc_move,
    random_graph_with_loops,
    random_twist_shrink_log,
)
from shiftlab.abstract_graphs import _candidate_moves, _check_loops, _track_move
from shiftlab.errors import InadmissibleMove, PreconditionFailure


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
                        kind = classify_move(graph, loops[lab], mv)
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
