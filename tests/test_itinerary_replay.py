"""``itinerary_check`` is the only replay of an itinerary's move log.

``ref_twist_shrink_moves`` is the replay that ``Itinerary`` once carried
as a method beside the check: for each step it checks the state's loops,
applies the step's moves, refuses an inadmissible move or a collapse, and
lists the moves on tracked loops.  On random itineraries cut from
``random_graph_with_loops`` and ``random_twist_shrink_log``, and on
mutations of them and of the two fixtures (appended moves, swapped
partition edges, events, colorings, renamed graph edges), the check must
return the reference's log as its ``moves`` wherever the reference
returns one, and raise ``PreconditionFailure`` with the reference's
message wherever the reference raises.
"""

import json
import random
from collections import Counter
from pathlib import Path

from shiftlab.abstract_graphs import (
    COLLAPSE,
    SHRINK_U,
    SHRINK_V,
    AbstractGraph,
    Coloring,
    Event,
    Itinerary,
    Loop,
    Move,
    itinerary_check,
    itinerary_from_json,
    loop_vertices,
    random_graph_with_loops,
    random_twist_shrink_log,
)
from shiftlab.abstract_graphs import _candidate_moves, _check_loops, _track_move
from shiftlab.errors import InadmissibleMove, PreconditionFailure

BENCH_ITINERARY = Path(__file__).resolve().parents[1] / "bench" / "inputs" / "itinerary.json"


def ref_twist_shrink_moves(it):
    """All moves in order that act on a tracked loop (twists and shrinks;
    off-loop moves are excluded).  A collapse raises, since ``build_xi``
    refuses it, as does an inadmissible move."""
    out = []
    for i in range(it.steps):
        current, track = it.graphs[i], it.partitions[i]
        try:
            _check_loops(current, track)
        except PreconditionFailure as exc:
            raise PreconditionFailure(f"state {i} loops: {exc}") from None
        for k, mv in enumerate(it.move_lists[i]):
            try:
                lab, kind, current, track = _track_move(current, track, mv)
            except (InadmissibleMove, PreconditionFailure) as exc:
                raise PreconditionFailure(
                    f"move {k} at step {i} inadmissible: {exc}"
                ) from None
            if kind == COLLAPSE:
                raise PreconditionFailure(f"collapse on tracked loop {lab} at step {i}")
            if lab is not None:
                out.append(mv)
    return out


def canonical_coloring(graph, loops):
    """Each loop colored with its own color, as the one-graph rules allow."""
    vertices, edges = {}, {}
    for color, lab in enumerate(sorted(loops), start=1):
        for e in loops[lab].edges:
            edges[e] = color
        for w in loop_vertices(graph, loops[lab]):
            vertices[w] = color
    return Coloring(vertices, edges)


def random_itinerary(rng):
    """A random twist/shrink log cut into one to three steps, with shrink
    events for the loops that shrink and, at times, every loop spreading
    at the last step."""
    graph, loops = random_graph_with_loops(rng)
    log = random_twist_shrink_log(rng, graph, loops, rng.randint(0, 6))
    cuts = sorted(rng.randint(0, len(log)) for _ in range(rng.randint(0, 2)))
    graphs, partitions, move_lists, events = [graph], [loops], [], []
    for lo, hi in zip([0, *cuts], [*cuts, len(log)]):
        g, track = graphs[-1], partitions[-1]
        step_events = {}
        for mv in log[lo:hi]:
            lab, kind, g, track = _track_move(g, track, mv)
            if kind in (SHRINK_U, SHRINK_V):
                step_events[lab] = Event("shrink")
        graphs.append(g)
        partitions.append(track)
        move_lists.append(list(log[lo:hi]))
        events.append(step_events)
    if rng.random() < 0.5:
        g = graphs[-1]
        for lab in partitions[-1]:
            e_in, e_out = rng.choice(sorted(g.edges)), rng.choice(sorted(g.edges))
            events[-1][lab] = Event("spread", e_in, e_out)
        partitions[-1] = {}
    colorings = [canonical_coloring(g, p) for g, p in zip(graphs, partitions)]
    return Itinerary(graphs, colorings, partitions, move_lists, events)


def copied(it):
    return Itinerary(
        list(it.graphs),
        list(it.colorings),
        [dict(p) for p in it.partitions],
        [list(ml) for ml in it.move_lists],
        [dict(evs) for evs in it.events],
    )


def mutated(rng, it):
    """``it`` with one random edit; the edited lists are copies."""
    it = copied(it)
    i = rng.randrange(it.steps)
    state = rng.randrange(it.steps + 1)
    g = it.graphs[state]
    edge_ids = sorted(g.edges)
    labels = sorted(it.partitions[state]) or ["1"]
    kind = rng.choice(["move", "move", "partition", "partition", "event", "coloring", "rename"])
    if kind == "move":
        # a rewrite of the graph the step should reach: on or off the loops,
        # admissible or not, a collapse, or one naming any edges at all
        candidates = [ids for _, ids in _candidate_moves(it.graphs[i + 1], {})]
        if candidates and rng.random() < 0.8:
            mv = Move(*rng.choice(candidates))
        else:
            mv = Move(*(rng.choice([*edge_ids, "zz"]) for _ in range(3)))
        it.move_lists[i].insert(rng.randint(0, len(it.move_lists[i])), mv)
    elif kind == "partition":
        lab = rng.choice(labels)
        edges = list(it.partitions[state].get(lab, Loop(())).edges)
        how = rng.choice(["swap", "reverse", "rotate", "copy"])
        if how == "swap" and edges:
            edges[rng.randrange(len(edges))] = rng.choice([*edge_ids, "zz"])
        elif how == "reverse":
            edges.reverse()
        elif how == "rotate" and edges:
            edges = edges[1:] + edges[:1]
        else:
            # a second label on the same circuit: the loops overlap
            it.partitions[state]["9"] = Loop(tuple(edges))
        it.partitions[state][lab] = Loop(tuple(edges))
    elif kind == "event":
        lab = rng.choice([*labels, "9"])
        if rng.random() < 0.3:
            it.events[i].pop(lab, None)
        elif rng.random() < 0.5:
            it.events[i][lab] = Event("shrink")
        else:
            ends = [rng.choice([*edge_ids, "zz"]) for _ in range(2)]
            it.events[i][lab] = Event("spread", *ends)
    elif kind == "coloring":
        c = it.colorings[state]
        if rng.random() < 0.5:
            w = rng.choice(sorted(g.vertices))
            c = Coloring({**c.vertex_colors, w: rng.randint(0, 3)}, c.edge_colors)
        else:
            e = rng.choice(edge_ids)
            c = Coloring(c.vertex_colors, {**c.edge_colors, e: rng.randint(0, 3)})
        it.colorings[state] = c
    else:
        old = rng.choice(edge_ids)
        it.graphs[state] = AbstractGraph(
            dict(g.vertices),
            {(old + "x" if e == old else e): ends for e, ends in g.edges.items()},
        )
    return it


def outcomes(it):
    """The reference's log or message, and the check's moves or message."""
    try:
        want = ("log", tuple(ref_twist_shrink_moves(it)))
    except PreconditionFailure as exc:
        want = ("refused", str(exc))
    try:
        verdict = itinerary_check(it)
    except PreconditionFailure as exc:
        return want, ("refused", str(exc)), None
    return want, ("log", verdict.moves), verdict


def test_check_replays_as_the_reference():
    from test_abstract_graphs import TestItinerary

    rng = random.Random(24)
    bench = itinerary_from_json(json.loads(BENCH_ITINERARY.read_text()))
    fixtures = [TestItinerary().build(), bench]
    cases = []
    for _ in range(150):
        it = random_itinerary(rng)
        # the cut log replays whole
        assert ref_twist_shrink_moves(it) == [mv for ml in it.move_lists for mv in ml]
        cases.append(it)
        cases += [mutated(rng, it) for _ in range(3)]
    for it in fixtures:
        for _ in range(150):
            edited = mutated(rng, it)
            cases.append(edited)
            cases.append(mutated(rng, edited))
    counts = Counter()
    for it in cases:
        want, got, verdict = outcomes(it)
        assert got == want
        if want[0] == "refused":
            counts[want[1].split(" ")[0]] += 1  # "state", "move" or "collapse"
        else:
            counts["valid"] += verdict.ok
            # the item checks ran: every state validates
            counts["items checked"] += not any(x.startswith("state") for x in verdict.violations)
            logged = sum(len(ml) for ml in it.move_lists)
            counts["off-loop"] += logged > len(want[1])
            counts["twist/shrink"] += bool(want[1])
    assert counts["state"] > 50 and counts["move"] > 50 and counts["collapse"] > 10, counts
    assert counts["valid"] > 20 and counts["items checked"] > 300, counts
    assert counts["off-loop"] > 10 and counts["twist/shrink"] > 100, counts

