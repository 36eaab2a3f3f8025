"""Abstract branching graphs with colorings, local rewrites, loop
tracking, and the loop-deleted quotient whose connectivity bounds the
number of distinctly colored loops.

Vertices are named strings tagged ``left``/``right``; edges carry stable
string ids that survive rewrites, so loops and move logs can reference
edges across a whole rewrite history.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._graphutil import (
    arc_index,
    dot_quote,
    is_strongly_connected,
    is_weakly_connected,
    reaches,
    weak_components,
)
from .errors import (
    InadmissibleMove,
    InvariantViolation,
    PreconditionFailure,
)

# ---------------------------------------------------------------------------
# graphs and colorings


@dataclass(frozen=True)
class AbstractGraph:
    """Directed multigraph with left/right tagged vertices.

    The structural rules: left vertices have one out-edge and at least
    two in-edges, right vertices one in-edge and at least two out-edges,
    the graph is strongly connected and has no self-loops.  The excess
    ``edges - vertices`` is the branching constant ``K``.

    Nothing mutates ``vertices`` or ``edges`` after construction (rewrites
    build a new graph), so the adjacency index and the strong connectivity
    verdict are computed once, on first use, and serve every later query.
    For the same reason a rewrite's result depends only on the graph and
    the move, and :func:`apply_rbs` keeps each result in ``_rewrites``,
    keyed by ``(e0, chosen_in, chosen_out)``: replaying a move costs a
    lookup.
    """

    vertices: dict[str, str]  # name -> "left" | "right"
    edges: dict[str, tuple[str, str]]  # id -> (src, dst)

    def __post_init__(self):
        for eid, (s, d) in self.edges.items():
            if s not in self.vertices or d not in self.vertices:
                raise ValueError(f"edge {eid} has unknown endpoint")
        for kind in self.vertices.values():
            if kind not in ("left", "right"):
                raise ValueError(f"unknown vertex kind {kind!r}")

    # -- structure queries

    def vertex_list(self) -> list[str]:
        return sorted(self.vertices)

    def edge_list(self) -> list[str]:
        return sorted(self.edges)

    @cached_property
    def _adjacency(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        return arc_index((e, *self.edges[e]) for e in self.edge_list())

    @cached_property
    def _rewrites(self) -> dict[tuple[str, str, str], "AbstractGraph"]:
        return {}

    def in_edges(self, v: str) -> list[str]:
        """Edge ids ending at ``v``, ascending."""
        return list(self._adjacency[1].get(v, ()))

    def out_edges(self, v: str) -> list[str]:
        """Edge ids leaving ``v``, ascending."""
        return list(self._adjacency[0].get(v, ()))

    def successors(self, v: str) -> list[str]:
        return [self.edges[e][1] for e in self._adjacency[0].get(v, ())]

    def predecessors(self, v: str) -> list[str]:
        return [self.edges[e][0] for e in self._adjacency[1].get(v, ())]

    @property
    def K(self) -> int:
        return len(self.edges) - len(self.vertices)

    @cached_property
    def _strongly_connected(self) -> bool:
        return is_strongly_connected(
            self.vertex_list(), self.successors, self.predecessors
        )

    def is_strongly_connected(self) -> bool:
        return self._strongly_connected

    def bispecial_edges(self) -> list[str]:
        """Edges from a left vertex to a right vertex, ascending: the
        out-edges of the left vertices that end at a right vertex."""
        kinds, edges, outs = self.vertices, self.edges, self._adjacency[0]
        return sorted(
            e
            for w, kind in kinds.items()
            if kind == "left"
            for e in outs.get(w, ())
            if kinds[edges[e][1]] == "right"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AbstractGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )


@dataclass(frozen=True)
class Coloring:
    """Vertex and edge colors; 0 means uncolored."""

    vertex_colors: dict[str, int]
    edge_colors: dict[str, int]

    def vertex(self, v: str) -> int:
        return self.vertex_colors.get(v, 0)

    def edge(self, e: str) -> int:
        return self.edge_colors.get(e, 0)

    def max_color(self) -> int:
        used = list(self.vertex_colors.values()) + list(self.edge_colors.values())
        return max(used, default=0)

    def same_on(self, other: "Coloring", vertices: Iterable[str], edges: Iterable[str]) -> bool:
        return all(self.vertex(v) == other.vertex(v) for v in vertices) and all(
            self.edge(e) == other.edge(e) for e in edges
        )


@dataclass(frozen=True)
class Loop:
    """A directed circuit given as an edge-id tuple in circuit order."""

    edges: tuple[str, ...]


def loop_vertices(graph: AbstractGraph, loop: Loop) -> list[str]:
    """Circuit vertices in order (source of each loop edge)."""
    return [graph.edges[e][0] for e in loop.edges]


def check_loop(graph: AbstractGraph, loop: Loop) -> tuple[str, ...]:
    """Refuse a loop that is not a vertex self-avoiding circuit of the
    graph with a left and a right vertex; return its vertices in circuit
    order, as :func:`loop_vertices` lists them.

    Each edge's ends are looked up once.  The refusals keep their order:
    a short loop, then the first unknown edge, the first pair of edges
    that do not meet, a repeated vertex, and a loop of one vertex kind."""
    eids = loop.edges
    if len(eids) < 2:
        raise PreconditionFailure("a loop needs at least two edges")
    try:
        # two or more ids, so the getter returns a tuple of ends
        verts, targets = zip(*itemgetter(*eids)(graph.edges))
    except KeyError:
        e = next(e for e in eids if e not in graph.edges)
        raise PreconditionFailure(f"loop edge {e!r} is not an edge of the graph") from None
    if targets[-1] != verts[0] or targets[:-1] != verts[1:]:
        i = next(i for i, d in enumerate(targets) if d != verts[(i + 1) % len(verts)])
        e, f = eids[i], eids[(i + 1) % len(eids)]
        raise PreconditionFailure(f"edges {e},{f} are not consecutive")
    if len(set(verts)) != len(verts):
        raise PreconditionFailure("loop is not vertex self-avoiding")
    if len(set(itemgetter(*verts)(graph.vertices))) != 2:
        raise PreconditionFailure("a loop needs a left and a right vertex")
    return verts


def _check_loops(graph: AbstractGraph, loops: Mapping[str, Loop]) -> None:
    """Every loop is a self-avoiding circuit of the graph, and the loops
    are vertex-disjoint.

    The loops are checked one by one in label order, then compared: as
    each loop's vertices are distinct, the loops are disjoint iff they hold
    as many vertices together as apart."""
    seen: set[str] = set()
    total = 0
    for lab in sorted(loops):
        verts = check_loop(graph, loops[lab])
        seen.update(verts)
        total += len(verts)
    if len(seen) != total:
        raise PreconditionFailure("tracked loops must be vertex-disjoint")


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    K: int
    K_left: int
    K_right: int
    E: int


def validate(graph: AbstractGraph, coloring: Coloring | None = None) -> ValidationReport:
    """Check the structural notation items (1-8) and the one-graph
    coloring rules (1-4); violations name the failed item."""
    v: list[str] = []
    out_ids, in_ids = graph._adjacency
    K_left = 0
    for name, kind in sorted(graph.vertices.items()):
        ins, outs = len(in_ids.get(name, ())), len(out_ids.get(name, ()))
        if kind == "left":
            K_left += 1
            if outs != 1 or ins < 2:
                v.append(f"notation-2: left vertex {name} has in={ins}, out={outs}")
        elif ins != 1 or outs < 2:
            v.append(f"notation-3: right vertex {name} has in={ins}, out={outs}")
    if graph.K < 1:
        v.append(f"notation-4: edge excess K={graph.K} must be >= 1")
    if not graph.is_strongly_connected():
        v.append("notation-5: graph is not strongly connected")
    for eid in sorted(e for e, (s, d) in graph.edges.items() if s == d):
        v.append(f"notation-5: self-loop {eid} at {graph.edges[eid][0]}")
    E = 0
    if coloring is not None:
        E = coloring.max_color()
        for eid in graph.edge_list():
            c = coloring.edge(eid)
            if c < 0:
                v.append(f"rules1-1: negative color on edge {eid}")
            if c != 0:
                s, d = graph.edges[eid]
                if coloring.vertex(s) != c or coloring.vertex(d) != c:
                    v.append(
                        f"notation-8: edge {eid} colored {c} but endpoints "
                        f"{coloring.vertex(s)},{coloring.vertex(d)}"
                    )
        for name in graph.vertex_list():
            if coloring.vertex(name) < 0:
                v.append(f"rules1-1: negative color on vertex {name}")
        for color in range(1, E + 1):
            kinds = {k for w, k in graph.vertices.items() if coloring.vertex(w) == color}
            if len(kinds) != 2:
                v.append(
                    f"rules1-2: color {color} misses a left or right special vertex"
                )
        for name in graph.vertex_list():
            c = coloring.vertex(name)
            if c != 0:
                if not any(coloring.edge(e) == c for e in graph.in_edges(name)):
                    v.append(f"rules1-3: vertex {name} lacks an in-edge of color {c}")
                if not any(coloring.edge(e) == c for e in graph.out_edges(name)):
                    v.append(f"rules1-3: vertex {name} lacks an out-edge of color {c}")
        for eid in graph.edge_list():
            c = coloring.edge(eid)
            if c != 0 and not _on_monochromatic_circuit(graph, coloring, eid):
                v.append(f"rules1-4: edge {eid} is on no circuit of color {c}")
    K_right = len(graph.vertices) - K_left
    return ValidationReport(not v, tuple(v), graph.K, K_left, K_right, E)


def _on_monochromatic_circuit(
    graph: AbstractGraph, coloring: Coloring, eid: str
) -> bool:
    color = coloring.edge(eid)
    s, d = graph.edges[eid]
    # a directed path d -> s through edges of the same color
    return reaches(d, s, lambda x: [
        graph.edges[e][1] for e in graph.out_edges(x) if coloring.edge(e) == color
    ])


# ---------------------------------------------------------------------------
# RBS rewrites


class Move(NamedTuple):
    """One local rewrite: the bispecial edge plus the chosen in-edge of
    its source and out-edge of its target.  A named tuple, as a random
    draw builds one for every candidate it tries."""

    e0: str
    chosen_in: str
    chosen_out: str

    def to_json(self) -> dict:
        return {"e0": self.e0, "in": self.chosen_in, "out": self.chosen_out}


def apply_rbs(
    graph: AbstractGraph, e0: str, chosen_in: str, chosen_out: str
) -> AbstractGraph:
    """Rewire around a bispecial edge.

    The bispecial edge ends up reversed; the chosen in-edge follows the
    right vertex, the chosen out-edge follows the left vertex, all other
    incident edges stay, so every vertex keeps its in- and out-degree
    (``e0`` trades places with ``chosen_in`` at ``v`` and with
    ``chosen_out`` at ``u``).  Raises when the choice yields a self-loop or
    a disconnected graph.

    A move is refused (:class:`PreconditionFailure`) unless ``e0 = u->v``
    is ``u``'s only out-edge and ``v``'s only in-edge.  Then the result G'
    is strongly connected iff G is and ``u`` reaches ``v`` in G', so one
    search decides before any graph is built, and G' records the verdict.
    Proof: contract ``{u, v}``; the rewrite only moves edge ends between
    ``u`` and ``v``, so both quotients have the same edges.  G (entered at
    ``u``, left from ``v``) is strongly connected iff its quotient is; G'
    iff its quotient is and ``u`` reaches ``v``, as ``v->u`` is ``e0`` now.

    G' derives its adjacency index from G's.  The edges that move (``e0``,
    the in-edges of ``u``, the out-edges of ``v``) are all the edges at
    ``u`` or ``v``, before and after; an in-edge of ``u`` keeps its source
    and an out-edge of ``v`` its target, so only the lists of ``u`` and
    ``v`` change.  The chosen out-edge becomes ``u``'s only out-edge, the
    chosen in-edge ``v``'s only in-edge, and ``e0 = v->u`` takes their
    places among ``u``'s in-edges and ``v``'s out-edges, sorted again so
    that every list stays ascending by id.

    The result is kept on ``graph`` (see :class:`AbstractGraph`), so the
    same move on the same graph returns the same object; a refused move is
    not kept and raises again.  It is built without the endpoint and kind
    check of ``AbstractGraph.__post_init__``, which cannot fail here: G'
    has G's vertices with their kinds, and every moved edge end is ``u``
    or ``v``.
    """
    rewrites = graph._rewrites
    key = (e0, chosen_in, chosen_out)
    if key in rewrites:
        return rewrites[key]
    u, v, moved = _rewire(graph, e0, chosen_in, chosen_out)
    result = object.__new__(AbstractGraph)
    object.__setattr__(result, "vertices", dict(graph.vertices))
    object.__setattr__(result, "edges", {**graph.edges, **moved})
    outs, ins = (dict(index) for index in graph._adjacency)
    outs[u], ins[v] = [chosen_out], [chosen_in]
    ins[u] = sorted([e0, *(e for e in ins[u] if e != chosen_in)])
    outs[v] = sorted([e0, *(e for e in outs[v] if e != chosen_out)])
    object.__setattr__(result, "_adjacency", (outs, ins))
    object.__setattr__(result, "_strongly_connected", True)
    rewrites[key] = result
    return result


def _rewire(
    graph: AbstractGraph, e0: str, chosen_in: str, chosen_out: str
) -> tuple[str, str, dict[str, tuple[str, str]]]:
    """Every refusal of :func:`apply_rbs`, decided without building a
    graph; returns ``e0``'s ends ``u``, ``v`` and the new ends of every edge
    at ``u`` or ``v``."""
    if e0 not in graph.edges:
        raise PreconditionFailure(f"unknown edge {e0}")
    u, v = graph.edges[e0]
    if graph.vertices[u] != "left" or graph.vertices[v] != "right":
        raise PreconditionFailure(f"edge {e0} is not bispecial")
    outs, ins = graph._adjacency
    for w, side, ids in ((u, "out", outs[u]), (v, "in", ins[v])):
        if len(ids) != 1:
            raise PreconditionFailure(
                f"{graph.vertices[w]} vertex {w} has {side}-degree {len(ids)}, not 1"
            )
    in_ids = ins.get(u, ())
    out_ids = outs.get(v, ())
    if chosen_in not in in_ids:
        raise PreconditionFailure(f"{chosen_in} does not end at {u}")
    if chosen_out not in out_ids:
        raise PreconditionFailure(f"{chosen_out} does not begin at {v}")
    # new ends of every edge at u or v: e0, the in-edges of u and the
    # out-edges of v; these include every edge leaving u or v afterwards
    moved = {e0: (v, u)}
    for eid in in_ids:
        moved[eid] = (graph.edges[eid][0], v if eid == chosen_in else u)
    for eid in out_ids:
        d = moved.get(eid, graph.edges[eid])[1]
        moved[eid] = (u if eid == chosen_out else v, d)
    # every other edge keeps its ends
    for eid, (s, d) in moved.items():
        if s == d:
            raise InadmissibleMove(
                f"choice ({chosen_in},{chosen_out}) creates self-loop {eid}"
            )

    def successors_after(x: str) -> list[str]:
        if x == u or x == v:
            return [d for s, d in moved.values() if s == x]
        return [moved.get(e, graph.edges[e])[1] for e in outs.get(x, ())]

    if not (graph.is_strongly_connected() and reaches(u, v, successors_after)):
        raise InadmissibleMove(
            f"choice ({chosen_in},{chosen_out}) disconnects the graph"
        )
    return u, v, moved


# -- move classification ----------------------------------------------------

TWIST = "twist"
SHRINK_U = "shrink-u"
SHRINK_V = "shrink-v"
COLLAPSE = "collapse"
OUTSIDE = "outside"


def _track_move(
    graph: AbstractGraph, loops: Mapping[str, Loop], move: Move
) -> tuple[str | None, str, AbstractGraph, Mapping[str, Loop]]:
    """One step of a move log over vertex-disjoint tracked loops: the one
    place that decides a move's kind, refuses the move or applies it.

    Returns the label of the loop that holds the move's edge ``e0``, or
    ``None``, the move's kind relative to it, and the graph and loops after
    the move.  ``twist`` keeps the loop, ``shrink-u``/``shrink-v`` eject the
    left or right vertex of the rewired edge (``e0`` leaves the loop),
    ``collapse`` destroys the loop, and ``outside`` means ``e0`` lies off
    every loop.  A collapse is not applied: graph and loops come back
    unchanged, and each caller decides what a collapse means to it.  The
    caller checks the loops (:func:`_check_loops`) once, before its first
    move: the rewrite keeps every degree and moves no edge of another
    loop, so the loops stay disjoint circuits of the new graph.  As the
    loops are disjoint, no loop but the owner holds ``e0``'s ends, so the
    move is classified against the owner alone; a move off every loop is
    refused when it touches a loop vertex.
    """
    if move.e0 not in graph.edges:
        raise PreconditionFailure(f"unknown edge {move.e0}")
    label = next((lab for lab in sorted(loops) if move.e0 in loops[lab].edges), None)
    if label is None:
        loop_vs = {graph.edges[e][0] for lp in loops.values() for e in lp.edges}
        if loop_vs.intersection(graph.edges[move.e0]):
            raise PreconditionFailure(
                "a bispecial edge touching a loop vertex must be a loop edge"
            )
        kind = OUTSIDE
    else:
        eids = loops[label].edges
        idx = eids.index(move.e0)
        in_on_loop = move.chosen_in == eids[idx - 1]  # loop edge ending at u
        out_on_loop = move.chosen_out == eids[(idx + 1) % len(eids)]  # loop edge leaving v
        if in_on_loop == out_on_loop:
            kind = TWIST if in_on_loop else COLLAPSE
        else:
            if len(eids) == 2:
                raise PreconditionFailure("shrink is never allowed in a 2-loop")
            # choosing the loop's in-edge at u ejects u, its out-edge at v ejects v
            side, kind = ("left", SHRINK_U) if in_on_loop else ("right", SHRINK_V)
            if sum(graph.vertices[graph.edges[e][0]] == side for e in eids) < 2:
                raise PreconditionFailure(
                    f"cannot eject the loop's only {side} special vertex"
                )
    if kind == COLLAPSE:
        return label, kind, graph, loops
    graph_after = apply_rbs(graph, move.e0, move.chosen_in, move.chosen_out)
    loops_after = dict(loops)
    if kind in (SHRINK_U, SHRINK_V):
        loops_after[label] = Loop(tuple(e for e in eids if e != move.e0))
    return label, kind, graph_after, loops_after


# ---------------------------------------------------------------------------
# loop-deleted quotient


@dataclass(frozen=True)
class LoopQuotient:
    """Undirected graph left after deleting tracked loop edges and
    merging each loop's left (resp. right) vertices into one.

    The count identity ``edges - vertices == K - 2E`` holds by
    construction: a loop has as many edges as vertices and merges into
    exactly two, once :func:`check_loop` has refused a loop without a left
    and a right vertex and ``_quotient`` a vertex that carries a merged
    name.  Being connected forces ``E <= (K+1)/2``.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (edge id, endpoint, endpoint)
    K: int
    E: int

    def is_connected(self) -> bool:
        return is_weakly_connected(self.vertices, (e[1:] for e in self.edges))

    def components(self) -> list[frozenset[str]]:
        return weak_components(self.vertices, (e[1:] for e in self.edges))


def build_xi(
    graph: AbstractGraph,
    loops: Mapping[str, Loop],
    moves: Sequence[Move] = (),
) -> LoopQuotient:
    """Apply every move of the log, delete the surviving loops' edges, and
    merge each loop's special vertices by side.

    The log is meant to hold twists and shrinks on the tracked loops, as
    :func:`itinerary_check` and :func:`random_twist_shrink_log`
    produce; a move off the loops is applied like any other rewrite, and a
    collapse is refused."""
    _check_loops(graph, loops)
    current, track = graph, loops
    for mv in moves:
        lab, kind, current, track = _track_move(current, track, mv)
        if kind == COLLAPSE:
            raise PreconditionFailure(
                f"move log contains a collapse on tracked loop {lab}"
            )
    return _quotient(current, track)


def _quotient(graph: AbstractGraph, loops: Mapping[str, Loop]) -> LoopQuotient:
    """The quotient of loops that :func:`_check_loops` accepts: each loop's
    edges deleted, its vertices merged by side into ``<label>_l`` and
    ``<label>_r``.  Refuses a vertex that already carries a merged name."""
    loop_edge_ids = {e for lp in loops.values() for e in lp.edges}
    merge: dict[str, str] = {}
    for lab in sorted(loops):
        for w in loop_vertices(graph, loops[lab]):
            side = "l" if graph.vertices[w] == "left" else "r"
            merge[w] = f"{lab}_{side}"
    clash = sorted(set(merge.values()) & (graph.vertices.keys() - merge.keys()))
    if clash:
        raise PreconditionFailure(
            f"vertex {clash[0]!r} has the name of a merged loop vertex"
        )
    vertices = sorted({merge.get(w, w) for w in graph.vertices})
    edges = tuple(
        (eid, merge.get(s, s), merge.get(d, d))
        for eid, (s, d) in sorted(graph.edges.items())
        if eid not in loop_edge_ids
    )
    return LoopQuotient(tuple(vertices), edges, graph.K, len(loops))


@dataclass(frozen=True)
class BoundReport:
    xi_connected: bool
    E: int
    K: int
    bound_satisfied: bool  # E <= (K+1)/2
    counting_slack: int  # edges(Xi) - (vertices(Xi) - 1)
    witness_components: tuple[tuple[str, ...], ...] | None

    def to_json(self) -> dict:
        return {
            "xi_connected": self.xi_connected,
            "E": self.E,
            "K": self.K,
            "bound": f"E <= (K+1)/2 = {(self.K + 1) / 2}",
            "bound_satisfied": self.bound_satisfied,
            "counting_slack": self.counting_slack,
            "witness_components": [list(c) for c in self.witness_components]
            if self.witness_components
            else None,
        }


def bound_check(
    graph: AbstractGraph,
    loops: Mapping[str, Loop],
    moves: Sequence[Move] = (),
) -> BoundReport:
    """Build the quotient from the twist/shrink log and report whether
    its connectivity yields the loop-count bound (:func:`bound_report`)."""
    return bound_report(build_xi(graph, loops, moves))


def bound_report(xi: LoopQuotient) -> BoundReport:
    """Whether a built quotient's connectivity yields the loop-count bound.

    The counting inequality (a weakly connected graph on V vertices has
    at least V-1 edges) is evaluated independently of the connectivity
    verdict; for rule-conformant inputs a disconnected quotient means
    some stated rule was violated upstream, and the report says so.
    """
    comps = xi.components()
    slack = len(xi.edges) - (len(xi.vertices) - 1)
    witness = None
    if len(comps) > 1:
        witness = tuple(tuple(sorted(c)) for c in sorted(comps, key=sorted))
    return BoundReport(len(comps) <= 1, xi.E, xi.K, 2 * xi.E <= xi.K + 1, slack, witness)


# ---------------------------------------------------------------------------
# components and tags (loop-deleted bookkeeping)


@dataclass(frozen=True)
class ComponentTags:
    """Weak components of the loop-deleted graph, each tagged by the loop
    vertices it contains (one entry per tracked loop, in label order)."""

    components: tuple[frozenset[str], ...]
    tags: tuple[tuple[frozenset[str], ...], ...]

    def as_set(self) -> set[tuple[frozenset[str], tuple[frozenset[str], ...]]]:
        return set(zip(self.components, self.tags))


def _tag_components(
    graph: AbstractGraph, loops: Mapping[str, Loop]
) -> ComponentTags:
    """Components ordered by their sorted member lists, and their tags.

    Over the sorted vertex list, components come out by least member,
    which is that order, as disjoint components have distinct least
    members."""
    edges = graph.edges
    loop_edges: set[str] = set()
    loop_sets = []
    for lab in sorted(loops):
        eids = loops[lab].edges
        loop_edges.update(eids)
        loop_sets.append(frozenset([edges[e][0] for e in eids]))
    comps = tuple(weak_components(
        graph.vertex_list(),
        [ends for e, ends in edges.items() if e not in loop_edges],
    ))
    tags = tuple(tuple(lv & comp for lv in loop_sets) for comp in comps)
    return ComponentTags(comps, tags)


@dataclass(frozen=True)
class MoveEffect:
    kind: str  # "A" | "B" | "C"
    ejected: str | None
    before: ComponentTags
    after: ComponentTags
    graph_after: AbstractGraph
    loops_after: dict[str, Loop]


def move_effect(
    graph: AbstractGraph, loops: Mapping[str, Loop], move: Move
) -> MoveEffect:
    """Apply one move of kind A (twist on a loop), B (shrink on a loop of
    at least three vertices) or C (rewrite off all loops) and report its
    effect on components and tags, verified against recomputation.

    Twists and off-loop rewrites must leave components and tags unchanged;
    a shrink can only merge the two components of the rewired edge's
    endpoints, dropping exactly the ejected vertex from the tags.
    """
    rep = validate(graph)
    if not rep.ok:
        raise PreconditionFailure(f"structure violates: {rep.violations[0]}")
    _check_loops(graph, loops)
    before = _tag_components(graph, loops)
    lab, move_kind, graph2, loops2 = _track_move(graph, loops, move)
    if move_kind == COLLAPSE:
        raise PreconditionFailure("move not of kind A/B/C: collapse on a circuit")
    u, v = graph.edges[move.e0]
    kind = "C" if lab is None else "A" if move_kind == TWIST else "B"
    ejected = {SHRINK_U: u, SHRINK_V: v}.get(move_kind)
    # the rewrite keeps the inputs' checked conditions (see _track_move)
    after = _tag_components(graph2, loops2)
    if kind in ("A", "C"):
        if before.as_set() != after.as_set():
            raise InvariantViolation(
                f"kind-{kind} move changed components or tags"
            )
    else:
        _verify_merge(before, after, u, v, ejected)  # type: ignore[arg-type]
    return MoveEffect(kind, ejected, before, after, graph2, loops2)


def _verify_merge(
    before: ComponentTags, after: ComponentTags, u: str, v: str, ejected: str
) -> None:
    comp_u = next(c for c in before.components if u in c)
    comp_v = next(c for c in before.components if v in c)
    idx_u = before.components.index(comp_u)
    idx_v = before.components.index(comp_v)
    expected_tag = tuple(
        (su | sv) - {ejected}
        for su, sv in zip(before.tags[idx_u], before.tags[idx_v])
    )
    expected = {(comp_u | comp_v, expected_tag)}
    for c, t in zip(before.components, before.tags):
        if c not in (comp_u, comp_v):
            expected.add((c, t))
    if expected != after.as_set():
        raise InvariantViolation("shrink effect disagrees with recomputation")


# ---------------------------------------------------------------------------
# itineraries


@dataclass(frozen=True)
class Event:
    kind: str  # "shrink" | "spread"
    in_edge: str | None = None
    out_edge: str | None = None

    def to_json(self) -> dict:
        out: dict = {"type": self.kind}
        if self.kind == "spread":
            out["in"] = self.in_edge
            out["out"] = self.out_edge
        return out


@dataclass
class Itinerary:
    """Logged rewrite history of a tracked family of colored loops.

    Index ``i`` runs over states; ``move_lists[i]`` and ``events[i]``
    describe the transition from state ``i`` to ``i + 1``.  The history
    ends when every tracked loop has spread its color.
    """

    graphs: list[AbstractGraph]
    colorings: list[Coloring]
    partitions: list[dict[str, Loop]]
    move_lists: list[list[Move]]
    events: list[dict[str, Event]]

    @property
    def steps(self) -> int:
        return len(self.move_lists)


@dataclass(frozen=True)
class ItineraryVerdict:
    ok: bool
    violations: tuple[str, ...]
    # the replay's moves on tracked loops (twists and shrinks), in order
    moves: tuple[Move, ...]


def itinerary_check(it: Itinerary) -> ItineraryVerdict:
    """Replay the move log, then verify the itinerary conditions;
    violations name the item.

    The replay checks each state's loops (:func:`_check_loops`) and then
    applies that step's moves.  A log that does not replay raises
    :class:`PreconditionFailure` naming the state or the move: loops that
    are not disjoint circuits, an inadmissible move, or a collapse, which
    :func:`build_xi` refuses.  The verdict's ``moves`` are the replayed
    twists and shrinks, which :func:`build_xi` takes; moves off the loops
    are left out.  The items are checked only when every state validates.
    """
    M = it.steps
    if not (
        len(it.graphs) == M + 1
        and len(it.colorings) == M + 1
        and len(it.partitions) == M + 1
        and len(it.events) == M
    ):
        raise PreconditionFailure("malformed: list lengths disagree")
    log: list[Move] = []
    # per step: the graph and loops after its moves, and each loop's
    # (move index, kind) pairs
    replays = []
    for i in range(M):
        g, track = it.graphs[i], it.partitions[i]
        try:
            _check_loops(g, track)
        except PreconditionFailure as exc:
            raise PreconditionFailure(f"state {i} loops: {exc}") from None
        moves_per_loop: dict[str, list[tuple[int, str]]] = {lab: [] for lab in track}
        for k, mv in enumerate(it.move_lists[i]):
            try:
                lab, kind, g, track = _track_move(g, track, mv)
            except (InadmissibleMove, PreconditionFailure) as exc:
                raise PreconditionFailure(
                    f"move {k} at step {i} inadmissible: {exc}"
                ) from None
            if kind == COLLAPSE:
                raise PreconditionFailure(f"collapse on tracked loop {lab} at step {i}")
            if lab is not None:
                moves_per_loop[lab].append((k, kind))
                log.append(mv)
        replays.append((g, track, moves_per_loop))
    v: list[str] = []
    for i in range(M + 1):
        rep = validate(it.graphs[i], it.colorings[i])
        if not rep.ok:
            v.append(f"state {i} invalid: {rep.violations[0]}")
    # the replay has checked the loops of every earlier state
    for lab in sorted(it.partitions[M]):
        try:
            check_loop(it.graphs[M], it.partitions[M][lab])
        except PreconditionFailure as exc:
            v.append(f"state {M} loop {lab}: {exc}")
    if v:
        return ItineraryVerdict(False, tuple(v), tuple(log))
    for i, (g, track, moves_per_loop) in enumerate(replays):
        part = it.partitions[i]
        if not part:
            v.append(f"item-7: empty loop family at step {i} < {M}")
        if g != it.graphs[i + 1]:
            v.append(f"item-1: replayed moves do not produce state {i + 1}")
        ev = it.events[i]
        spread = {lab for lab, e in ev.items() if e.kind == "spread"}
        if not ev:
            v.append(f"item-3: no event at step {i}")
        for lab in sorted(ev):
            if lab not in part:
                v.append(f"item-3: event for untracked loop {lab} at step {i}")
        for lab, seq in moves_per_loop.items():
            shrinks = [k for k, kk in seq if kk in (SHRINK_U, SHRINK_V)]
            twists = [k for k, kk in seq if kk == TWIST]
            if shrinks and twists and max(twists) > min(shrinks):
                v.append(f"item-4: twist after shrink on loop {lab} at step {i}")
            if shrinks and ev.get(lab, Event("none")).kind != "shrink":
                v.append(
                    f"item-3: loop {lab} shrank at step {i} without a shrink event"
                )
            if lab in spread and shrinks:
                v.append(
                    f"item-3: loop {lab} has both shrink moves and a spread "
                    f"event at step {i}"
                )
        # item 5: next partition = survivors minus spread loops
        expected = {lab: track[lab] for lab in part if lab not in spread}
        got = it.partitions[i + 1]
        if set(expected) != set(got) or any(
            expected[lab].edges != got[lab].edges for lab in expected
        ):
            v.append(f"item-5: loop family at step {i + 1} is not the expected one")
        # item 6: colors preserved on surviving and spreading loops
        old_c, new_c = it.colorings[i], it.colorings[i + 1]
        g_next = it.graphs[i + 1]
        for lab in sorted(part):
            if lab not in spread and lab not in got:
                continue
            lp = track[lab]
            vs = loop_vertices(g_next, lp) if set(lp.edges) <= set(g_next.edges) else []
            if not new_c.same_on(old_c, vs, lp.edges):
                v.append(f"item-6: colors changed on loop {lab} at step {i + 1}")
        ejected = _ejected_vertices(it, i)
        for w in sorted(ejected):
            if new_c.vertex(w) != 0:
                v.append(f"item-6: ejected vertex {w} still colored at step {i + 1}")
        # spread events name genuinely colored outside edges; an event for
        # an untracked loop is reported above.  The loop's vertices are read
        # in the replayed graph, which is g_next unless item 1 fails.
        for lab in sorted(spread.intersection(part)):
            lp = track[lab]
            color = max((old_c.edge(e) for e in lp.edges), default=0)
            lverts = set(loop_vertices(g, lp))
            e_in, e_out = ev[lab].in_edge, ev[lab].out_edge
            for name, eid, end in (("entering", e_in, 1), ("leaving", e_out, 0)):
                if eid is None or eid not in g_next.edges:
                    v.append(f"item-3: spread of {lab} names no {name} edge")
                    continue
                if eid in lp.edges:
                    v.append(f"item-3: spread edge {eid} lies on loop {lab}")
                if g_next.edges[eid][end] not in lverts:
                    v.append(
                        f"item-3: spread edge {eid} does not touch loop {lab}"
                    )
                if new_c.edge(eid) != color:
                    v.append(
                        f"item-3: spread edge {eid} not colored {color}"
                    )
    if it.partitions[M]:
        v.append(f"item-7: loop family not empty at final step {M}")
    return ItineraryVerdict(not v, tuple(v), tuple(log))


def _ejected_vertices(it: Itinerary, i: int) -> set[str]:
    """Vertices dropped from tracked loops during step ``i``."""
    before = set()
    for lab, lp in it.partitions[i].items():
        if lab in it.partitions[i + 1]:
            before |= set(loop_vertices(it.graphs[i], lp))
    after = set()
    for lab, lp in it.partitions[i + 1].items():
        after |= set(loop_vertices(it.graphs[i + 1], lp))
    return before - after


# ---------------------------------------------------------------------------
# searches and random instances


#: Cycles :func:`simple_cycles` lists before it stops.
MAX_CYCLES = 200000


def simple_cycles(graph: AbstractGraph) -> list[Loop]:
    """All vertex self-avoiding directed circuits with >= 2 edges, as
    edge-id loops; parallel edges give distinct circuits.

    Each circuit is reported once, rooted at its lexicographically least
    edge id.  Extension stops once :data:`MAX_CYCLES` circuits are listed.
    """
    out: list[Loop] = []

    def extend(path: list[str], visited: set[str], root_edge: str) -> None:
        if len(out) >= MAX_CYCLES:
            return
        last_dst = graph.edges[path[-1]][1]
        root_src = graph.edges[root_edge][0]
        for eid in graph.out_edges(last_dst):
            d = graph.edges[eid][1]
            if d == root_src:
                if eid > root_edge:
                    out.append(Loop(tuple(path + [eid])))
                continue
            if d in visited or eid <= root_edge:
                continue
            extend(path + [eid], visited | {d}, root_edge)

    for root in graph.edge_list():
        s, d = graph.edges[root]
        extend([root], {s, d}, root)
    return out


@dataclass(frozen=True)
class SearchResult:
    found: tuple[Coloring, dict[str, Loop]] | None
    exhausted: bool
    candidates_tried: int
    note: str


def search_colorings(graph: AbstractGraph, e_target: int) -> SearchResult:
    """Look for ``e_target`` vertex-disjoint loops that do not disconnect
    the loop-deleted quotient, together with the canonical coloring that
    assigns each loop its own color.

    Any coloring satisfying the one-graph rules restricts to such a loop
    family, and conversely the canonical coloring of such a family always
    satisfies them; so this search decides attainability of ``e_target``
    distinct loop colors on the given graph.

    The graph must be structurally valid (no ``notation`` violation in
    :func:`validate`); this is not checked again here, since its callers
    pass graphs that :func:`enumerate_valid_graphs` built valid or that they
    have validated themselves.  There :func:`_check_loops` cannot refuse a
    disjoint family of its circuits, so their quotient is built directly:
    an all-left circuit is closed under successors, so strong connectivity
    would make it the whole graph, with left in-degree 1 (all-right: dual).
    """
    cycles = simple_cycles(graph)
    exhausted = len(cycles) < MAX_CYCLES
    # each circuit's vertices are distinct, so a family is disjoint iff its
    # circuits hold as many vertices together as apart
    vertex_sets = [frozenset(loop_vertices(graph, lp)) for lp in cycles]
    tried = 0
    for combo in itertools.combinations(range(len(cycles)), e_target):
        sets = [vertex_sets[i] for i in combo]
        if len(frozenset().union(*sets)) != sum(map(len, sets)):
            continue
        family = [cycles[i] for i in combo]
        tried += 1
        loops = {str(i + 1): lp for i, lp in enumerate(family)}
        if not _quotient(graph, loops).is_connected():
            continue
        coloring = Coloring(
            {w: i for i, lp in enumerate(family, 1) for w in loop_vertices(graph, lp)},
            {e: i for i, lp in enumerate(family, 1) for e in lp.edges},
        )
        return SearchResult((coloring, loops), exhausted, tried, "found")
    note = "exhausted" if exhausted else "cycle cap reached; search incomplete"
    return SearchResult(None, exhausted, tried, note)


def enumerate_valid_graphs(K: int, max_vertices: int = 8) -> Iterable[AbstractGraph]:
    """All structurally valid labeled graphs with the given branching
    constant and at most ``max_vertices`` vertices.

    The degree rules force at most ``K`` vertices of each kind, so the
    vertex bound only truncates when ``2K > max_vertices``.

    Left vertices ``u1..`` and right vertices ``v1..`` are named in order.
    Each choice of left-edge targets ``a0..`` fixes what the ``K + k_r``
    right edges ``b0..`` still owe each vertex; the right edges are then
    built as a count matrix meeting those demands (see
    ``_right_edge_counts``) instead of filtering every multiset.  Graphs
    come out in the order of ``itertools.combinations_with_replacement``
    over the right-edge pair types, and only the strongly connected ones
    are kept.
    """
    for k_l in range(1, K + 1):
        for k_r in range(1, K + 1):
            if k_l + k_r > max_vertices:
                continue
            lefts = [f"u{i}" for i in range(1, k_l + 1)]
            rights = [f"v{i}" for i in range(1, k_r + 1)]
            verts = {**{u: "left" for u in lefts}, **{v: "right" for v in rights}}
            names = lefts + rights
            n = len(names)
            pair_types = [(r, t) for r in range(k_l, n) for t in range(n) if t != r]
            # one out-edge per left vertex, to any other vertex
            for targets in itertools.product(
                *[[t for t in range(n) if t != i] for i in range(k_l)]
            ):
                # in-edges the right edges still owe: at least this many for
                # a left vertex, exactly this many for a right vertex
                owed = [2] * k_l + [1] * k_r
                for t in targets:
                    owed[t] -= 1
                if min(owed[k_l:]) < 0:
                    continue
                left_edges = {
                    f"a{i}": (lefts[i], names[t]) for i, t in enumerate(targets)
                }
                for counts in _right_edge_counts(pair_types, k_l, owed, K + k_r):
                    right_edges = [
                        (names[r], names[t])
                        for (r, t), c in zip(pair_types, counts)
                        for _ in range(c)
                    ]
                    edges = {
                        **left_edges,
                        **{f"b{i}": e for i, e in enumerate(right_edges)},
                    }
                    g = AbstractGraph(verts, edges)
                    if g.is_strongly_connected():
                        yield g


def _right_edge_counts(
    pair_types: list[tuple[int, int]], k_l: int, owed: list[int], budget: int
) -> Iterator[tuple[int, ...]]:
    """Edge counts per pair type ``(row, target)`` (rows are right
    vertices, grouped in order) with ``budget`` edges in all, at least two
    per row, exactly ``owed[t]`` into a right vertex ``t >= k_l`` and at
    least ``owed[t]`` into a left vertex ``t < k_l``.

    Counts are tried from high to low, pair type by pair type, which is
    the order in which ``combinations_with_replacement`` lists multisets.
    """
    last_row = pair_types[-1][0]
    cells = []
    for i, (r, t) in enumerate(pair_types):
        later = pair_types[i + 1:]
        cells.append((
            t,
            t >= k_l,
            2 * (last_row - r),  # later rows need two edges each
            not later or later[0][0] != r,  # the row ends here
            all(t2 != t for _, t2 in later),  # last chance to pay owed[t]
            all(t2 >= k_l for _, t2 in later),  # last chance for surplus
        ))
    counts = [0] * len(cells)
    owed = list(owed)

    def fill(i: int, left: int, need: int, row_sum: int) -> Iterator[tuple[int, ...]]:
        # ``left`` edges remain to place; ``need`` of them are still owed
        if i == len(cells):
            if left == 0:
                yield tuple(counts)
            return
        t, exact, reserve, row_end, last_into_t, last_into_left = cells[i]
        o = owed[t]
        d = max(o, 0)
        if exact:
            hi = min(o, left - reserve)
            lo = o if last_into_t else 0
        else:
            # beyond what it is owed, a left vertex takes at most the surplus
            hi = min(d + left - need, left - reserve)
            lo = hi if last_into_left else d if last_into_t else 0
        if row_end:
            lo = max(lo, 2 - row_sum)
        for c in range(hi, lo - 1, -1):
            counts[i] = c
            owed[t] = o - c
            yield from fill(i + 1, left - c, need - min(c, d), 0 if row_end else row_sum + c)
        owed[t] = o
        counts[i] = 0

    need = sum(max(o, 0) for o in owed)
    if need <= budget:
        yield from fill(0, budget, need, 0)


@dataclass(frozen=True)
class ExhaustionCertificate:
    K: int
    e_target: int
    max_vertices: int
    graphs_examined: int
    witnesses: int
    truncated: int  # graphs whose search hit the cycle cap without a witness

    @property
    def impossible(self) -> bool:
        return self.witnesses == 0 and self.truncated == 0


def exhaustive_bound_probe(
    K: int, e_target: int, max_vertices: int = 8
) -> tuple[ExhaustionCertificate, tuple[AbstractGraph, Coloring, dict[str, Loop]] | None]:
    """Search every valid graph of branching constant ``K`` (up to the
    vertex cap) for ``e_target`` distinctly colorable disjoint loops.

    The certificate calls ``e_target`` impossible only when no graph gave
    a witness and no graph's search stopped at the cycle cap."""
    examined = 0
    witnesses = 0
    truncated = 0
    first = None
    for g in enumerate_valid_graphs(K, max_vertices):
        examined += 1
        res = search_colorings(g, e_target)
        if res.found is None:
            truncated += not res.exhausted
        else:
            witnesses += 1
            if first is None:
                coloring, loops = res.found
                first = (g, coloring, loops)
    return (
        ExhaustionCertificate(
            K, e_target, max_vertices, examined, witnesses, truncated
        ),
        first,
    )


# -- random instances --------------------------------------------------------


def random_graph_with_loops(
    rng: random.Random, n_loops: int | None = None
) -> tuple[AbstractGraph, dict[str, Loop]]:
    """A random structurally valid graph with ``n_loops >= 1`` (by default
    one to three) vertex-disjoint tracked circuits, valid by construction.

    Loop 1 is the strongly connected core.  Each further loop joins it as
    an ear: an edge from a core right vertex to one of the loop's left
    vertices, and one from a loop right vertex to a core left vertex.  The
    extra vertices join as one path, core right -> w0 -> ... -> core left;
    a left vertex on it spends its one out-edge there, a right vertex its
    one in-edge.  Right-to-left edges then give every right vertex two
    out-edges and every left vertex two in-edges.  So a left vertex gains
    only in-edges after its first out-edge, a right vertex only out-edges
    after its first in-edge, no edge joins a vertex to itself, and edges
    added inside a strongly connected graph keep it strongly connected.

    The instance carries its adjacency index (data, not a verdict),
    filled as edges are added.  ``E <= 99`` loops give at most ``10E + 7
    < 1000`` edges (per loop 4 circuit, 2 ear and 4 filling edges; 4 path,
    3 filling and 2 optional ones), so the three-digit ids are issued in
    ascending order and each list is ascending, as :func:`arc_index` over
    the sorted edges makes it.
    """
    if n_loops is not None and n_loops < 1:
        raise PreconditionFailure(f"n_loops must be >= 1, got {n_loops}")
    if n_loops is not None and n_loops > 99:
        raise PreconditionFailure(f"n_loops must be <= 99, got {n_loops}")
    E = n_loops if n_loops is not None else rng.choice([1, 1, 2, 2, 3])
    sizes = [rng.choice([2, 2, 3, 3, 4]) for _ in range(E)]
    verts: dict[str, str] = {}
    edges: dict[str, tuple[str, str]] = {}
    outs: dict[str, list[str]] = {}
    ins: dict[str, list[str]] = {}

    def add(s: str, d: str) -> str:
        eid = f"e{len(edges):03d}"
        edges[eid] = (s, d)
        outs[s].append(eid)
        ins[d].append(eid)
        return eid

    loops: dict[str, Loop] = {}
    # each loop's left and right vertices, in circuit order
    rings: list[tuple[list[str], list[str]]] = []
    for li, size in enumerate(sizes, start=1):
        # a circuit needs at least one vertex of each kind
        kinds = ["left", "right"] + [
            rng.choice(["left", "right"]) for _ in range(size - 2)
        ]
        rng.shuffle(kinds)
        names = [f"L{li}x{j}" for j in range(size)]
        verts.update(zip(names, kinds))
        for w in names:
            outs[w], ins[w] = [], []
        circuit = zip(names, names[1:] + names[:1])
        loops[str(li)] = Loop(tuple([add(s, d) for s, d in circuit]))
        rings.append((
            [w for w, k in zip(names, kinds) if k == "left"],
            [w for w, k in zip(names, kinds) if k == "right"],
        ))
    extra = [f"w{j}" for j in range(rng.choice([0, 1, 1, 2, 2, 3]))]
    for w in extra:
        verts[w] = rng.choice(["left", "right"])
        outs[w], ins[w] = [], []
    core_lefts, core_rights = rings[0]
    for ring_lefts, ring_rights in rings[1:]:
        add(rng.choice(core_rights), rng.choice(ring_lefts))
        add(rng.choice(ring_rights), rng.choice(core_lefts))
        core_lefts, core_rights = core_lefts + ring_lefts, core_rights + ring_rights
    if extra:
        path = [rng.choice(core_rights), *extra, rng.choice(core_lefts)]
        for s, d in zip(path, path[1:]):
            add(s, d)
    lefts = sorted(w for w, k in verts.items() if k == "left")
    rights = sorted(w for w, k in verts.items() if k == "right")
    # each vertex's degree is read before its own edges are added, and the
    # edges of other vertices do not change it
    for v in rights:
        for _ in range(2 - len(outs[v])):
            add(v, rng.choice(lefts))
    for u in lefts:
        for _ in range(2 - len(ins[u])):
            add(rng.choice(rights), u)
    # a few optional extra edges from rights to lefts
    for _ in range(rng.choice([0, 0, 1, 2])):
        add(rng.choice(rights), rng.choice(lefts))
    graph = AbstractGraph(verts, edges)
    object.__setattr__(graph, "_adjacency", (outs, ins))
    object.__setattr__(graph, "_strongly_connected", True)
    return graph, loops


def _candidate_moves(
    graph: AbstractGraph, loops: Mapping[str, Loop]
) -> list[tuple[str | None, tuple[str, str, str]]]:
    """Every rewrite as ``(label, (e0, chosen_in, chosen_out))``, ``label``
    naming the tracked loop that holds ``e0``, or ``None``: bispecial edges
    ascending, then the in-edges of ``e0``'s left end, then the out-edges of
    its right end.  A draw builds a :class:`Move` only for those it tries."""
    owner = {e: lab for lab, lp in loops.items() for e in lp.edges}
    outs, ins = graph._adjacency
    return [
        (owner.get(e0), (e0, cin, cout))
        for e0 in graph.bispecial_edges()
        for cin in ins.get(graph.edges[e0][0], ())
        for cout in outs.get(graph.edges[e0][1], ())
    ]


def _first_tracked(
    rng: random.Random,
    graph: AbstractGraph,
    loops: Mapping[str, Loop],
    candidates: list[tuple[str | None, tuple[str, str, str]]],
) -> tuple[Move, AbstractGraph, Mapping[str, Loop]] | None:
    """In random order, the first candidate that :func:`_track_move`
    applies without a collapse, with the graph and loops after it, or
    ``None`` when there is none."""
    rng.shuffle(candidates)
    for _, ids in candidates:
        mv = Move(*ids)
        try:
            _, kind, graph_after, loops_after = _track_move(graph, loops, mv)
        except (InadmissibleMove, PreconditionFailure):
            continue
        if kind != COLLAPSE:
            return mv, graph_after, loops_after
    return None


def random_twist_shrink_log(
    rng: random.Random,
    graph: AbstractGraph,
    loops: Mapping[str, Loop],
    length: int,
) -> list[Move]:
    """A random admissible log of twist/shrink moves on the tracked loops.

    Each step draws uniformly among the admissible twists and shrinks of
    the current graph and stops early when there is none."""
    _check_loops(graph, loops)
    current, track = graph, loops
    out: list[Move] = []
    for _ in range(length):
        on_loop = [c for c in _candidate_moves(current, track) if c[0] is not None]
        step = _first_tracked(rng, current, track, on_loop)
        if step is None:
            break
        mv, current, track = step
        out.append(mv)
    return out


def random_abc_move(
    rng: random.Random, graph: AbstractGraph, loops: Mapping[str, Loop]
) -> Move | None:
    """A random admissible move of kind A, B or C for the instance, drawn
    uniformly, or ``None`` when there is none."""
    _check_loops(graph, loops)
    step = _first_tracked(rng, graph, loops, _candidate_moves(graph, loops))
    return None if step is None else step[0]


# ---------------------------------------------------------------------------
# serialization and DOT


def graph_to_json(graph: AbstractGraph) -> dict:
    return {
        "vertices": {v: graph.vertices[v] for v in graph.vertex_list()},
        "edges": {e: list(graph.edges[e]) for e in graph.edge_list()},
    }


def graph_from_json(obj: dict) -> AbstractGraph:
    """Inverse of :func:`graph_to_json`; a malformed shape raises
    ``ValueError`` naming the offending key."""
    if not isinstance(obj, dict):
        raise ValueError("a graph must be a JSON object")
    vertices = obj.get("vertices")
    edges = obj.get("edges")
    if not isinstance(vertices, dict):
        raise ValueError("'vertices' must be an object mapping names to 'left'/'right'")
    if not isinstance(edges, dict):
        raise ValueError("'edges' must be an object mapping ids to [source, target]")
    for eid, ends in edges.items():
        if not (
            isinstance(ends, list)
            and len(ends) == 2
            and all(isinstance(x, str) for x in ends)
        ):
            raise ValueError(f"edge {eid!r} must be a [source, target] pair of names")
    return AbstractGraph(dict(vertices), {e: (s, d) for e, (s, d) in edges.items()})


def loops_from_json(obj, key: str = "loops") -> dict[str, Loop]:
    """Loops from an object mapping labels to edge-id lists; another shape
    raises ``ValueError`` naming ``key``."""
    if not isinstance(obj, dict) or not all(
        isinstance(edges, list) and all(isinstance(e, str) for e in edges)
        for edges in obj.values()
    ):
        raise ValueError(f"{key!r} must map labels to edge-id lists")
    return {lab: Loop(tuple(edges)) for lab, edges in obj.items()}


def coloring_to_json(c: Coloring) -> dict:
    return {
        "vertices": {k: v for k, v in sorted(c.vertex_colors.items()) if v},
        "edges": {k: v for k, v in sorted(c.edge_colors.items()) if v},
    }


def coloring_from_json(obj: dict) -> Coloring:
    """Inverse of :func:`coloring_to_json`; a malformed shape or a color
    that is not a JSON integer (``true`` included) raises ``ValueError``
    naming the offending key."""
    maps = []
    for key in ("vertices", "edges"):
        colors = obj.get(key, {}) if isinstance(obj, dict) else None
        if not isinstance(colors, dict) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in colors.values()
        ):
            raise ValueError(
                f"coloring {key!r} must be an object mapping names to integer colors"
            )
        maps.append(dict(colors))
    return Coloring(*maps)


def itinerary_to_json(it: Itinerary) -> dict:
    return {
        "schema_version": 1,
        "kind": "itinerary",
        "graphs": [graph_to_json(g) for g in it.graphs],
        "colorings": [coloring_to_json(c) for c in it.colorings],
        "partitions": [
            {lab: list(lp.edges) for lab, lp in sorted(p.items())}
            for p in it.partitions
        ],
        "moves": [[m.to_json() for m in ml] for ml in it.move_lists],
        "events": [
            {lab: ev.to_json() for lab, ev in sorted(evs.items())}
            for evs in it.events
        ],
    }


def _has_strings(obj, *keys: str) -> bool:
    return isinstance(obj, dict) and all(isinstance(obj.get(k), str) for k in keys)


def _event_from_json(obj) -> Event:
    if _has_strings(obj, "type") and obj["type"] == "shrink":
        return Event("shrink")
    if _has_strings(obj, "type", "in", "out") and obj["type"] == "spread":
        return Event("spread", obj["in"], obj["out"])
    raise ValueError(
        "itinerary 'events' must map labels to {'type': 'shrink'} or "
        "{'type': 'spread', 'in': edge, 'out': edge}"
    )


def itinerary_from_json(obj: dict) -> Itinerary:
    """Inverse of :func:`itinerary_to_json`; a malformed shape raises
    ``ValueError`` naming the offending key."""
    keys = ("graphs", "colorings", "partitions", "moves", "events")
    if not isinstance(obj, dict):
        raise ValueError("an itinerary must be a JSON object")
    for key in keys:
        if not isinstance(obj.get(key), list):
            raise ValueError(f"itinerary {key!r} must be an array")
    states = len(obj["graphs"])
    if not states or [len(obj[key]) for key in keys] != [states] * 3 + [states - 1] * 2:
        raise ValueError(
            "itinerary 'graphs' must be non-empty, 'colorings' and 'partitions' "
            "need one entry per graph, 'moves' and 'events' one fewer"
        )
    if not all(
        isinstance(ml, list) and all(_has_strings(m, "e0", "in", "out") for m in ml)
        for ml in obj["moves"]
    ):
        raise ValueError(
            "itinerary 'moves' must hold lists of objects with string 'e0', 'in' and 'out'"
        )
    if not all(isinstance(evs, dict) for evs in obj["events"]):
        raise ValueError("itinerary 'events' must hold objects")
    return Itinerary(
        [graph_from_json(g) for g in obj["graphs"]],
        [coloring_from_json(c) for c in obj["colorings"]],
        [loops_from_json(p, "partitions") for p in obj["partitions"]],
        [[Move(m["e0"], m["in"], m["out"]) for m in ml] for ml in obj["moves"]],
        [
            {lab: _event_from_json(ev) for lab, ev in evs.items()}
            for evs in obj["events"]
        ],
    )


_PALETTE = (
    "black",
    "red",
    "blue",
    "forestgreen",
    "darkorange",
    "purple",
    "teal",
    "crimson",
    "navy",
)


def abstract_dot(
    graph: AbstractGraph,
    coloring: Coloring | None = None,
    loops: Mapping[str, Loop] | None = None,
) -> str:
    lines = ["digraph branching_graph {"]
    loop_edge_labels: dict[str, str] = {}
    if loops:
        for lab in sorted(loops):
            lines.append(f"  subgraph cluster_{lab} {{")
            lines.append(f"    label={dot_quote('loop ' + lab)};")
            for w in sorted(set(loop_vertices(graph, loops[lab]))):
                lines.append(f"    {dot_quote(w)};")
            lines.append("  }")
            for e in loops[lab].edges:
                loop_edge_labels[e] = lab
    for v in graph.vertex_list():
        shape = "box" if graph.vertices[v] == "left" else "ellipse"
        attrs = [f"shape={shape}"]
        if coloring and coloring.vertex(v):
            attrs.append(
                f"color={_PALETTE[coloring.vertex(v) % len(_PALETTE)]}"
            )
        lines.append(f"  {dot_quote(v)} [{', '.join(attrs)}];")
    for e in graph.edge_list():
        s, d = graph.edges[e]
        attrs = [f"label={dot_quote(e)}"]
        if coloring and coloring.edge(e):
            attrs.append(f"color={_PALETTE[coloring.edge(e) % len(_PALETTE)]}")
        lines.append(f"  {dot_quote(s)} -> {dot_quote(d)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def xi_dot(xi: LoopQuotient) -> str:
    lines = ["graph loop_quotient {"]
    for v in xi.vertices:
        lines.append(f"  {dot_quote(v)};")
    for eid, a, b in xi.edges:
        lines.append(f"  {dot_quote(a)} -- {dot_quote(b)} [label={dot_quote(eid)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
