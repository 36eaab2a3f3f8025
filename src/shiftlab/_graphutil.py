"""Small digraph helpers shared by the graph modules.

All functions take explicit vertex sequences, and successor mappings or
(for weak connectivity) ``(a, b)`` arc iterables, so they work on any of
the package's graph representations without adapters.  Vertex sequence
order drives iteration, so results are deterministic whenever the caller
passes deterministic orders.  ``arc_index`` is the one adjacency index the
graph classes build, and ``dot_quote`` the one DOT identifier quoting
their exports share.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence, TypeVar

V = TypeVar("V", bound=Hashable)
K = TypeVar("K")


def arc_index(
    arcs: Iterable[tuple[K, V, V]],
) -> tuple[dict[V, list[K]], dict[V, list[K]]]:
    """Out- and in-lists of arc keys by vertex, from ``(key, src, dst)``
    triples; each list keeps the order in which the arcs were given."""
    out: dict[V, list[K]] = {}
    into: dict[V, list[K]] = {}
    for key, src, dst in arcs:
        out.setdefault(src, []).append(key)
        into.setdefault(dst, []).append(key)
    return out, into


def reachable(start: V, succ: Callable[[V], Iterable[V]]) -> set[V]:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in succ(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def reaches(start: V, goal: V, succ: Callable[[V], Iterable[V]]) -> bool:
    """Whether a path of one or more arcs leads from ``start`` to ``goal``."""
    seen = {start}
    stack = [start]
    while stack:
        for w in succ(stack.pop()):
            if w == goal:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def is_strongly_connected(vertices: Sequence[V], succ, pred) -> bool:
    if not vertices:
        return True
    v0 = vertices[0]
    n = len(set(vertices))
    return len(reachable(v0, succ)) == n and len(reachable(v0, pred)) == n


def weak_components(
    vertices: Sequence[V], arcs: Iterable[tuple[V, V]]
) -> list[frozenset[V]]:
    """Weak components of ``vertices`` joined by ``arcs``, in the order of
    their first vertex; an arc with an end outside ``vertices`` is ignored.

    One union-find pass over the arcs, with path halving inline: each arc
    finds the roots of both ends and links the second to the first, and
    each vertex then finds its root once."""
    parent = {v: v for v in vertices}
    for a, b in arcs:
        if a in parent and b in parent:
            while (p := parent[a]) != a:
                parent[a] = a = parent[p]
            while (p := parent[b]) != b:
                parent[b] = b = parent[p]
            parent[b] = a
    comps: dict[V, set[V]] = {}
    for v in vertices:
        r = v
        while (p := parent[r]) != r:
            parent[r] = r = parent[p]
        comps.setdefault(r, set()).add(v)
    return [frozenset(c) for c in comps.values()]


def is_weakly_connected(vertices: Sequence[V], arcs: Iterable[tuple[V, V]]) -> bool:
    return len(weak_components(vertices, arcs)) <= 1


def dot_quote(s: str) -> str:
    """``s`` as a double-quoted DOT identifier."""
    return '"' + s.replace('"', '\\"') + '"'
