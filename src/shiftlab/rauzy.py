"""Factor graphs of a language and their evolution across word lengths.

``RauzyGraph`` is the graph whose vertices are the factors of one length
and whose edges are the factors one letter longer.  The special variant
keeps only branching vertices (left/right special words, bispecials
split in two) joined by branchless paths.  It is an
:class:`~shiftlab.abstract_graphs.AbstractGraph`, the object the loop
machinery rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ._graphutil import dot_quote
from .abstract_graphs import AbstractGraph, apply_rbs
from .errors import HorizonExceeded, InvariantViolation, PreconditionFailure
from .language import LanguageOracle, check_rbc
from .words import Word


@dataclass(frozen=True)
class RauzyGraph:
    """Vertices are the length-``n`` factors, edges the length-``n+1``
    factors (from their prefix window to their suffix window)."""

    n: int
    vertices: tuple[str, ...]  # sorted code strings
    edges: tuple[str, ...]  # sorted code strings, length n+1


def build_rauzy(oracle: LanguageOracle, n: int) -> RauzyGraph:
    oracle.require_length(n + 2, "factor graph")
    return RauzyGraph(
        n,
        tuple(sorted(oracle.factor_strings(n))),
        tuple(sorted(oracle.factor_strings(n + 1))),
    )


@dataclass(frozen=True, eq=False)
class SpecialRauzyGraph(AbstractGraph):
    """Branching skeleton of the factor graph at one length.

    A left-special word ``w`` is the left vertex ``L:w``, a right-special
    one the right vertex ``R:w``; a bispecial word is both, joined by an
    internal edge ``L:w -> R:w`` whose path word is the word itself.
    ``paths`` holds the path word of every edge.  Equality is the abstract
    graph's, on vertices and edges.
    """

    n: int
    paths: dict[str, str]  # edge id -> code string of its path word

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def type_profile(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Sorted in-degrees of left vertices and out-degrees of right
        vertices; invariant across evolution in the stable range."""
        kinds = self.vertices.items()
        lefts = sorted(len(self.in_edges(v)) for v, k in kinds if k == "left")
        rights = sorted(len(self.out_edges(v)) for v, k in kinds if k == "right")
        return tuple(lefts), tuple(rights)


def build_special_rauzy(oracle: LanguageOracle, n: int) -> SpecialRauzyGraph:
    """Construct the branching skeleton by walking maximal branchless
    paths between special words.

    Each step of a walk probes which code extends the current word among
    the factors of length ``n + 1``.  The current word is a suffix of such
    a factor, so factor closure makes it a factor; it is not special, so
    extendability (guaranteed by the oracle's builder) gives it exactly one
    right extension.  Walking back is deterministic in the same way, so each
    left extension of a left vertex ends one walk, and so does the one left
    extension of a right-only vertex.  Hence a left vertex has one in-edge
    per left extension and one out-edge, a right vertex one in-edge and one
    out-edge per right extension; a bispecial's internal edge is the
    out-edge of its left vertex and the in-edge of its right one.  A walk
    may end where it started: a non-recurrent language can have self-loops.

    Edge ids ``e00``, ``e01``, ... follow the order of (source word, side),
    then (target word, side), then path word.

    Raises with a partial-result message if a branchless walk escapes the
    horizon before reaching a special word.
    """
    oracle.require_length(n + 2, "special graph")
    lefts = oracle.special_strings(n, "left")
    rights = oracle.special_strings(n, "right")
    specials = lefts | rights
    codes = oracle.alphabet.codes
    longer = oracle.factor_strings(n + 1)
    # (source word, tag, target word, tag, path); "L:" < "R:" as left < right
    raw_edges: list[tuple[str, str, str, str, str]] = []
    for w in sorted(specials):
        tag = "R:" if w in rights else "L:"
        for path in [w + b for b in codes if w + b in longer]:
            cur = path[1:]
            while cur not in specials:
                if len(path) + 1 > oracle.horizon:
                    raise HorizonExceeded(
                        f"branchless path from {w!r} escapes horizon "
                        f"{oracle.horizon}; graph would be partial",
                        required=len(path) + 1,
                    )
                path += next(b for b in codes if cur + b in longer)
                cur = path[len(path) - n :]
            raw_edges.append((w, tag, cur, "L:" if cur in lefts else "R:", path))
    raw_edges += [(w, "L:", w, "R:", w) for w in sorted(lefts & rights)]
    raw_edges.sort()
    width = max(2, len(str(len(raw_edges))))
    vertices = {"L:" + w: "left" for w in sorted(lefts)}
    vertices.update(("R:" + w, "right") for w in sorted(rights))
    edges, paths = {}, {}
    for i, (src, src_tag, dst, dst_tag, path) in enumerate(raw_edges):
        eid = f"e{i:0{width}d}"
        edges[eid] = (src_tag + src, dst_tag + dst)
        paths[eid] = path
    return SpecialRauzyGraph(vertices, edges, n, paths)


# -- evolution -------------------------------------------------------------


@dataclass
class EvolutionStep:
    """One jump of the special graph to the next bispecial length.

    ``vertex_map`` sends each special vertex at length ``n`` to its
    unique same-side extension at ``n_prime``; ``edge_map`` sends each
    edge to the id of its counterpart at ``n_prime``: the edge that leaves
    the same source by the same letter, where the rewrite at a bispecial
    ``w`` (listed in ``rbs_events``) moves edges between ``w``'s two
    vertices and gives the reversed internal edge the letter ``b_hat``.
    """

    n: int
    n_tilde: int
    n_prime: int
    before: SpecialRauzyGraph
    after: SpecialRauzyGraph
    vertex_map: dict[str, str]
    edge_map: dict[str, str]
    rbs_events: list[Word]
    profile_preserved: bool


def _identification(oracle: LanguageOracle, n1: int, n2: int) -> dict[str, str]:
    """Map special vertices at length n1 to their counterparts at n2: the
    side-special words at n2 keyed, in ascending order, by their first
    (left side) or last (right side) n1 letters.

    Valid once the RBC holds on ``[n1, min(n2, horizon - 3)]``, which
    :func:`evolve` checks: then a left-special word shorter than
    ``horizon - 2`` has exactly one left-special extension one letter
    longer (its one right extension, or the regular one of a bispecial),
    and every prefix of a left-special word is left special; the right
    side is the mirror image.
    """
    out: dict[str, str] = {}
    for side, tag in (("left", "L:"), ("right", "R:")):
        cut = slice(None, n1) if side == "left" else slice(n2 - n1, None)
        out.update(sorted((tag + w[cut], tag + w) for w in oracle.special_strings(n2, side)))
    return out


def _follow(
    claims: Iterable[tuple[str, str, str, str]], target: SpecialRauzyGraph
) -> dict[str, str]:
    """Pair each claimed edge ``(eid, src, letter, dst)`` with the edge of
    ``target`` that leaves ``src``, by ``letter`` when ``src`` is a right
    vertex (a left vertex has one out-edge).

    Raises ``InvariantViolation`` when that edge is missing or does not
    end at ``dst``, or when the claims and ``target`` count different
    edges.
    """
    failure = (
        "abstract replay of the rewrites disagrees with the directly built "
        "target graph"
    )
    n, kinds, paths = target.n, target.vertices, target.paths
    by_key = {
        (s, paths[f][n] if kinds[s] == "right" else ""): (f, d)
        for f, (s, d) in target.edges.items()
    }
    out: dict[str, str] = {}
    for eid, src, letter, dst in claims:
        found = by_key.get((src, letter if kinds[src] == "right" else ""))
        if found is None or found[1] != dst:
            raise InvariantViolation(failure)
        out[eid] = found[0]
    if len(out) != len(target.edges):
        raise InvariantViolation(failure)
    return out


def evolve(oracle: LanguageOracle, n: int) -> EvolutionStep:
    """Jump from the special graph at ``n`` to the next length at which
    it changes (one past the least bispecial length at or after ``n``).

    An edge is identified by its source vertex and, when the source is a
    right vertex, the first letter after the source word.  Between
    bispecial lengths every special word has one special extension with
    the same extensions, so the skeleton does not change: ``L:w[:n]``
    stands for ``L:w`` at ``n_tilde`` and ``R:w[-n:]`` for ``R:w``, and
    every edge keeps its identity, its target and the letter it enters
    its target by.  So the rewrite at a bispecial ``w`` of length
    ``n_tilde`` is replayed as abstract moves on the skeleton at ``n``
    itself: it reverses the one out-edge of ``L:w[:n]`` and keeps the
    in-edge through ``a_hat w[:n]`` and the out-edge through
    ``w[-n:] b_hat``, which stand for those through ``a_hat w`` and
    ``w b_hat``, and it ends where a replay at ``n_tilde`` would.  Each
    replayed edge must land on the edge of the directly built target
    graph with its identity, which checks that claim on every call.  The
    rewrite at ``w`` moves edge ends only at ``w``'s two vertices, so one
    replay in ascending order of the bispecials ends where any other
    order would.  The rewrite's witnesses ``a_hat`` and ``b_hat`` come
    from :meth:`~shiftlab.language.LanguageOracle.bispecials`, the table
    :func:`check_rbc` decides regularity with.
    """
    top = oracle.horizon - 3
    for n_tilde in range(n, top + 1):
        bis = oracle.bispecials(n_tilde)
        if bis:
            break
    else:
        raise HorizonExceeded(
            f"start length {n} needs horizon {n + 3}" if n > top
            else f"no bispecial word of length in [{n}, {top}]",
            required=max(oracle.horizon + 1, n + 3),
        )
    n_prime = n_tilde + 1  # at most horizon - 2, so the target graph fits
    # the identification below lies inside this one checked range
    rbc = check_rbc(oracle, n_min=n, n_max=min(n_prime, oracle.horizon - 3))
    if not rbc.holds_within_horizon:
        raise PreconditionFailure(
            f"irregular bispecial in range: {rbc.violations[0][0]}"
        )
    before = build_special_rauzy(oracle, n)
    after = build_special_rauzy(oracle, n_prime)
    vertex_map = _identification(oracle, n, n_prime)
    rbs_events = [Word(oracle.alphabet, d) for d in bis]

    # the reversed internal edge leaves a_hat w by b_hat; edge ids survive
    # rewrites, and a bispecial's internal edge at n has no letter to read
    paths = before.paths
    letters = {eid: path[n : n + 1] for eid, path in paths.items()}
    sim: AbstractGraph = before
    for w in rbs_events:
        (b_hat,), (a_hat,) = bis[w.data]
        head, tail = w.data[:n], w.data[-n:]
        (internal,) = before.out_edges("L:" + head)
        chosen_in = next(
            e for e in before.in_edges("L:" + head) if paths[e].endswith(a_hat + head)
        )
        chosen_out = next(
            e for e in before.out_edges("R:" + tail) if paths[e].startswith(tail + b_hat)
        )
        # the skeleton meets every precondition of the move, so a refusal
        # of one is a bug; a self-loop or a disconnection (InadmissibleMove)
        # is the language's own, as in a non-recurrent one
        try:
            sim = apply_rbs(sim, internal, chosen_in, chosen_out)
        except PreconditionFailure as exc:
            raise InvariantViolation(
                f"rewrite at bispecial {w} cannot be replayed: {exc}"
            ) from exc
        letters[internal] = b_hat

    edge_map = _follow(
        (
            (eid, vertex_map[s], letters[eid], vertex_map[d])
            for eid, (s, d) in sim.edges.items()
        ),
        after,
    )
    return EvolutionStep(
        n,
        n_tilde,
        n_prime,
        before,
        after,
        vertex_map,
        edge_map,
        rbs_events,
        before.type_profile() == after.type_profile(),
    )


# -- DOT export -------------------------------------------------------------


def rauzy_dot(graph: RauzyGraph, oracle: LanguageOracle) -> str:
    tok = lambda d: str(Word(oracle.alphabet, d))
    lines = ["digraph factor_graph {"]
    for v in graph.vertices:
        lines.append(f"  {dot_quote(tok(v))};")
    for e in graph.edges:
        lines.append(
            f"  {dot_quote(tok(e[: graph.n]))} -> {dot_quote(tok(e[1:]))} "
            f"[label={dot_quote(tok(e))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def special_rauzy_dot(
    graph: SpecialRauzyGraph, oracle: LanguageOracle, name: str = "special_graph"
) -> str:
    tok = lambda d: str(Word(oracle.alphabet, d))
    label = lambda v: f"{tok(v[2:])}|{graph.vertices[v][0]}"
    lines = [f"digraph {name} {{"]
    for v in graph.vertices:
        lines.append(f"  {dot_quote(label(v))};")
    for eid, (s, d) in graph.edges.items():
        lines.append(
            f"  {dot_quote(label(s))} -> {dot_quote(label(d))} "
            f"[label={dot_quote(str(len(graph.paths[eid])))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
