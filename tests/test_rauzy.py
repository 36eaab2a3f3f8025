"""Factor graphs, branching skeletons, connectivity, and evolution."""

import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from conftest import IET3_SPEC, IET4_SPEC, THUE_MORSE, token_prefix
from factor_language import check_factor_language, extensions
from regular_bispecial import is_regular_bispecial
from shiftlab import rauzy
from shiftlab._graphutil import is_strongly_connected, is_weakly_connected
from shiftlab.abstract_graphs import apply_rbs, validate
from shiftlab.errors import (
    HorizonExceeded,
    InvariantViolation,
    PreconditionFailure,
    ShiftlabError,
)
from shiftlab.generators import (
    IETSpec,
    SequencePrefix,
    fibonacci_prefix,
    iet_encode,
    oracle_from_prefix,
    rotation_coding,
    substitution_fixed_point,
)
from shiftlab.language import (
    LanguageOracle,
    StoredLevels,
    check_rbc,
    growth_profile,
)
from shiftlab.rauzy import (
    EvolutionStep,
    RauzyGraph,
    SpecialRauzyGraph,
    _identification,
    build_rauzy,
    build_special_rauzy,
    evolve,
    rauzy_dot,
    special_rauzy_dot,
)
from shiftlab.words import Alphabet, Word


@pytest.fixture(scope="module")
def one_ones_oracle(zo):
    """Language of words with at most one '1': strongly connected factor
    graphs at every length, yet not recurrent."""
    H = 12
    levels = {
        n: frozenset(zo.word("0" * k + "1" + "0" * (n - k - 1)).data for k in range(n))
        | {zo.word("0" * n).data}
        for n in range(1, H + 1)
    }
    return check_factor_language(LanguageOracle(zo, StoredLevels(levels), "at most one 1"))


@pytest.fixture(scope="module")
def split_union_oracle():
    """Factors of the constant sequence on '0' together with the factors
    of the Fibonacci word: aperiodic, not recurrent, and the constant
    circuit avoids every special vertex."""
    from shiftlab.generators import fibonacci_prefix

    alphabet = Alphabet(("0", "a", "b"))
    fib = fibonacci_prefix(2000)
    H = 8
    levels = {}
    for n in range(1, H + 1):
        words = {alphabet.word("0" * n).data}
        for d in {fib.data[i : i + n] for i in range(len(fib.data) - n + 1)}:
            words.add(alphabet.word([fib.alphabet.render(c) for c in d]).data)
        levels[n] = frozenset(words)
    return check_factor_language(LanguageOracle(alphabet, StoredLevels(levels), "0^inf + fibonacci"))


class TestFactorGraph:
    def test_fibonacci_counts(self, fib_oracle):
        g = build_rauzy(fib_oracle, 4)
        assert len(g.vertices) == 5 and len(g.edges) == 6

    def test_degrees_match_extensions(self, fib_oracle):
        g = build_rauzy(fib_oracle, 5)
        for v in g.vertices:
            rec = extensions(fib_oracle, Word(fib_oracle.alphabet, v))
            assert sum(e[1:] == v for e in g.edges) == len(rec.left)
            assert sum(e[:-1] == v for e in g.edges) == len(rec.right)

    def test_full_shift_de_bruijn(self, full_shift_2):
        g = build_rauzy(full_shift_2, 2)
        assert len(g.vertices) == 4 and len(g.edges) == 8
        for v in g.vertices:
            assert sum(e[1:] == v for e in g.edges) == sum(e[:-1] == v for e in g.edges) == 2

    def test_horizon(self, fib_oracle):
        with pytest.raises(HorizonExceeded):
            build_rauzy(fib_oracle, 29)


class TestSpecialGraph:
    def test_fibonacci_counts(self, fib_oracle):
        sg = build_special_rauzy(fib_oracle, 4)
        assert sg.vertex_count == 2 and sg.edge_count == 3
        assert sorted(sg.vertices.values()) == ["left", "right"]

    def test_iet3_counts(self, iet3_oracle):
        # growth constant 2: two specials a side, 2+2+2 edges
        sg = build_special_rauzy(iet3_oracle, 7)
        assert sg.vertex_count == 4 and sg.edge_count == 6
        profile = sg.type_profile()
        assert sum(profile[0]) - len(profile[0]) == 2  # branching excess

    def test_bispecial_internal_edge(self, fib_oracle):
        sg = build_special_rauzy(fib_oracle, 3)
        internal = [
            (s, d, sg.paths[e]) for e, (s, d) in sg.edges.items()
            if s.startswith("L:") and d == "R:" + s[2:]
        ]
        assert len(internal) == 1
        (src, _, path), = internal
        assert path == src[2:]
        assert sg.edge_count == 3

    def test_edge_count_formula(self, fib_oracle, iet3_oracle):
        for oracle in (fib_oracle, iet3_oracle):
            K = growth_profile(oracle).K
            for n in range(3, 12):
                sg = build_special_rauzy(oracle, n)
                assert sg.edge_count == K + sg.vertex_count

    def test_no_self_loops_on_aperiodic(self, fib_oracle, iet3_oracle):
        for oracle in (fib_oracle, iet3_oracle):
            for n in range(2, 10):
                sg = build_special_rauzy(oracle, n)
                assert all(s != d for s, d in sg.edges.values())


@pytest.fixture(scope="module")
def iet4_oracle():
    return oracle_from_prefix(iet_encode(IET4_SPEC, 200000)[0], 60)


@pytest.mark.parametrize("source", ["fib_oracle", "iet3_oracle", "tm_oracle", "iet4_oracle"])
def test_every_skeleton_is_a_valid_abstract_graph(request, source):
    """Notation items 2-5 on every skeleton within the horizon: left and
    right degrees, ``K = p(n+1) - p(n)``, strong connectivity and no
    self-loops."""
    oracle = request.getfixturevalue(source)
    built = 0
    for n in range(1, oracle.horizon - 1):
        try:
            sg = build_special_rauzy(oracle, n)
        except HorizonExceeded:
            continue
        report = validate(sg)
        assert report.ok, (n, report.violations)
        growth = len(oracle.factor_strings(n + 1)) - len(oracle.factor_strings(n))
        assert report.K == growth, n
        built += 1
    assert built >= 12

def connectivity(graph):
    """(strongly, weakly) connected, for a factor graph or a skeleton."""
    if isinstance(graph, RauzyGraph):
        arcs = [(e[:-1], e[1:]) for e in graph.edges]
    else:
        arcs = list(graph.edges.values())
    succ = lambda v: [d for s, d in arcs if s == v]
    pred = lambda v: [s for s, d in arcs if d == v]
    verts = list(graph.vertices)
    return is_strongly_connected(verts, succ, pred), is_weakly_connected(verts, arcs)


class TestConnectivity:
    def test_fibonacci_strong(self, fib_oracle):
        assert connectivity(build_rauzy(fib_oracle, 6))[0]

    def test_one_ones_language_strong(self, one_ones_oracle):
        for n in range(1, 6):
            assert connectivity(build_rauzy(one_ones_oracle, n))[0]

    def test_weak_only(self, zo):
        # factors of 1...10...0: 0 cannot reach 1
        x = token_prefix(zo, "1" * 20 + "0" * 60, "step")
        g = build_rauzy(oracle_from_prefix(x, 4), 1)
        assert connectivity(g) == (False, True)

    def test_special_graph_matches_factor_graph(
        self, fib_oracle, iet3_oracle, one_ones_oracle
    ):
        for oracle in (fib_oracle, iet3_oracle, one_ones_oracle):
            for n in (3, 5):
                assert connectivity(build_rauzy(oracle, n)) == connectivity(
                    build_special_rauzy(oracle, n)
                )


def test_escaping_walk_raises_on_every_request():
    # blocks 06 and 0123456: the walk from R:0 by 1 needs length 7
    rng = random.Random(3)
    tokens = "".join(rng.choice(["06", "0123456"]) for _ in range(60))
    x = token_prefix(Alphabet(tuple("0123456")), tokens, "blocks")
    oracle = oracle_from_prefix(x, 5)
    for _ in range(2):
        with pytest.raises(HorizonExceeded, match="escapes horizon 5"):
            build_special_rauzy(oracle, 1)


class TestEvolve:
    def test_fibonacci_jump(self, fib_oracle):
        step = evolve(fib_oracle, 4)
        assert step.n_tilde == 6 and step.n_prime == 7
        assert [str(w) for w in step.rbs_events] == ["abaaba"]
        assert step.profile_preserved

    def test_vertex_map_sides(self, fib_oracle):
        step = evolve(fib_oracle, 4)
        for v, v2 in step.vertex_map.items():
            assert v[:2] == v2[:2]
            if v.startswith("L:"):
                assert v2.startswith(v)
            else:
                assert v2.endswith(v[2:])

    def test_profile_across_events(self, iet3_oracle):
        profiles = []
        n = 3
        for _ in range(5):
            step = evolve(iet3_oracle, n)
            profiles.append(step.after.type_profile())
            n = step.n_prime
        assert len(set(profiles)) == 1

    def test_edge_map_is_bijective(self, fib_oracle, iet3_oracle):
        for oracle, start in ((fib_oracle, 2), (iet3_oracle, 3)):
            step = evolve(oracle, start)
            assert sorted(step.edge_map) == sorted(step.before.edges)
            assert sorted(step.edge_map.values()) == sorted(step.after.edges)

    def test_edge_map_rewrites_the_bispecial_edge(self, fib_oracle):
        # the internal edge of the bispecial word must map to the
        # reversed short edge whose path is a one-letter two-sided
        # extension of the word
        step = evolve(fib_oracle, 4)
        old = next(e for e, (s, _) in step.before.edges.items() if s.startswith("L:"))
        new = step.edge_map[old]
        src, dst = step.after.edges[new]
        path = step.after.paths[new]
        w = step.rbs_events[0].data
        assert src.startswith("R:") and dst.startswith("L:")
        assert path[1:-1].endswith(w) or w in path

    @pytest.mark.parametrize("n, n_tilde", [(2, 3), (3, 3), (4, 6), (6, 6)])
    def test_two_skeletons_and_one_identification(self, monkeypatch, fib_oracle, n, n_tilde):
        calls = {"build_special_rauzy": 0, "_identification": 0}
        for name in list(calls):
            def counted(*args, name=name, honest=getattr(rauzy, name)):
                calls[name] += 1
                return honest(*args)

            monkeypatch.setattr(rauzy, name, counted)
        assert evolve(fib_oracle, n).n_tilde == n_tilde
        assert calls == {"build_special_rauzy": 2, "_identification": 1}

    def test_chain_builds_each_skeleton_once(self, monkeypatch, fib_prefix):
        # each step's target skeleton is the next step's starting one
        built = []
        honest = rauzy.SpecialRauzyGraph

        def counted(*args):
            built.append(args[2])
            return honest(*args)

        monkeypatch.setattr(rauzy, "SpecialRauzyGraph", counted)
        oracle = oracle_from_prefix(fib_prefix, 30)
        steps, n = [], 2
        while True:
            try:
                steps.append(evolve(oracle, n))
            except HorizonExceeded:
                break
            n = steps[-1].n_prime
        assert len(steps) >= 3
        assert len(built) == len(steps) + 1
        assert sorted(built) == [steps[0].n] + [s.n_prime for s in steps]
        for step, following in zip(steps, steps[1:]):
            assert following.before is step.after

    def test_no_bispecial_before_horizon(self, fib_prefix):
        oracle = oracle_from_prefix(fib_prefix, 16)
        # bispecial lengths 11 and 19: from 12 the next is out of range
        with pytest.raises(HorizonExceeded):
            evolve(oracle, 12)

    @pytest.mark.parametrize("n", [13, 14, 20])
    def test_no_bispecial_reports_the_horizon_needed(self, fib_prefix, n):
        # at H = 16 the start lengths H - 3, H - 2 and H + 4
        oracle = oracle_from_prefix(fib_prefix, 16)
        with pytest.raises(HorizonExceeded) as err:
            evolve(oracle, n)
        assert str(err.value) == (
            f"start length {n} needs horizon {n + 3}" if n > 13
            else "no bispecial word of length in [13, 13]"
        )

    def test_refuses_on_irregular(self, tm_oracle):
        with pytest.raises(PreconditionFailure) as err:
            evolve(tm_oracle, 2)
        assert str(err.value) == "irregular bispecial in range: 01"

    @pytest.mark.parametrize(
        "symbols,expected",
        [(("b", "a"), ["b", "bb"]), (("zz", "y1", "x22"), ["zz", "zz zz"])],
        ids=["reversed", "multi-character"],
    )
    def test_refusal_spells_the_bispecial_in_tokens(self, symbols, expected):
        # Bernoulli prefixes: the first irregular bispecial is the first
        # code string of the start length, spelled in tokens
        alphabet = Alphabet(symbols)
        rng = random.Random(len(symbols))
        data = "".join(rng.choice(alphabet.codes) for _ in range(3000))
        oracle = oracle_from_prefix(SequencePrefix(alphabet, data, "bernoulli"), 7)
        for n, word in enumerate(expected, 1):
            with pytest.raises(PreconditionFailure) as err:
                evolve(oracle, n)
            assert str(err.value) == f"irregular bispecial in range: {word}"


def test_dot_outputs_are_deterministic(fib_oracle):
    g = build_rauzy(fib_oracle, 4)
    sg = build_special_rauzy(fib_oracle, 4)
    assert rauzy_dot(g, fib_oracle) == rauzy_dot(g, fib_oracle)
    text = special_rauzy_dot(sg, fib_oracle)
    assert text.startswith("digraph") and text.count("->") == 3


# -- references: skeletons through a bulk extension map, edges paired by ends --


def reference_special_rauzy(oracle, n):
    """The branching skeleton walked through a bulk right-extension map,
    with a check at every step of the walk and of every vertex degree."""
    oracle.require_length(n + 2, "special graph")
    lefts = oracle.special_strings(n, "left")
    rights = oracle.special_strings(n, "right")
    specials = lefts | rights
    right_map = {w: set() for w in oracle.factor_strings(n)}
    left_map = {w: set() for w in oracle.factor_strings(n)}
    for w1 in oracle.factor_strings(n + 1):
        right_map[w1[:-1]].add(w1[-1])
        left_map[w1[1:]].add(w1[0])
    raw_edges = []
    for w in sorted(specials):
        origin = (w, "right") if w in rights else (w, "left")
        for b in sorted(right_map[w]):
            path = w + b
            cur = path[1:]
            while cur not in specials:
                nxt = right_map.get(cur)
                if nxt is None or len(path) + 1 > oracle.horizon:
                    raise HorizonExceeded(
                        f"branchless path from {w!r} escapes horizon "
                        f"{oracle.horizon}; graph would be partial"
                    )
                if len(nxt) != 1:
                    raise InvariantViolation(
                        f"interior word {cur!r} of a branchless path is special"
                    )
                (b2,) = nxt
                path += b2
                cur = path[len(path) - n :]
            dst = (cur, "left") if cur in lefts else (cur, "right")
            raw_edges.append((origin, dst, path))
    for w in sorted(lefts & rights):
        raw_edges.append(((w, "left"), (w, "right"), w))
    raw_edges.sort(key=lambda t: (t[0], t[1], t[2]))
    width = max(2, len(str(len(raw_edges))))
    name = lambda v: ("L:" if v[1] == "left" else "R:") + v[0]
    vertices = {name((w, "left")): "left" for w in sorted(lefts)}
    vertices.update((name((w, "right")), "right") for w in sorted(rights))
    edges, paths = {}, {}
    for i, (src, dst, path) in enumerate(raw_edges):
        edges[f"e{i:0{width}d}"] = (name(src), name(dst))
        paths[f"e{i:0{width}d}"] = path
    for v, side in vertices.items():
        in_deg = sum(d == v for _, d in edges.values())
        out_deg = sum(s == v for s, _ in edges.values())
        if side == "left":
            if (in_deg, out_deg) != (len(left_map[v[2:]]), 1):
                raise InvariantViolation(f"left vertex {v} has degrees {in_deg}, {out_deg}")
        elif (in_deg, out_deg) != (1, len(right_map[v[2:]])):
            raise InvariantViolation(f"right vertex {v} has degrees {in_deg}, {out_deg}")
    return SpecialRauzyGraph(vertices, edges, n, paths)


def _signature(g, rename):
    return tuple(sorted((rename[s], rename[d]) for s, d in g.edges.values()))


def _pair_by_endpoints(claimants, target):
    """Assign claimants (eid, path, src, dst) to edges of ``target``
    sharing their endpoints, preferring path containment, deterministically."""
    out = {}
    taken = set()
    for eid, path, src, dst in sorted(claimants, key=lambda t: (t[2], t[3], len(t[1]), t[1])):
        candidates = [
            f for f in target.out_edges(src) if target.edges[f][1] == dst and f not in taken
        ]
        if not candidates:
            raise InvariantViolation(f"no counterpart for edge {eid} ({path!r})")
        contained = [f for f in candidates if path in target.paths[f]]
        chosen = min(
            contained or candidates, key=lambda f: (len(target.paths[f]), target.paths[f], f)
        )
        taken.add(chosen)
        out[eid] = chosen
    return out


def _match_edges(before, tilde_graph, after, final_sim, to_tilde, ident_to_prime):
    if tilde_graph is before:
        before_to_tilde = {eid: eid for eid in before.edges}
    else:
        claimants = [
            (eid, before.paths[eid], to_tilde[s], to_tilde[d])
            for eid, (s, d) in before.edges.items()
        ]
        before_to_tilde = _pair_by_endpoints(claimants, tilde_graph)
    claimants2 = [
        (eid, tilde_graph.paths[eid], ident_to_prime[s], ident_to_prime[d])
        for eid, (s, d) in final_sim.edges.items()
    ]
    tilde_to_after = _pair_by_endpoints(claimants2, after)
    return {eid: tilde_to_after[before_to_tilde[eid]] for eid in before_to_tilde}


def reference_evolve(oracle, n):
    """``evolve`` with skipped lengths compared as endpoint multisets,
    witnesses from ``is_regular_bispecial`` word by word, and edges paired
    by endpoints and path containment."""
    top = oracle.horizon - 3
    n_tilde = None
    for m in range(n, top + 1):
        if oracle.special_strings(m, "left") & oracle.special_strings(m, "right"):
            n_tilde = m
            break
    if n_tilde is None:
        raise HorizonExceeded(
            f"no bispecial word of length in [{n}, {top}]"
        )
    n_prime = n_tilde + 1
    rbc = check_rbc(oracle, n_min=n, n_max=min(n_prime, oracle.horizon - 3))
    if not rbc.holds_within_horizon:
        data, _ = rbc.violations[0]
        raise PreconditionFailure(
            f"irregular bispecial in range: {Word(oracle.alphabet, data)}"
        )
    before = reference_special_rauzy(oracle, n)
    after = reference_special_rauzy(oracle, n_prime)
    tilde_graph, to_tilde = before, {v: v for v in before.vertices}
    base_sig = _signature(before, to_tilde)
    for m in range(n + 1, n_tilde + 1):
        tilde_graph = reference_special_rauzy(oracle, m)
        to_tilde = _identification(oracle, n, m)
        if _signature(tilde_graph, {w: v for v, w in to_tilde.items()}) != base_sig:
            raise InvariantViolation(f"special graph changed at skipped length {m}")
    vertex_map = _identification(oracle, n, n_prime)
    bis = sorted(
        oracle.special_strings(n_tilde, "left")
        & oracle.special_strings(n_tilde, "right")
    )
    rbs_events = [Word(oracle.alphabet, d) for d in bis]
    moves = []
    for data in bis:
        verdict = is_regular_bispecial(oracle, Word(oracle.alphabet, data))
        a_hat = oracle.alphabet.code(verdict.left_witness)
        b_hat = oracle.alphabet.code(verdict.right_witness)
        (internal,) = tilde_graph.out_edges("L:" + data)
        chosen_in = next(
            e
            for e in tilde_graph.in_edges("L:" + data)
            if tilde_graph.paths[e].endswith(a_hat + data)
        )
        chosen_out = next(
            e
            for e in tilde_graph.out_edges("R:" + data)
            if tilde_graph.paths[e].startswith(data + b_hat)
        )
        moves.append((internal, chosen_in, chosen_out))
    ident_to_prime = _identification(oracle, n_tilde, n_prime)
    target_sig = sorted(after.edges.values())
    for order in (moves, moves[::-1]):
        sim = tilde_graph
        for move in order:
            sim = apply_rbs(sim, *move)
        sim_sig = sorted(
            (ident_to_prime[s], ident_to_prime[d]) for (s, d) in sim.edges.values()
        )
        if sim_sig != target_sig:
            raise InvariantViolation(
                "abstract replay of the rewrites disagrees with the directly "
                "built target graph"
            )
    edge_map = _match_edges(before, tilde_graph, after, sim, to_tilde, ident_to_prime)
    return EvolutionStep(
        n, n_tilde, n_prime, before, after, vertex_map, edge_map, rbs_events,
        before.type_profile() == after.type_profile(),
    )


def _comparable(result):
    """``result`` with every skeleton, also those of a step, spelled out:
    skeleton equality leaves out the vertex order, the length and the path
    words."""
    if isinstance(result, SpecialRauzyGraph):
        return list(result.vertices.items()), result.edges, result.n, result.paths
    if isinstance(result, EvolutionStep):
        return result, _comparable(result.before), _comparable(result.after)
    return result


def _outcome(call, *args):
    """The result of ``call``, or the type, message and ``required`` of
    what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # every refusal is compared
        return type(exc), str(exc), getattr(exc, "required", None)


def _random_iet(seed: int):
    """A random interval exchange on 3 to 5 intervals with an irreducible
    permutation: no proper initial block of intervals is mapped to itself."""
    rng = random.Random(seed)
    d = rng.randint(3, 5)
    weights = [rng.randint(1, 1000) for _ in range(d)]
    permutation = list(range(1, d + 1))
    while any(max(permutation[:k]) == k for k in range(1, d)):
        rng.shuffle(permutation)
    spec = IETSpec(
        tuple(Fraction(k, sum(weights)) for k in weights),
        tuple(permutation),
        Fraction(rng.randrange(1000), 1000),
    )
    return iet_encode(spec, 4000)[0]


def _quotients(rng):
    return [rng.randint(1, 3) for _ in range(30)]


SEQUENCES = {
    "fibonacci": lambda: fibonacci_prefix(4000),
    "thue-morse": lambda: substitution_fixed_point(THUE_MORSE, 4000),
    "iet3": lambda: iet_encode(IET3_SPEC, 4000)[0],
    "iet4": lambda: iet_encode(IET4_SPEC, 4000)[0],
    **{
        f"rotation-{seed}": lambda seed=seed: rotation_coding(
            _quotients(random.Random(seed)), 4000
        )
        for seed in range(6)
    },
    **{f"iet-{seed}": lambda seed=seed: _random_iet(seed) for seed in range(6)},
}


def assert_evolve_matches_reference(oracle):
    """Every skeleton and every step from every start agrees with the
    references, refusals included; returns how many steps succeeded."""
    for n in range(1, oracle.horizon - 1):
        assert _comparable(_outcome(build_special_rauzy, oracle, n)) == _comparable(
            _outcome(reference_special_rauzy, oracle, n)
        ), n
    steps = 0
    for n in range(1, oracle.horizon - 2):
        got = _outcome(evolve, oracle, n)
        assert _comparable(got) == _comparable(_outcome(reference_evolve, oracle, n)), n
        steps += isinstance(got, EvolutionStep)
    return steps


class TestEvolveMatchesReference:
    @pytest.mark.parametrize("source", SEQUENCES)
    def test_sequences(self, source):
        x = SEQUENCES[source]()
        steps = 0
        for horizon in (16, 24, 32, 48):
            oracle = _outcome(oracle_from_prefix, x, horizon)
            if isinstance(oracle, LanguageOracle):
                steps += assert_evolve_matches_reference(oracle)
        assert steps or source == "thue-morse"

    def test_explicit_oracles(self, one_ones_oracle, split_union_oracle, zo):
        for oracle in (one_ones_oracle, split_union_oracle, LanguageOracle.full_shift(zo, 8)):
            assert_evolve_matches_reference(oracle)


# -- the skeleton layer raises InvariantViolation only for a bug ---------------


def binary_prefix(tokens: str, provenance: str) -> SequencePrefix:
    return token_prefix(Alphabet(("0", "1")), tokens, provenance)


@st.composite
def fuzz_prefixes(draw):
    """Short binary prefixes of three families: a periodic run followed by
    another (``p^a q^b``), random blocks from a small pool, and Bernoulli
    draws.  Many of them are not recurrent within the horizon."""
    horizon = draw(st.integers(6, 14))
    family = draw(st.sampled_from(["periodic-then-periodic", "blocks", "bernoulli"]))
    word = st.text(alphabet="01", min_size=1, max_size=4)
    if family == "periodic-then-periodic":
        p, q = draw(word), draw(word)
        tokens = p * draw(st.integers(1, 200 // len(p))) + q * draw(st.integers(1, 200 // len(q)))
    elif family == "blocks":
        pool = draw(st.lists(st.text(alphabet="01", min_size=1, max_size=6), min_size=2, max_size=3))
        tokens = "".join(draw(st.lists(st.sampled_from(pool), min_size=20, max_size=80)))
    else:
        tokens = draw(st.text(alphabet="01", min_size=4 * horizon, max_size=200))
    return binary_prefix(tokens, family), horizon


@given(fuzz_prefixes())
# the special graph at n=4 has a self-loop at the right vertex 1001
@example((binary_prefix("001" * 60 + "1" * 200, "(001)^60 1^200"), 20))
# the rewrite at the bispecial 0 would make a self-loop: refused as bad input
@example((binary_prefix("0000" + "01" * 10, "0^4 (01)^10"), 6))
@settings(max_examples=150, deadline=None)
def test_accepted_prefix_never_trips_an_invariant(case):
    """Every skeleton and every step of an accepted prefix is built or
    refused as bad input (exit 1) or an exceeded horizon (exit 2)."""
    x, horizon = case
    try:
        oracle = oracle_from_prefix(x, horizon)
    except PreconditionFailure:
        event("prefix refused")
        return
    for n in range(1, horizon - 1):
        for call in (build_special_rauzy, evolve):
            try:
                call(oracle, n)
                event(f"{call.__name__} built")
            except ShiftlabError as exc:
                assert not isinstance(exc, InvariantViolation), exc
                event(f"{call.__name__} refused: {type(exc).__name__}")
