"""Factor graphs, branching skeletons, circuits, and evolution."""

import pytest

from shiftlab.errors import HorizonExceeded, PreconditionFailure
from shiftlab.generators import SequencePrefix, oracle_from_prefix
from shiftlab.language import LanguageOracle, growth_profile
from shiftlab.rauzy import (
    build_rauzy,
    build_special_rauzy,
    connectivity,
    evolve,
    rauzy_dot,
    representatives,
    special_free_circuit,
    special_rauzy_dot,
)
from shiftlab.words import Alphabet


@pytest.fixture(scope="module")
def one_ones_oracle(zo):
    """Language of words with at most one '1': strongly connected factor
    graphs at every length, yet not recurrent."""
    factors = {}
    H = 12
    for n in range(1, H + 1):
        words = [zo.word("0" * n)]
        for k in range(n):
            words.append(zo.word("0" * k + "1" + "0" * (n - k - 1)))
        factors[n] = words
    return LanguageOracle.from_factor_sets(
        zo, factors, "at most one 1", recurrent=False
    )


@pytest.fixture(scope="module")
def split_union_oracle():
    """Factors of the constant sequence on '0' together with the factors
    of the Fibonacci word: aperiodic, not recurrent, and the constant
    circuit avoids every special vertex."""
    from shiftlab.generators import fibonacci_prefix

    alphabet = Alphabet(("0", "a", "b"))
    fib = fibonacci_prefix(2000)
    H = 8
    factors = {}
    for n in range(1, H + 1):
        words = [alphabet.word("0" * n)]
        for d in {fib.data[i : i + n] for i in range(len(fib.data) - n + 1)}:
            words.append(alphabet.word([fib.alphabet.token(c) for c in d]))
        factors[n] = words
    return LanguageOracle.from_factor_sets(
        alphabet, factors, "0^inf + fibonacci", recurrent=False
    )


class TestFactorGraph:
    def test_fibonacci_counts(self, fib_oracle):
        g = build_rauzy(fib_oracle, 4)
        assert len(g.vertices) == 5 and len(g.edges) == 6

    def test_degrees_match_extensions(self, fib_oracle):
        g = build_rauzy(fib_oracle, 5)
        left = fib_oracle.extension_map(5, "left")
        right = fib_oracle.extension_map(5, "right")
        for v in g.vertices:
            assert g.in_degree(v) == len(left[v])
            assert g.out_degree(v) == len(right[v])

    def test_full_shift_de_bruijn(self, full_shift_2):
        g = build_rauzy(full_shift_2, 2)
        assert len(g.vertices) == 4 and len(g.edges) == 8
        assert all(g.in_degree(v) == 2 and g.out_degree(v) == 2 for v in g.vertices)

    def test_horizon(self, fib_oracle):
        with pytest.raises(HorizonExceeded):
            build_rauzy(fib_oracle, 29)


class TestSpecialGraph:
    def test_fibonacci_counts(self, fib_oracle):
        sg = build_special_rauzy(fib_oracle, 4)
        assert sg.vertex_count == 2 and sg.edge_count == 3
        kinds = sorted(v[1] for v in sg.vertices)
        assert kinds == ["left", "right"]

    def test_iet3_counts(self, iet3_oracle):
        # growth constant 2: two specials a side, 2+2+2 edges
        sg = build_special_rauzy(iet3_oracle, 7)
        assert sg.vertex_count == 4 and sg.edge_count == 6
        profile = sg.type_profile()
        assert sum(profile[0]) - len(profile[0]) == 2  # branching excess

    def test_bispecial_internal_edge(self, fib_oracle):
        sg = build_special_rauzy(fib_oracle, 3)
        internal = [e for e in sg.edges if e.is_internal]
        assert len(internal) == 1
        assert internal[0].path == internal[0].src[0]
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
                assert all(e.src != e.dst for e in sg.edges)


class TestConnectivity:
    def test_fibonacci_strong(self, fib_oracle):
        assert connectivity(build_rauzy(fib_oracle, 6)).strong

    def test_one_ones_language_strong(self, one_ones_oracle):
        for n in range(1, 6):
            assert connectivity(build_rauzy(one_ones_oracle, n)).strong

    def test_weak_only(self, zo):
        # factors of 1...10...0: 0 cannot reach 1
        x = SequencePrefix.from_tokens(zo, "1" * 20 + "0" * 60, "step")
        g = build_rauzy(oracle_from_prefix(x, 4), 1)
        rep = connectivity(g)
        assert rep.weak and not rep.strong

    def test_special_graph_matches_factor_graph(
        self, fib_oracle, iet3_oracle, one_ones_oracle
    ):
        for oracle in (fib_oracle, iet3_oracle, one_ones_oracle):
            for n in (3, 5):
                a = connectivity(build_rauzy(oracle, n))
                b = connectivity(build_special_rauzy(oracle, n))
                assert (a.strong, a.weak) == (b.strong, b.weak)


class TestSpecialFreeCircuit:
    def test_periodic_coding_has_circuit(self, periodic01_oracle):
        rep = special_free_circuit(periodic01_oracle, 2, "left")
        assert rep.circuit is not None
        assert rep.periodicity is not None and rep.periodicity.periodic_within_horizon

    def test_fibonacci_has_none(self, fib_oracle):
        assert special_free_circuit(fib_oracle, 5, "left").circuit is None
        assert special_free_circuit(fib_oracle, 5, "right").circuit is None

    def test_full_shift_every_vertex_special(self, full_shift_2):
        # every word of the full shift is special on both sides, so no
        # circuit can avoid the special vertices
        for side in ("left", "right"):
            rep = special_free_circuit(full_shift_2, 2, side)
            assert rep.circuit is None

    def test_one_ones_language_has_no_circuit(self, one_ones_oracle):
        # the only cycles pass through 0^n, which is special on both
        # sides, so nothing is found despite strong connectivity
        for side in ("left", "right"):
            assert special_free_circuit(one_ones_oracle, 2, side).circuit is None

    def test_non_recurrent_oracle_allowed(self, split_union_oracle):
        # the constant circuit avoids all specials, the language is
        # aperiodic, and no periodicity conclusion is drawn because the
        # language is not recurrent
        rep = special_free_circuit(split_union_oracle, 2, "left")
        assert rep.circuit == ("00",)
        assert rep.oracle_recurrent is False
        assert rep.periodicity is None


class TestRepresentatives:
    def test_internal_edge_is_flagged_empty(self, fib_oracle):
        sg = build_special_rauzy(fib_oracle, 3)
        internal = next(e for e in sg.edges if e.is_internal)
        rep = representatives(sg, internal)
        assert rep.words == () and rep.empty_internal

    def test_left_to_right_edge_keeps_all_windows(self, fib_oracle):
        sg = build_special_rauzy(fib_oracle, 4)
        edge = next(e for e in sg.edges if e.src[1] == "left")
        rep = representatives(sg, edge)
        assert len(rep.words) == len(edge.path) - 4 + 1

    def test_middle_window_only(self, iet3_oracle):
        # an edge of length n+2 between word-special endpoints pins the
        # middle window as its only representative
        sg = build_special_rauzy(iet3_oracle, 3)
        edge = next(
            e
            for e in sg.edges
            if len(e.path) == 5
            and e.src[0] in sg.right_special
            and e.dst[0] in sg.left_special
        )
        rep = representatives(sg, edge)
        assert len(rep.words) == 1
        assert rep.words[0] == edge.path[1:4]

    def test_empty_sets_are_characterized(self, fib_oracle, iet3_oracle):
        # internal edges always flag empty; the only other empty sets
        # come from short paths whose both end words are special (the
        # transient shapes right after a rewrite event)
        for oracle in (fib_oracle, iet3_oracle):
            for n in range(3, 10):
                sg = build_special_rauzy(oracle, n)
                for e in sg.edges:
                    rep = representatives(sg, e)
                    if e.is_internal:
                        assert rep.words == () and rep.empty_internal
                    elif not rep.words:
                        assert e.src[0] in sg.right_special
                        assert e.dst[0] in sg.left_special
                        assert len(e.path) <= n + 2


class TestEvolve:
    def test_fibonacci_jump(self, fib_oracle):
        step = evolve(fib_oracle, 4)
        assert step.n_tilde == 6 and step.n_prime == 7
        assert [str(w) for w in step.rbs_events] == ["abaaba"]
        assert step.profile_preserved

    def test_vertex_map_sides(self, fib_oracle):
        step = evolve(fib_oracle, 4)
        for (w, side), (w2, side2) in step.vertex_map.items():
            assert side == side2
            if side == "left":
                assert w2.startswith(w)
            else:
                assert w2.endswith(w)

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
            assert sorted(step.edge_map) == sorted(
                e.eid for e in step.before.edges
            )
            assert sorted(step.edge_map.values()) == sorted(
                e.eid for e in step.after.edges
            )

    def test_edge_map_rewrites_the_bispecial_edge(self, fib_oracle):
        # the internal edge of the bispecial word must map to the
        # reversed short edge whose path is a one-letter two-sided
        # extension of the word
        step = evolve(fib_oracle, 4)
        old = next(e for e in step.before.edges if e.src[1] == "left")
        new_id = step.edge_map[old.eid]
        new = next(e for e in step.after.edges if e.eid == new_id)
        w = step.rbs_events[0].data
        assert new.src[1] == "right" and new.dst[1] == "left"
        assert new.path[1:-1].endswith(w) or w in new.path

    def test_no_bispecial_before_horizon(self, fib_prefix):
        oracle = oracle_from_prefix(fib_prefix, 16)
        # bispecial lengths 11 and 19: from 12 the next is out of range
        with pytest.raises(HorizonExceeded):
            evolve(oracle, 12)

    def test_refuses_on_irregular(self, tm_oracle):
        with pytest.raises(PreconditionFailure):
            evolve(tm_oracle, 2)


def test_dot_outputs_are_deterministic(fib_oracle):
    g = build_rauzy(fib_oracle, 4)
    sg = build_special_rauzy(fib_oracle, 4)
    assert rauzy_dot(g, fib_oracle) == rauzy_dot(g, fib_oracle)
    text = special_rauzy_dot(sg, fib_oracle)
    assert text.startswith("digraph") and text.count("->") == 3
