"""Acceptance criteria, one test per criterion, each at its stated
tolerance and time budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one pass/fail line per criterion."""

import random
import time
from fractions import Fraction
from functools import wraps

import pytest

from shiftlab.abstract_graphs import (
    bound_check,
    build_xi,
    exhaustive_bound_probe,
    move_effect,
    random_abc_move,
    random_graph_with_loops,
    random_twist_shrink_log,
    search_colorings,
    validate,
)
from shiftlab.density import special_density_floor, special_window_check
from shiftlab.errors import HorizonExceeded
from shiftlab.exitwords import check_overlap_bound, classify_occurrence, decompose
from shiftlab.generators import (
    fibonacci_prefix,
    iet_encode,
    oracle_from_prefix,
)
from shiftlab.language import (
    LanguageOracle,
    check_rbc,
    extensions,
    growth_profile,
)
from shiftlab.rauzy import build_special_rauzy, evolve
from shiftlab.words import Alphabet, minimal_step, occurrences, periodic_power, valid_steps

from conftest import IET3_SPEC, IET4_SPEC


def criterion(number, description, budget_seconds):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            elapsed = time.monotonic() - start
            print(
                f"ACCEPTANCE {number} PASS: {description} "
                f"({elapsed:.1f}s / {budget_seconds}s budget)"
            )
            assert elapsed < budget_seconds, f"over time budget: {elapsed:.1f}s"

        return wrapper

    return deco


@criterion(1, "Sturmian baseline at horizon 60", 10)
def test_criterion_1_sturmian_baseline():
    oracle = oracle_from_prefix(fibonacci_prefix(20000), 60)
    profile = growth_profile(oracle)
    assert all(profile.p[n] == n + 1 for n in range(1, 61))
    assert profile.K == 1
    rbc = check_rbc(oracle, 1)
    assert rbc.holds_within_horizon and rbc.violations == []
    for n in range(1, 58):
        for w in oracle.words(n):
            assert extensions(oracle, w).is_dendric


@criterion(2, "interval-exchange growth at horizon 40", 60)
def test_criterion_2_iet_growth():
    for spec, d in ((IET3_SPEC, 3), (IET4_SPEC, 4)):
        prefix, diag = iet_encode(spec, 100000)
        assert not diag.violated
        oracle = oracle_from_prefix(prefix, 40)
        profile = growth_profile(oracle)
        assert profile.K == d - 1 and profile.constant_at(profile.N0)
        assert check_rbc(oracle, 1).holds_within_horizon


@criterion(3, "exit-word reproduction for the ones block", 10)
def test_criterion_3_exit_word_reproduction():
    zo = Alphabet(("0", "1"))
    oracle = LanguageOracle.full_shift(zo, 20)
    w = zo.word("1111")
    z = zo.word("0" + "1" * 15 + "0")
    reps3 = [r.as_tuple() for r in decompose(z, w, 3, oracle)]
    assert ("0", 4, "110") in reps3
    reps2 = [r.as_tuple() for r in decompose(z, w, 2, oracle)]
    assert ("01", 6, "0") in reps2
    assert minimal_step(w, oracle) == 1
    reps1 = decompose(z, w, 1, oracle)
    assert len(reps1) == 1
    count, _ = occurrences(z, w)
    assert count == reps1[0].r == 12


def _brute_classify(x, w, q, j):
    n = len(w)
    period = w.data[:q]

    def expect(pos):
        return period[(pos - j) % q]

    lo = j
    while lo > 1 and x.data[lo - 2] == expect(lo - 1):
        lo -= 1
    if lo == 1:
        return ("power", None, None)
    hi = j + n - 1
    while hi < len(x.data) and x.data[hi] == expect(hi + 1):
        hi += 1
    if hi == len(x.data):
        return ("insufficient", None, None)
    return ("exit", lo - 1, hi + 1)


@criterion(4, "step/exit-word lemma suites (exhaustive and scans)", 300)
def test_criterion_4_lemma_suites():
    from math import gcd

    # gcd closure and window distinctness over all binary words <= 12
    zo = Alphabet(("0", "1"))
    shift = LanguageOracle.full_shift(zo, 18)
    for n in range(2, 13):
        for bits in range(2**n):
            w = zo.word_from_codes(
                "".join("01"[(bits >> i) & 1] for i in range(n))
            )
            steps = [c.q for c in valid_steps(w, shift)]
            for q1 in steps:
                for q2 in steps:
                    assert gcd(q1, q2) in steps
            if steps:
                q0 = steps[0]
                power = periodic_power(w, q0, 2)
                windows = {power.data[i : i + n] for i in range(q0)}
                assert len(windows) == q0

    # occurrence dichotomy and overlap bounds on 1e4 prefixes
    fib = fibonacci_prefix(10000)
    fib_oracle = oracle_from_prefix(fib, 30)
    iet_prefix, _ = iet_encode(IET3_SPEC, 10000)
    iet_oracle = oracle_from_prefix(iet_prefix, 30)
    cases = [
        (fib, fib_oracle, fib.alphabet.word("abaaba")),
        (iet_prefix, iet_oracle, iet_prefix.alphabet.word("1221312213")),
    ]
    for x, oracle, w in cases:
        q = minimal_step(w, oracle)
        assert q is not None
        pos = x.data.find(w.data)
        seen = 0
        while pos != -1:
            j = pos + 1
            expected = _brute_classify(x, w, q, j)
            if expected[0] == "insufficient":
                with pytest.raises(HorizonExceeded):
                    classify_occurrence(x, w, j, oracle)
            else:
                cls = classify_occurrence(x, w, j, oracle)
                if expected[0] == "power":
                    assert cls.case == "suffix-of-power"
                else:
                    # exactly the second case, with the unique enclosing
                    # exit word the periodic block determines
                    assert cls.case == "inside-exit-word"
                    assert (cls.exit_start, cls.exit_end) == expected[1:]
            seen += 1
            pos = x.data.find(w.data, pos + 1)
        assert seen > 500
        overlap = check_overlap_bound(x, w, q, oracle)
        assert overlap.all_satisfied and overlap.pairs


@criterion(5, "branching-skeleton structure and evolution", 120)
def test_criterion_5_rauzy_structure():
    # five rewrite events on the golden-ratio language reach length 33,
    # whose branchless paths run to 67 letters; the horizon must cover them
    fib_oracle = oracle_from_prefix(fibonacci_prefix(20000), 72)
    iet_prefix, _ = iet_encode(IET3_SPEC, 100000)
    iet_oracle = oracle_from_prefix(iet_prefix, 30)
    for oracle, start in ((fib_oracle, 2), (iet_oracle, 3)):
        K = growth_profile(oracle).K
        for n in (start + 1, start + 2):
            sg = build_special_rauzy(oracle, n)
            assert sg.edge_count == K + sg.vertex_count
            assert all(s != d for s, d in sg.edges.values())
        profiles = []
        events = 0
        n = start
        while events < 5:
            step = evolve(oracle, n)
            events += len(step.rbs_events)
            profiles.append(step.after.type_profile())
            n = step.n_prime
        assert len(set(profiles)) == 1
        assert events >= 5


@criterion(6, "quotient count identity on 100 random instances", 120)
def test_criterion_6_quotient_arithmetic():
    rng = random.Random(20260811)
    produced = 0
    while produced < 100:
        graph, loops = random_graph_with_loops(rng)
        moves = random_twist_shrink_log(rng, graph, loops, rng.randint(0, 5))
        E = len(loops)
        xi = build_xi(graph, loops, moves)
        assert len(xi.edges) - len(xi.vertices) == graph.K - 2 * E
        report = bound_check(graph, loops, moves)
        if report.xi_connected:
            # independent counting route: a connected graph has at least
            # vertices - 1 edges, which forces the loop bound
            assert len(xi.edges) >= len(xi.vertices) - 1
            assert report.bound_satisfied
            assert 2 * E <= graph.K + 1
        produced += 1


@criterion(7, "components-and-tags bookkeeping on 1000 random moves", 240)
def test_criterion_7_components_and_tags():
    rng = random.Random(4711)
    counts = {"A": 0, "B": 0, "C": 0}
    while sum(counts.values()) < 1000:
        graph, loops = random_graph_with_loops(rng)
        mv = random_abc_move(rng, graph, loops)
        if mv is None:
            continue
        effect = move_effect(graph, loops, mv)  # verified internally
        counts[effect.kind] += 1
        if effect.kind in ("A", "C"):
            assert effect.before.as_set() == effect.after.as_set()
        else:
            assert effect.ejected is not None
            assert len(effect.after.components) in (
                len(effect.before.components),
                len(effect.before.components) - 1,
            )
            for tag in effect.after.tags:
                assert effect.ejected not in set().union(*tag)
    # all three kinds must actually have been exercised
    assert all(counts[k] > 0 for k in "ABC"), counts


@criterion(8, "special-word density floors on 1e5 prefixes", 120)
def test_criterion_8_density_floor():
    fib = fibonacci_prefix(100000)
    fib_oracle = oracle_from_prefix(fib, 40)
    iet, _ = iet_encode(IET3_SPEC, 100000)
    iet_oracle = oracle_from_prefix(iet, 42)
    jobs = (
        (fib_oracle, fib, 1, (4, 8, 16)),
        (iet_oracle, iet, 2, (5, 10, 20)),
    )
    for oracle, x, K, lengths in jobs:
        for n in lengths:
            for side in ("left", "right"):
                floor = special_density_floor(oracle, x, n, side, K, tolerance=0.05)
                assert floor.passed
                assert floor.best >= Fraction(1, K) - Fraction(1, 20)
            window = special_window_check(oracle, x, n, K)
            assert window.ok


@criterion(9, "loop-count tightness probe", 120)
def test_criterion_9_tightness_probe():
    from test_abstract_graphs import k3_shape

    result = search_colorings(k3_shape(), 2)
    assert result.found is not None
    coloring, loops = result.found
    assert validate(k3_shape(), coloring).ok
    assert len(loops) == 2  # attains floor((K+1)/2) for K = 3
    certificate, witness = exhaustive_bound_probe(2, 2, max_vertices=8)
    assert certificate.impossible and witness is None
    assert certificate.graphs_examined > 0
