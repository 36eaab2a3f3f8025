"""Block densities, the special floor, diagnostics, threshold colors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import IET4_SPEC

from shiftlab.density import (
    block_count,
    block_indicator,
    color_estimate,
    density_estimate,
    exit_density_case,
    interleaving_density_case,
    special_density_floor,
    special_window_check,
    subword_density_case,
)
from shiftlab.errors import PreconditionFailure
from shiftlab.exitwords import enumerate_exit_words
from shiftlab.generators import (
    SequencePrefix,
    fibonacci_prefix,
    iet_encode,
    oracle_from_prefix,
    rotation_coding,
)
from shiftlab.rauzy import build_special_rauzy, representatives
from shiftlab.words import Alphabet, Word

AB = Alphabet(("a", "b"))


@pytest.fixture(scope="module")
def alternating():
    return SequencePrefix.from_tokens(AB, "ab" * 64, "(ab)^inf prefix")


class TestBlockIndicator:
    def test_always_hit(self, alternating):
        for j in (1, 2, 10):
            assert block_indicator(AB.word("ab"), alternating, j, 1) == 1

    def test_never_hit(self, alternating):
        for j in (1, 2, 10):
            assert block_indicator(AB.word("aa"), alternating, j, 1) == 0

    def test_offset_start(self):
        x = SequencePrefix.from_tokens(AB, "bb" + "ab" * 30, "offset")
        assert block_indicator(AB.word("ab"), x, 1, 1) == 1

    def test_out_of_range(self, alternating):
        top = block_count(alternating, 2, 1)
        with pytest.raises(PreconditionFailure):
            block_indicator(AB.word("ab"), alternating, top + 1, 1)

    @given(st.integers(0, 120), st.integers(1, 28))
    @settings(max_examples=60)
    def test_matches_naive_scan(self, fib_prefix, fib_oracle, widx, j):
        words = fib_oracle.words(5)
        w = words[widx % len(words)]
        n, K = len(w), 1
        if j > block_count(fib_prefix, n, K):
            return
        size = (K + 1) * n
        naive = 0
        for k in range((j - 1) * size + 1, j * size + 1):
            if fib_prefix.data[k - 1 : k - 1 + n] == w.data:
                naive = 1
        assert block_indicator(w, fib_prefix, j, K) == naive


class TestDensityEstimate:
    def test_full_density(self, alternating):
        bd = density_estimate(AB.word("ab"), alternating, 1)
        assert bd.estimate == 1

    def test_zero_density(self, alternating):
        assert density_estimate(AB.word("aa"), alternating, 1).estimate == 0

    def test_series_shape(self, fib_prefix):
        bd = density_estimate(AB.word("abaa"), fib_prefix, 1)
        assert bd.blocks == block_count(fib_prefix, 4, 1)
        # cumulative hits never decrease and averages stay in [0, 1]
        assert all(b >= a for a, b in zip(bd.hits, bd.hits[1:]))
        assert all(0 <= a <= 1 for a in bd.averages)

    def test_too_short(self):
        x = SequencePrefix.from_tokens(AB, "ab" * 4, "short")
        with pytest.raises(PreconditionFailure):
            density_estimate(AB.word("ab"), x, 1)


class TestSpecialFloor:
    def test_fibonacci(self, fib_oracle, fib_prefix):
        for n in (4, 8, 16):
            for side in ("left", "right"):
                rep = special_density_floor(fib_oracle, fib_prefix, n, side, 1)
                assert rep.passed
                assert rep.best >= Fraction(19, 20)

    def test_iet3(self, iet3_oracle, iet3_prefix):
        rep = special_density_floor(iet3_oracle, iet3_prefix, 10, "left", 2)
        assert rep.passed and rep.best >= Fraction(9, 20)

    def test_periodic_refused(self):
        x = rotation_coding(Fraction(1, 3), 400)
        oracle = oracle_from_prefix(x, 8)
        with pytest.raises(PreconditionFailure, match="periodic"):
            special_density_floor(oracle, x, 3, "left", 1)

    def test_wrong_constant_refused(self, fib_oracle, fib_prefix):
        with pytest.raises(PreconditionFailure, match="constant"):
            special_density_floor(fib_oracle, fib_prefix, 4, "left", 2)


class TestWindowCheck:
    def test_fibonacci(self, fib_oracle, fib_prefix):
        for n in (4, 8, 16):
            rep = special_window_check(fib_oracle, fib_prefix, n, 1)
            assert rep.ok and rep.first_failure is None

    def test_iet3(self, iet3_oracle, iet3_prefix):
        for n in (5, 10, 20):
            assert special_window_check(iet3_oracle, iet3_prefix, n, 2).ok

    def test_failure_is_located(self):
        # the dichotomy: a periodic language has no special factors at
        # all, so the very first window already fails
        x = rotation_coding(Fraction(1, 3), 400)
        oracle = oracle_from_prefix(x, 8)
        rep = special_window_check(oracle, x, 2, 1)
        assert not rep.ok
        assert rep.first_failure == ("left", 1)

    @pytest.mark.parametrize("source", ["fibonacci", "iet4"])
    def test_matches_rolling_reference(self, source):
        # random strings never fail the check, so half the inputs get a
        # periodic stretch spliced in; those are also cut at every length
        # that ends the last window just inside the stretch, so the last
        # special start before it meets the last window at every offset
        x = fibonacci_prefix(2000) if source == "fibonacci" else iet_encode(IET4_SPEC, 2000)[0]
        oracle = oracle_from_prefix(x, 16)
        rng = random.Random(source)
        outcomes = set()
        for _ in range(8):
            data, stretch = x.data, None
            if rng.random() < 0.5:
                p, length = rng.randint(1, 3), rng.randint(5, 200)
                k = rng.randrange(len(data) - p)
                period = data[k : k + p]
                pos = rng.choice([0, len(data) - length, rng.randrange(len(data) - length)])
                data = data[:pos] + (period * length)[:length] + data[pos + length :]
                stretch = (pos, pos + length)
            for n in (2, 4, 6, 8, 12):
                for K in (1, 2, 3):
                    cuts = [len(data)]
                    if stretch is not None:
                        lo, hi = stretch
                        cuts += range(max(lo + n, (K + 2) * n), min(lo + (K + 3) * n, hi))
                    for cut in cuts:
                        y = SequencePrefix(x.alphabet, data[:cut], "spliced")
                        rep = special_window_check(oracle, y, n, K)
                        expected = _rolling_window_check(oracle, y, n, K)
                        assert (rep.ok, rep.windows, rep.first_failure) == expected
                        outcomes.add(rep.ok)
        assert outcomes == {True, False}


def _rolling_window_check(oracle, x, n, K):
    """Reference: slide a window of ``(K+1)n`` start positions along the
    prefix and count the special starts inside it."""
    width = (K + 2) * n - 1
    total = len(x) - width + 1
    starts_width = (K + 1) * n
    for side in ("left", "right"):
        specials = oracle.special_strings(n, side)
        flags = [
            1 if x.data[i : i + n] in specials else 0
            for i in range(len(x) - n + 1)
        ]
        run = sum(flags[:starts_width])
        for j in range(total):
            if j > 0:
                run += flags[j + starts_width - 1] - flags[j - 1]
            if run == 0:
                return False, total, (side, j + 1)
    return True, total, None


class TestDiagnostics:
    def test_subword_case(self, fib_prefix):
        w = AB.word("abaababa")
        case = subword_density_case(fib_prefix, w, AB.word("abaa"), 1)
        assert case.hypothesis_ok and case.margin >= 0 and case.note == "ok"

    def test_subword_case_rejects(self, fib_prefix):
        case = subword_density_case(fib_prefix, AB.word("abaa"), AB.word("bb"), 1)
        assert not case.hypothesis_ok

    def test_interleaving_with_edge_representatives(self, fib_prefix, fib_oracle):
        n = 8
        sg = build_special_rauzy(fib_oracle, n)
        v = next(v for v in sg.vertices if v[1] == "left")
        reps = [
            Word(fib_oracle.alphabet, representatives(sg, e).words[0])
            for e in sg.in_edges(v)
        ]
        case = interleaving_density_case(
            fib_prefix, Word(fib_oracle.alphabet, v[0]), reps, 1
        )
        assert case.hypothesis_ok and case.note == "ok"
        # the floor here is 1/(p(1+3n/m)) = 1/(4p) with p = 2 in-edges
        assert case.rhs == pytest.approx(1 / 8)

    def test_interleaving_rejects_bad_family(self, fib_prefix):
        case = interleaving_density_case(
            fib_prefix, AB.word("abaa"), [AB.word("bbbb")], 1
        )
        assert not case.hypothesis_ok

    def test_exit_density_case(self, fib_prefix, fib_oracle):
        w = AB.word("abaaba")
        report = enumerate_exit_words(w, 3, fib_oracle)
        zs = [x.z for x in report.exit_words]
        case = exit_density_case(fib_prefix, w, zs, 1, fib_oracle)
        assert case.note == "ok" and case.margin >= 0

    def test_batch_dispatcher(self, fib_prefix, fib_oracle):
        from shiftlab.density import inequality_diagnostics

        w = AB.word("abaaba")
        zs = [x.z for x in enumerate_exit_words(w, 3, fib_oracle).exit_words]
        reports = inequality_diagnostics(
            fib_prefix,
            [
                ("subword", AB.word("abaababa"), AB.word("abaa")),
                ("exit", w, zs, fib_oracle),
            ],
            1,
        )
        assert [r.name for r in reports] == ["subword-density", "exit-word-density"]
        assert all(r.note == "ok" for r in reports)


class TestReturnGaps:
    def test_fibonacci_gaps_are_bounded(self, fib_prefix, fib_oracle):
        from shiftlab.density import return_gaps

        # uniform recurrence diagnostic: every length-6 factor recurs
        # with a bounded gap
        for w in fib_oracle.words(6):
            gaps = return_gaps(fib_prefix, w)
            assert gaps.occurrences > 100
            assert gaps.max_gap is not None and gaps.max_gap <= 40

    def test_rare_word(self, fib_prefix):
        from shiftlab.density import return_gaps

        gaps = return_gaps(fib_prefix, AB.word("bb"))
        assert gaps.occurrences == 0 and gaps.max_gap is None


class TestColorEstimate:
    def test_sturmian_ladder(self, fib_prefix, fib_oracle):
        ladder = [
            Word(fib_oracle.alphabet, sorted(fib_oracle.special_strings(n, "left"))[0])
            for n in (6, 8, 10, 12)
        ]
        ce = color_estimate(ladder, {"nu1": fib_prefix}, 1)
        assert ce.color == "nu1"

    def test_disjoint_candidate_gets_zero(self, fib_oracle):
        ladder = [
            Word(fib_oracle.alphabet, sorted(fib_oracle.special_strings(n, "left"))[0])
            for n in (6, 8)
        ]
        other = SequencePrefix.from_tokens(AB, "b" * 4000, "constant")
        assert color_estimate(ladder, {"nu1": other}, 1).color == 0

    def test_duplicates_are_ambiguous(self, fib_prefix, fib_oracle):
        ladder = [
            Word(fib_oracle.alphabet, sorted(fib_oracle.special_strings(8, "left"))[0])
        ]
        ce = color_estimate(ladder, {"nu1": fib_prefix, "nu2": fib_prefix}, 1)
        assert ce.color == "ambiguous"

    def test_threshold_window(self, fib_prefix, fib_oracle):
        ladder = [
            Word(fib_oracle.alphabet, sorted(fib_oracle.special_strings(8, "left"))[0])
        ]
        with pytest.raises(PreconditionFailure):
            color_estimate(ladder, {"nu1": fib_prefix}, 1, threshold=0.6)
