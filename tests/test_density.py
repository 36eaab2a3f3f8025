"""Block densities, the special floor, the window check, threshold colors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import IET4_SPEC

from shiftlab import density
from shiftlab.density import (
    BlockDensity,
    block_count,
    color_estimate,
    density_estimate,
    special_density_floor,
    special_window_check,
)
from shiftlab.errors import AlphabetMismatch, PreconditionFailure
from shiftlab.generators import (
    SequencePrefix,
    fibonacci_prefix,
    iet_encode,
    oracle_from_prefix,
    rotation_coding,
)
from shiftlab.words import Alphabet, Word, occurrences

AB = Alphabet(("a", "b"))


@pytest.fixture(scope="module")
def alternating():
    return SequencePrefix.from_tokens(AB, "ab" * 64, "(ab)^inf prefix")


def block_flags(w, x, K):
    """The block indicator of ``w``: per block of ``(K+1)|w|`` start
    positions, 1 when ``w`` starts in it, read off the cumulative hits."""
    hits = density_estimate(w, x, K).hits
    return [b - a for a, b in zip((0,) + hits, hits)]


class TestBlockIndicator:
    def test_always_hit(self, alternating):
        assert set(block_flags(AB.word("ab"), alternating, 1)) == {1}

    def test_never_hit(self, alternating):
        assert set(block_flags(AB.word("aa"), alternating, 1)) == {0}

    def test_offset_start(self):
        x = SequencePrefix.from_tokens(AB, "bb" + "ab" * 30, "offset")
        assert block_flags(AB.word("ab"), x, 1)[0] == 1

    def test_out_of_range(self):
        # "ab" starts only at 17, past the 4 complete blocks of starts 1..16
        x = SequencePrefix.from_tokens(AB, "a" * 17 + "b", "late")
        assert block_count(x, 2, 1) == 4
        assert block_flags(AB.word("ab"), x, 1) == [0, 0, 0, 0]

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
        assert block_flags(w, fib_prefix, K)[j - 1] == naive


def ref_density_estimate(w, x, K):
    """Reference: the block of every occurrence, one step each."""
    n = len(w)
    N = block_count(x, n, K)
    if N < 4:
        raise PreconditionFailure(
            f"prefix too short: only {N} complete blocks, need at least 4"
        )
    size = (K + 1) * n
    flags = [0] * N
    for k in occurrences(x, w)[1]:
        j = (k - 1) // size  # 0-based block of start k ((j)(size) < k <= (j+1)(size))
        if j < N:
            flags[j] = 1
    hits = []
    acc = 0
    for f in flags:
        acc += f
        hits.append(acc)
    return BlockDensity(w, K, N, tuple(hits))


def outcome(fn, *args):
    """A call's value, or its exception's type and message."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception is the behaviour compared
        return "raised", type(exc), str(exc)


ALPHABETS = [AB, Alphabet(("a", "b", "c"))]


def assert_hits_match(alphabet, data, w_data, K):
    x = SequencePrefix(alphabet, data, "prefix")
    w = Word(alphabet, w_data)
    assert outcome(density_estimate, w, x, K) == outcome(ref_density_estimate, w, x, K)


class TestBlockHitsMatchReference:
    """``density_estimate`` searches once per hit block; the reference
    places every occurrence in its block."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(ALPHABETS), st.integers(1, 6), st.integers(1, 3))
    def test_random_prefixes(self, data, alphabet, n, K):
        letters = alphabet.codes
        text = data.draw(st.text(letters, min_size=1, max_size=400))
        if len(text) >= n and data.draw(st.booleans()):
            # a factor of the prefix: usually dense
            k = data.draw(st.integers(0, len(text) - n))
            w_data = text[k : k + n]
        else:
            w_data = data.draw(st.text(letters, min_size=n, max_size=n))
        assert_hits_match(alphabet, text, w_data, K)

    @settings(max_examples=200, deadline=None)
    @given(
        st.data(), st.sampled_from(ALPHABETS), st.integers(1, 5), st.integers(1, 3),
        st.integers(4, 12),
    )
    def test_start_just_past_the_last_block(self, data, alphabet, n, K, N):
        # w starts at the first position after the N whole blocks, the
        # first start that no block holds
        size, letters = (K + 1) * n, alphabet.codes
        w_data = data.draw(st.text(letters, min_size=n, max_size=n))
        filler = data.draw(st.text(letters, min_size=N * size, max_size=N * size))
        x = SequencePrefix(alphabet, filler + w_data, "prefix")
        assert block_count(x, n, K) == N
        assert_hits_match(alphabet, x.data, w_data, K)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["fibonacci", "iet3"]), st.integers(200, 5000), st.integers(1, 14),
        st.integers(1, 3), st.booleans(), st.integers(0, 10**6),
    )
    def test_sequence_prefixes(self, fib_prefix, iet3_prefix, source, length, n, K, dense, pick):
        prefix = fib_prefix if source == "fibonacci" else iet3_prefix
        data = prefix.data[:length]
        if dense:
            # the factor at a random position: drawn by frequency
            k = pick % (length - n + 1)
            w_data = data[k : k + n]
        else:
            # a distinct factor drawn uniformly, rare ones included
            factors = sorted({data[k : k + n] for k in range(length - n + 1)})
            w_data = factors[pick % len(factors)]
        assert_hits_match(prefix.alphabet, data, w_data, K)


    def test_word_over_another_alphabet(self, fib_prefix):
        other = Alphabet(("b", "a"))
        w = Word(other, other.codes)
        got = outcome(density_estimate, w, fib_prefix, 1)
        assert got == outcome(ref_density_estimate, w, fib_prefix, 1)
        assert got[:2] == ("raised", AlphabetMismatch)


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

    def test_periodicity_scanned_once_per_oracle(self, monkeypatch, fib_prefix):
        # a fresh oracle, so that no earlier test has filled its memo
        oracle = oracle_from_prefix(fib_prefix, 30)
        calls = []
        p = oracle.p
        monkeypatch.setattr(oracle, "p", lambda n: calls.append(n) or p(n))
        special_density_floor(oracle, fib_prefix, 4, "left", 1)
        first = len(calls)
        # the growth profile and the periodicity scan, each over 1..30
        assert first == 60
        for n in (4, 8, 16):
            for side in ("left", "right"):
                special_density_floor(oracle, fib_prefix, n, side, 1)
        assert len(calls) == first


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
        # short strings: their leftmost non-overlapping matches often lie
        # more than a window's starts apart, while the reference passes (a
        # self-overlapping special such as Fibonacci's 010 starts inside a
        # match) or fails too; against the Fibonacci oracle the pinned ones
        # pass at n=3 with a gap of exactly one window's starts, and fail
        # after 0, between two matches and before the end
        pinned = [
            "10010000010010001010000101100101111",
            "0101001101010101001010100000101101000100",
            "1100010101001110100101011100001011001001",
            "0000100110100001000001110000110110111110",
            "0100010111010000011001101010001110001101",
            "1110100101101010001001001000110110111111",
            "1110100010110000001000111010001100110110",
            "010000",
        ]
        codes = x.alphabet.codes
        shorts = pinned + ["".join(rng.choices(codes, k=rng.randint(5, 40))) for _ in range(200)]
        for data in shorts:
            y = SequencePrefix(x.alphabet, data, "short")
            for n in (2, 3, 4):
                for K in (1, 2, 3):
                    if len(data) >= (K + 2) * n - 1:
                        rep = special_window_check(oracle, y, n, K)
                        expected = _rolling_window_check(oracle, y, n, K)
                        assert (rep.ok, rep.windows, rep.first_failure) == expected
        assert outcomes == {True, False}

    def test_fixtures_pass_without_listing_starts(
        self, monkeypatch, fib_oracle, fib_prefix, iet3_oracle, iet3_prefix
    ):
        # at the benchmark's floor lengths every match gap fits a window
        # (Fibonacci at n=4 exactly), so no start is listed
        def refuse(*args):
            raise AssertionError("occurrences listed")

        monkeypatch.setattr(density, "occurrences", refuse)
        iet4_prefix = iet_encode(IET4_SPEC, 100000)[0]
        cases = [
            (fib_oracle, fib_prefix, 1, (4, 8, 16)),
            (iet3_oracle, iet3_prefix, 2, (5, 10, 20)),
            (oracle_from_prefix(iet4_prefix, 30), iet4_prefix, 3, (5, 10, 20)),
        ]
        for oracle, x, K, ns in cases:
            for n in ns:
                assert special_window_check(oracle, x, n, K).ok


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
