"""The oracle over its level source: which levels and counts each query
asks for, and exact counts from a computed source."""

from collections import Counter

import pytest

from shiftlab.errors import HorizonExceeded
from shiftlab.exitwords import enumerate_exit_words
from shiftlab.generators import fibonacci_prefix, thue_morse_prefix
from shiftlab.language import (
    SIDES,
    LanguageOracle,
    StoredLevels,
    growth_profile,
)
from shiftlab.words import CODE_CHARS, Alphabet, Word, minimal_step, shift_match


class CountingSource:
    """Stored levels that record every level read and every count asked."""

    def __init__(self, levels):
        self.stored = StoredLevels(levels)
        self.horizon = self.stored.horizon
        self.levels_read: Counter[int] = Counter()
        self.counts_asked: Counter[int] = Counter()

    def level(self, n):
        self.levels_read[n] += 1
        return self.stored.level(n)

    def p(self, n):
        self.counts_asked[n] += 1
        return self.stored.p(n)

    def reset(self):
        self.levels_read.clear()
        self.counts_asked.clear()


def window_levels(data: str, horizon: int) -> dict[int, frozenset[str]]:
    return {
        n: frozenset(data[i : i + n] for i in range(len(data) - n + 1))
        for n in range(1, horizon + 1)
    }


H = 12


@pytest.fixture(params=["fibonacci", "thue-morse", "full-shift"])
def counted(request):
    """A fresh oracle on a counting source, and the source."""
    if request.param == "full-shift":
        full = LanguageOracle.full_shift(Alphabet(("0", "1")), H)
        alphabet = full.alphabet
        levels = {n: frozenset(full.factor_strings(n)) for n in range(1, H + 1)}
    else:
        x = (fibonacci_prefix if request.param == "fibonacci" else thue_morse_prefix)(3000)
        alphabet, levels = x.alphabet, window_levels(x.data, H)
    source = CountingSource(levels)
    return LanguageOracle(alphabet, source, request.param), source


class TestLevelTraffic:
    def test_building_reads_nothing(self, counted):
        oracle, source = counted
        assert oracle.horizon == source.horizon == H
        assert not source.levels_read and not source.counts_asked

    def test_p_asks_the_source_once_and_reads_no_level(self, counted):
        oracle, source = counted
        for n in range(1, H + 1):
            source.reset()
            assert oracle.p(n) == len(source.stored.level(n))
            assert source.counts_asked == {n: 1}
            assert not source.levels_read

    def test_contains_reads_only_its_length(self, counted):
        oracle, source = counted
        for n in range(1, H + 1):
            for data in sorted(source.stored.level(n))[:3]:
                source.reset()
                assert oracle.contains(Word(oracle.alphabet, data))
                assert source.levels_read == {n: 1}
                assert not source.counts_asked

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_special_sets_read_only_the_level_above(self, counted, order):
        # ascending, a set may be walked from the one a letter shorter;
        # descending, each is counted cold
        oracle, source = counted
        lengths = range(1, H) if order == "ascending" else range(H - 1, 0, -1)
        for side in SIDES:
            for n in lengths:
                source.reset()
                oracle.special_strings(n, side)
                assert set(source.levels_read) == {n + 1}, (n, side)
                assert set(source.counts_asked) <= {n + 1}, (n, side)

    def test_minimal_step_reads_only_shift_matched_lengths(self, counted):
        oracle, source = counted
        scanned = 0
        for n in range(2, 9):
            for data in sorted(source.stored.level(n)):
                matched = [
                    q for q in range(1, n // 2 + 1)
                    if all(data[i] == data[i + q] for i in range(n - q))
                ]
                source.reset()
                minimal_step(Word(oracle.alphabet, data), oracle)
                assert source.levels_read == Counter(n + q for q in matched), data
                assert not source.counts_asked
                scanned += bool(matched)
        assert scanned

    def test_exit_word_enumeration_reads_each_level_once(self, counted):
        # a first run stores the minimal step, growth profile and RBC
        # report; a second one reads the base word's level and then each
        # exit-word length up to the cap, once, whatever the step
        oracle, source = counted
        several = 0
        for n in range(2, 6):
            for data in sorted(source.stored.level(n)):
                w = Word(oracle.alphabet, data)
                for q in [q for q in range(1, n) if shift_match(w, q)]:
                    for cap in (H, n + 4):
                        enumerate_exit_words(w, q, oracle, cap)
                        source.reset()
                        enumerate_exit_words(w, q, oracle, cap)
                        assert source.levels_read == Counter([n, *range(n + 2, cap + 1)])
                        assert not source.counts_asked
                        several += q > 1
        assert several


class TestStoredLevels:
    def test_horizon_is_the_number_of_levels(self):
        assert StoredLevels({1: {"0"}, 2: {"00"}}).horizon == 2

    @pytest.mark.parametrize(
        "levels", [{1: {"0"}, 3: {"000"}}, {0: {""}, 1: {"0"}}, {2: {"00"}}]
    )
    def test_refuses_lengths_other_than_one_to_horizon(self, levels):
        with pytest.raises(ValueError, match="cover lengths 1..horizon"):
            StoredLevels(levels)

    def test_no_levels_is_no_oracle(self):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            LanguageOracle(Alphabet(("0",)), StoredLevels({}), "empty")


class TestExactFullShiftCounts:
    def test_binary_past_a_machine_word(self):
        oracle = LanguageOracle.full_shift(Alphabet(("0", "1")), 70)
        assert oracle.p(70) == 2**70
        assert oracle.contains(Word(oracle.alphabet, "01" * 35))
        with pytest.raises(HorizonExceeded):
            oracle.p(71)

    def test_every_code(self):
        oracle = LanguageOracle.full_shift(Alphabet(tuple(CODE_CHARS)), 11)
        assert len(CODE_CHARS) == 62
        assert oracle.p(11) == 62**11
        assert [oracle.p(n) for n in range(1, 12)] == [62**n for n in range(1, 12)]

    def test_growth_profile_at_horizon_70(self):
        profile = growth_profile(LanguageOracle.full_shift(Alphabet(("0", "1")), 70))
        assert profile.p[70] == 2**70
        assert list(profile.differences.values()) == [2**n for n in range(1, 70)]
        assert profile.verdict == "not constant within horizon"
