"""Word primitives: occurrences, periodic powers, steps."""

import pytest
from hypothesis import given, strategies as st

from exitword_reference import InvalidStep, ref_power
from shiftlab.errors import AlphabetMismatch, HorizonExceeded
from shiftlab.generators import oracle_from_prefix
from shiftlab.language import LanguageOracle
from shiftlab.words import (
    Alphabet,
    Word,
    minimal_step,
    occurrences,
    shift_match,
    valid_steps,
)

AB = Alphabet(("a", "b"))
ZO = Alphabet(("0", "1"))


def naive_occurrences(hay: Word, needle: Word):
    """Independent O(n*m) rescan."""
    positions = [
        i
        for i in range(1, len(hay) - len(needle) + 2)
        if hay.data[i - 1 : i - 1 + len(needle)] == needle.data
    ]
    return len(positions), positions


class TestOccurrences:
    def test_simple(self):
        assert occurrences(AB.word("abab"), AB.word("ab")) == (2, [1, 3])

    def test_overlapping(self):
        assert occurrences(AB.word("aaaa"), AB.word("aa")) == (3, [1, 2, 3])

    def test_block_of_ones(self):
        hay = ZO.word("0" + "1" * 15 + "0")
        count, positions = occurrences(hay, ZO.word("1111"))
        assert count == 12
        assert positions == list(range(2, 14))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            occurrences(AB.word("ab"), ZO.word("01"))

    @given(
        st.text(alphabet="ab", min_size=1, max_size=30),
        st.text(alphabet="ab", min_size=1, max_size=5),
    )
    def test_matches_naive_rescan(self, hay, needle):
        h, n = AB.word(hay), AB.word(needle)
        assert occurrences(h, n) == naive_occurrences(h, n)


class TestPeriodicPower:
    """The periodic power as the tests build it: ``ref_power``, with its
    four refusals."""

    def test_period_two(self):
        assert str(ref_power(AB.word("abab"), 2, 3)) == "abababab"

    def test_ones_block(self):
        # step above half the length; the construction is still well defined
        w = ZO.word("1111")
        assert str(ref_power(w, 3, 4)) == "1" * 13

    def test_invalid_step(self):
        with pytest.raises(InvalidStep, match="invalid step"):
            ref_power(AB.word("ab"), 1, 2)

    def test_step_too_large(self):
        with pytest.raises(InvalidStep, match="too large"):
            ref_power(AB.word("abab"), 4, 2)

    def test_r_one_is_identity(self):
        w = AB.word("abab")
        assert ref_power(w, 2, 1) == w

    @given(st.text(alphabet="ab", min_size=2, max_size=14), st.integers(1, 13))
    def test_prefix_chain(self, text, q):
        w = AB.word(text)
        if not shift_match(w, q):
            return
        small = ref_power(w, q, 2)
        big = ref_power(w, q, 5)
        assert big.data.startswith(small.data)

    @given(st.text(alphabet="ab", min_size=2, max_size=14))
    def test_smaller_step_power_is_prefix(self, text):
        # for two steps (at most half the length, as the step definition
        # requires), the word doubled at the smaller step is a prefix of
        # the word doubled at the larger
        w = AB.word(text)
        steps = [q for q in range(1, len(w) // 2 + 1) if shift_match(w, q)]
        for q1 in steps:
            for q2 in steps:
                if q1 < q2:
                    assert ref_power(w, q2, 2).data.startswith(
                        ref_power(w, q1, 2).data
                    )


@pytest.fixture(scope="module")
def shift3():
    return LanguageOracle.full_shift(Alphabet(("0", "1", "a")), 7)


@pytest.fixture(scope="module")
def shift2():
    return LanguageOracle.full_shift(AB, 15)


class TestValidSteps:
    def test_constant_word(self, shift3):
        w = shift3.alphabet.word(["a", "a", "a", "a"])
        assert [c.q for c in valid_steps(w, shift3)] == [1, 2]

    def test_no_steps(self, shift2):
        assert valid_steps(AB.word("abaab"), shift2) == []

    def test_period_two(self, shift2):
        certs = valid_steps(AB.word("ababab"), shift2)
        assert [c.q for c in certs] == [2]

    def test_shift_only_diagnostic(self, fib_oracle):
        # the doubled power of ababa at step 2 is not a factor
        w = fib_oracle.alphabet.word("ababa")
        assert shift_match(w, 2)
        assert valid_steps(w, fib_oracle) == []

    def test_alphabet_compared_by_value(self, shift2):
        # an equal alphabet built apart from the oracle's is the same alphabet
        equal = Alphabet(("a", "b")).word("ababab")
        assert equal.alphabet is not shift2.alphabet
        assert [c.q for c in valid_steps(equal, shift2)] == [2]
        with pytest.raises(AlphabetMismatch):
            valid_steps(Alphabet(("a", "c")).word("acacac"), shift2)

    def test_horizon_guard(self, fib_oracle):
        w = fib_oracle.alphabet.word("ab" * 11)  # needs horizon 33 > 30
        with pytest.raises(HorizonExceeded) as err:
            valid_steps(w, fib_oracle)
        assert str(err.value) == "deciding steps needs factors of length 33, horizon is 30"


class TestMinimalStep:
    def test_constant(self, shift2):
        assert minimal_step(AB.word("aaaaaa"), shift2) == 1

    def test_period_two(self, shift2):
        assert minimal_step(AB.word("ababab"), shift2) == 2

    def test_absent(self, shift2):
        assert minimal_step(AB.word("abaab"), shift2) is None

    def test_refusals_come_before_the_memo(self, fib_prefix):
        oracle = oracle_from_prefix(fib_prefix, 12)
        w = oracle.alphabet.word("abaaba")
        assert minimal_step(w, oracle) == 3
        # the same code string over another alphabet
        other = Alphabet(("x", "y")).word_from_codes(w.data)
        with pytest.raises(AlphabetMismatch):
            minimal_step(other, oracle)
        too_long = fib_prefix.sub(1, 9)
        for _ in range(2):
            with pytest.raises(HorizonExceeded) as err:
                minimal_step(too_long, oracle)
            assert str(err.value) == "deciding steps needs factors of length 13, horizon is 12"

    def test_a_miss_checks_the_horizon_once(self, monkeypatch, fib_prefix):
        oracle = oracle_from_prefix(fib_prefix, 12)
        calls = []
        require = oracle.require_length
        monkeypatch.setattr(
            oracle, "require_length", lambda n, what="query": calls.append(n) or require(n, what)
        )
        assert minimal_step(oracle.alphabet.word("abaaba"), oracle) == 3
        assert calls == [9]
        # a hit checks again before it reads the memo
        assert minimal_step(oracle.alphabet.word("abaaba"), oracle) == 3
        assert calls == [9, 9]

    @staticmethod
    def assert_divides_every_valid_step(w, oracle):
        steps = [c.q for c in valid_steps(w, oracle)]
        q0 = minimal_step(w, oracle)
        assert q0 == (steps[0] if steps else None)
        assert all(q % q0 == 0 for q in steps)

    @given(st.text(alphabet="ab", min_size=1, max_size=4), st.integers(2, 10))
    def test_divides_every_valid_step_full_shift(self, shift2, block, n):
        # cut from a periodic word, so that it has several valid steps
        self.assert_divides_every_valid_step(AB.word((block * 10)[:n]), shift2)

    @given(st.integers(1, 90_000), st.integers(2, 20))
    def test_divides_every_valid_step_fibonacci(self, fib_prefix, fib_oracle, start, n):
        self.assert_divides_every_valid_step(fib_prefix.sub(start, start + n - 1), fib_oracle)


def brute_force_valid_steps(w: Word, oracle) -> list[int]:
    """Independent O(n^2) rescan of the step definition, for cross-checks."""
    n = len(w)
    out = []
    for q in range(1, n // 2 + 1):
        if all(w.data[q + i] == w.data[i] for i in range(n - q)):
            doubled = w.data + w.data[n - q :]
            if oracle.contains(Word(w.alphabet, doubled)):
                out.append(q)
    return out


def test_step_scan_exhaustive_small(shift2):
    """Library step computation agrees with the brute-force rescan and
    gcd-closure holds, for every binary word of length up to 10."""
    from math import gcd

    for n in range(2, 11):
        for bits in range(2**n):
            data = "".join("ab"[(bits >> i) & 1] for i in range(n))
            w = AB.word(data)
            steps = [c.q for c in valid_steps(w, shift2)]
            assert steps == brute_force_valid_steps(w, shift2)
            for q1 in steps:
                for q2 in steps:
                    assert gcd(q1, q2) in steps
            if steps:
                q0 = minimal_step(w, shift2)
                assert q0 == steps[0]
                assert all(q % q0 == 0 for q in steps)
