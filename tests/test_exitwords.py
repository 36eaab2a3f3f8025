"""Exit words: decomposition, enumeration, occurrence classification,
overlap bounds."""

from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from shiftlab import exitwords

from shiftlab.errors import HorizonExceeded, PreconditionFailure
from shiftlab.exitwords import (
    OverlapRecord,
    OverlapReport,
    check_overlap_bound,
    classify_occurrence,
    decompose,
    enumerate_exit_words,
    is_representation,
)
from shiftlab.generators import (
    SequencePrefix,
    fibonacci_prefix,
    oracle_from_prefix,
    rotation_coding,
)
from shiftlab.language import LanguageOracle
from shiftlab.words import (
    Alphabet,
    Word,
    minimal_step,
    occurrences,
    periodic_power,
    shift_match,
)

ZO = Alphabet(("0", "1"))


@pytest.fixture(scope="module")
def shift20():
    return LanguageOracle.full_shift(ZO, 20)


@pytest.fixture(scope="module")
def ones_word():
    return ZO.word("1111")


@pytest.fixture(scope="module")
def ones_exit():
    return ZO.word("0" + "1" * 15 + "0")


class TestDecompose:
    def test_step_three(self, ones_exit, ones_word, shift20):
        reps = [r.as_tuple() for r in decompose(ones_exit, ones_word, 3, shift20)]
        assert ("0", 4, "110") in reps
        # the interior has period 1 < q, so the grid slides: the other
        # shifted decompositions are legitimate too
        assert reps == [("0", 4, "110"), ("01", 4, "10"), ("011", 4, "0")]

    def test_step_two(self, ones_exit, ones_word, shift20):
        reps = [r.as_tuple() for r in decompose(ones_exit, ones_word, 2, shift20)]
        assert ("01", 6, "0") in reps
        assert reps == [("0", 6, "10"), ("01", 6, "0")]

    def test_minimal_step_unique(self, ones_exit, ones_word, shift20):
        reps = decompose(ones_exit, ones_word, 1, shift20)
        assert [r.as_tuple() for r in reps] == [("0", 12, "0")]
        count, _ = occurrences(ones_exit, ones_word)
        assert count == reps[0].r == 12

    def test_non_step_rejected(self, ones_exit, shift20):
        with pytest.raises(PreconditionFailure):
            decompose(ones_exit, ZO.word("0110"), 2, shift20)

    def test_no_representation_is_empty(self, shift20):
        z = ZO.word("01010")
        assert decompose(z, ZO.word("11"), 1, shift20) == []

    def test_smallest_exit_shape(self, shift20):
        # one entry letter, one circuit pass, one leaving letter
        reps = decompose(ZO.word("0110"), ZO.word("11"), 1, shift20)
        assert [r.as_tuple() for r in reps] == [("0", 1, "0")]


class TestPredicate:
    def test_all_items_hold_on_valid(self, ones_exit, ones_word):
        assert is_representation(ones_exit, ones_word, 3, 1, 4, 3)

    def test_interior_mismatch(self, ones_word):
        z = ZO.word("0" + "1" * 7 + "0" + "1" * 7 + "0")
        assert not is_representation(z, ones_word, 3, 1, 4, 3)

    def test_boundary_must_break(self, ones_word):
        # prefix letter equals the periodic continuation: not an exit word
        z = ZO.word("1" * 16 + "0")
        assert not is_representation(z, ones_word, 3, 1, 4, 3)

    def test_empty_sides_rejected(self, ones_word):
        z = ZO.word("1" * 14 + "0")
        assert not is_representation(z, ones_word, 3, 0, 4, 2)


class TestEnumerate:
    def test_contains_block_example(self, ones_word, shift20):
        report = enumerate_exit_words(ones_word, 3, shift20)
        strings = {str(x.z) for x in report.exit_words}
        assert "0" + "1" * 15 + "0" in strings
        # a full shift keeps admitting longer runs, so the cap truncates
        assert report.partial

    def test_rechecks_predicate(self, ones_word, shift20):
        report = enumerate_exit_words(ones_word, 2, shift20)
        for x in report.exit_words:
            for rep in x.representations:
                assert is_representation(
                    x.z, ones_word, 2, len(rep.p), rep.r, len(rep.s)
                )

    def test_sturmian_count_within_limit(self, fib_oracle):
        w = fib_oracle.alphabet.word("abaaba")
        report = enumerate_exit_words(w, 3, fib_oracle)
        assert report.count_limit == 2
        assert len(report.exit_words) <= 2
        assert report.within_limit
        for x in report.exit_words:
            assert x.canonical  # 3 is the minimal step

    def test_limit_decided_once_per_oracle(self):
        # the 2K^2 limit depends on the oracle alone: over every stepped
        # factor, the growth profile (H calls of p) and the RBC check from
        # length 1 (one bispecial table per length up to H - 3) run once,
        # and each report equals the one enumerated on an oracle of its own
        x = fibonacci_prefix(4000)
        oracle = oracle_from_prefix(x, 40)
        stepped = [
            (w, q)
            for n in range(2, oracle.horizon // 2 + 1)
            for w in oracle.words(n)
            if (q := minimal_step(w, oracle)) is not None
        ]
        assert len(stepped) > 10
        tables = mock.patch.object(oracle, "bispecials", wraps=oracle.bispecials)
        with mock.patch.object(oracle, "p", wraps=oracle.p) as p, tables as bis:
            reports = [enumerate_exit_words(w, q, oracle) for w, q in stepped]
        assert p.call_count == oracle.horizon
        assert bis.call_count == oracle.horizon - 3
        for (w, q), report in zip(stepped, reports):
            alone = enumerate_exit_words(w, q, oracle_from_prefix(x, 40))
            assert report.to_json() == alone.to_json()
            assert report.count_limit == 2

    def test_repetition_spread_at_fixed_sides(self, fib_oracle, iet3_oracle):
        # with the regular-bispecial condition, a fixed (prefix, suffix)
        # pair admits at most two repetition counts
        for oracle in (fib_oracle, iet3_oracle):
            for data in oracle.factor_strings(6):
                w = Word(oracle.alphabet, data)
                steps = [q for q in range(1, 4) if shift_match(w, q)]
                for q in steps:
                    report = enumerate_exit_words(w, q, oracle)
                    by_sides = {}
                    for x in report.exit_words:
                        for rep in x.representations:
                            by_sides.setdefault(
                                (rep.p.data, rep.s.data), set()
                            ).add(rep.r)
                    for rs in by_sides.values():
                        assert len(rs) <= 2


def test_window_repeat_forces_valid_step(shift20):
    """If two windows of the doubled power coincide, their distance is
    itself a step; with the minimal step all windows are distinct.
    Exhaustive over binary words of length up to 12."""
    from shiftlab.words import minimal_step, valid_steps

    oracle = LanguageOracle.full_shift(ZO, 18)
    for n in range(2, 13):
        for bits in range(2**n):
            data = "".join("01"[(bits >> i) & 1] for i in range(n))
            w = ZO.word(data)
            steps = [c.q for c in valid_steps(w, oracle)]
            for q in steps:
                power = periodic_power(w, q, 2)
                for i in range(1, q + 1):
                    for j in range(i + 1, q + 1):
                        if power.data[i - 1 : i - 1 + n] == power.data[j - 1 : j - 1 + n]:
                            assert shift_match(w, j - i)
            if steps:
                q0 = minimal_step(w, oracle)
                power = periodic_power(w, q0, 2)
                windows = {power.data[i : i + n] for i in range(q0)}
                assert len(windows) == q0


class TestClassification:
    def brute_force(self, x, w, q, j):
        """Independent classification by direct periodic-block scanning."""
        n = len(w)
        period = w.data[:q]

        def expect(pos):  # 1-based position relative to the occurrence
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

    def test_grid_occurrences_in_pure_power(self, shift20, ones_word):
        x = SequencePrefix(ZO, ("111" * 40)[:100], "power prefix")
        # 1111 with step 3: occurrences on the grid of a pure power
        for j in (1, 4, 7, 10):
            cls = classify_occurrence(x, ones_word, j, shift20)
            # minimal step of 1111 is 1 here, and every prefix of the
            # constant-like power matches case one
            assert cls.case == "suffix-of-power"

    def test_matches_brute_force_on_fibonacci(self, fib_prefix, fib_oracle):
        w = fib_oracle.alphabet.word("abaaba")
        q = 3
        x = SequencePrefix(fib_prefix.alphabet, fib_prefix.data[:10000], "fib")
        pos = x.data.find(w.data)
        checked = 0
        while pos != -1:
            j = pos + 1
            expected = self.brute_force(x, w, q, j)
            if expected[0] == "insufficient":
                with pytest.raises(HorizonExceeded):
                    classify_occurrence(x, w, j, fib_oracle)
            else:
                cls = classify_occurrence(x, w, j, fib_oracle)
                if expected[0] == "power":
                    assert cls.case == "suffix-of-power"
                else:
                    assert cls.case == "inside-exit-word"
                    assert cls.exit_start == expected[1]
                    assert cls.exit_end == expected[2]
            checked += 1
            pos = x.data.find(w.data, pos + 1)
        assert checked > 2000

    def test_wrong_position_rejected(self, fib_prefix, fib_oracle):
        w = fib_oracle.alphabet.word("abaaba")
        with pytest.raises(PreconditionFailure):
            classify_occurrence(fib_prefix, w, 2, fib_oracle)

    def test_periodic_tail_raises(self, shift20, ones_word):
        x = SequencePrefix(ZO, "00" + "1" * 40, "run to the end")
        with pytest.raises(HorizonExceeded):
            classify_occurrence(x, ones_word, 10, shift20)


class TestOverlap:
    def test_adjacent_copies(self, shift20, ones_word):
        z = "0" + "1" * 15 + "0"
        x = SequencePrefix(ZO, "00" + z + z + "1" * 6 + "00" + "0" * 10, "double")
        report = check_overlap_bound(x, ones_word, 1, shift20)
        assert report.pairs
        assert report.all_satisfied
        first = report.pairs[0]
        assert first.second_start >= first.first_start + first.first_length - 4

    def test_fibonacci_scan(self, fib_prefix, fib_oracle):
        w = fib_oracle.alphabet.word("abaaba")
        x = SequencePrefix(fib_prefix.alphabet, fib_prefix.data[:10000], "fib")
        report = check_overlap_bound(x, w, 3, fib_oracle)
        assert report.all_satisfied
        assert len(report.pairs) > 1000

    def test_requires_minimal_step(self, fib_prefix, fib_oracle):
        w = fib_oracle.alphabet.word("abaaba")
        with pytest.raises(PreconditionFailure):
            check_overlap_bound(fib_prefix, w, 6, fib_oracle)


def naive_overlap(x, w, q, oracle):
    """Reference scan: classify every occurrence on its own and count the
    occurrences in each pair's union by rescanning the union word."""
    n = len(w)
    _, starts = occurrences(x, w)
    exits = {}
    skipped = []
    for j in starts:
        try:
            cls = classify_occurrence(x, w, j, oracle)
        except HorizonExceeded:
            skipped.append(j)
            continue
        if cls.case == "inside-exit-word":
            exits.setdefault(cls.exit_start, cls.exit_word)
    ordered = sorted(exits)
    pairs = []
    for i, i2 in zip(ordered, ordered[1:]):
        z1, z2 = exits[i], exits[i2]
        count, _ = occurrences(x.sub(i, i2 + len(z2.z) - 1), w)
        required = z1.representations[0].r + z2.representations[0].r
        gap_ok = i2 >= i + len(z1.z) - n
        pairs.append(
            OverlapRecord(
                i, i2, len(z1.z), gap_ok, count, required, count >= required
            )
        )
    ok = all(p.gap_ok and p.count_ok for p in pairs)
    return OverlapReport(w, q, tuple(pairs), ok, tuple(skipped))


def run_from_start(m: int) -> SequencePrefix:
    """``(01)^m 11 (01)^5 111``: a run of ``0101`` with step 2 from position
    1, then one exit word."""
    return SequencePrefix(ZO, "01" * m + "11" + "01" * 5 + "111", "run from 1")


@st.composite
def runs_and_noise(draw):
    """A binary word with a short period block and a prefix made of runs
    of that block (at any phase) and short stretches of free letters."""
    block = draw(st.text("01", min_size=1, max_size=3))
    n = draw(st.integers(2 * len(block), 13))
    periodic = block * 40
    pieces = draw(
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, 2), st.integers(1, 40)).map(
                    lambda t: periodic[t[0] : t[0] + t[1]]
                ),
                st.text("01", min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return periodic[:n], "".join(pieces)


@pytest.fixture(scope="module")
def rotation_prefix():
    return rotation_coding([1, 2, 1, 1, 3, 2, 1, 2] * 4, 20000)


@pytest.fixture(scope="module")
def rotation_oracle(rotation_prefix):
    return oracle_from_prefix(rotation_prefix, 30)


def stepped_words(oracle, n):
    """The factors of length ``n`` with a valid step, with that step."""
    out = []
    for data in sorted(oracle.factor_strings(n)):
        w = Word(oracle.alphabet, data)
        q = minimal_step(w, oracle)
        if q is not None:
            out.append((w, q))
    return out


class TestOverlapScanMatchesNaive:
    """``check_overlap_bound`` classifies one occurrence per periodic run
    and verifies each distinct exit word once; the reports must equal the
    per-occurrence reference."""

    @settings(max_examples=300, deadline=None)
    @given(runs_and_noise())
    def test_raw_runs(self, shift20, case):
        w_data, data = case
        x = SequencePrefix(ZO, data, "runs")
        w = ZO.word(w_data)
        q = minimal_step(w, shift20)
        assert check_overlap_bound(x, w, q, shift20) == naive_overlap(
            x, w, q, shift20
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.booleans(),
        st.integers(40, 2500),
        st.integers(2, 20),
        st.integers(0, 10**6),
    )
    def test_sturmian_prefixes(
        self, fib_prefix, fib_oracle, rotation_prefix, rotation_oracle,
        fibonacci, length, n, pick,
    ):
        prefix, oracle = (
            (fib_prefix, fib_oracle) if fibonacci
            else (rotation_prefix, rotation_oracle)
        )
        candidates = stepped_words(oracle, n)
        assume(candidates)
        w, q = candidates[pick % len(candidates)]
        x = SequencePrefix(prefix.alphabet, prefix.data[:length], "prefix")
        assert check_overlap_bound(x, w, q, oracle) == naive_overlap(
            x, w, q, oracle
        )

    @pytest.mark.parametrize("m", [1, 10, 100, 1000])
    def test_run_from_position_one(self, shift20, m):
        x, w = run_from_start(m), ZO.word("0101")
        assert check_overlap_bound(x, w, 2, shift20) == naive_overlap(x, w, 2, shift20)

    def test_run_from_position_one_classified_once(self, shift20):
        # the run from position 1 is classified once, not once per start
        w = ZO.word("0101")
        calls = []
        for m in (500, 4000):
            with mock.patch.object(
                exitwords, "_classify_run", wraps=exitwords._classify_run
            ) as spy:
                check_overlap_bound(run_from_start(m), w, 2, shift20)
            calls.append(spy.call_count)
        assert calls[0] == calls[1] <= 3

    def test_every_stepped_factor(
        self, fib_prefix, fib_oracle, iet3_prefix, iet3_oracle,
        rotation_prefix, rotation_oracle,
    ):
        reports = skipped = 0
        for prefix, oracle in (
            (fib_prefix, fib_oracle),
            (iet3_prefix, iet3_oracle),
            (rotation_prefix, rotation_oracle),
        ):
            x = SequencePrefix(prefix.alphabet, prefix.data[:1500], "prefix")
            # deciding a step at length n needs horizon n + n // 2
            for n in range(2, 21):
                for w, q in stepped_words(oracle, n):
                    report = check_overlap_bound(x, w, q, oracle)
                    assert report == naive_overlap(x, w, q, oracle), (str(w), q)
                    reports += 1
                    skipped += bool(report.skipped_positions)
        assert reports > 100 and skipped >= 10
