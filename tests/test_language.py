"""Language oracle analyses: specials, regularity, growth, periodicity,
unique special extensions, and the per-word extension reference in
``factor_language``."""

import random
from itertools import product

import pytest

from conftest import IET4_SPEC, token_prefix
from factor_language import NotAFactor, check_factor_language, extensions
from regular_bispecial import is_regular_bispecial
from shiftlab.errors import (
    AlphabetMismatch,
    HorizonExceeded,
    InvariantViolation,
    PreconditionFailure,
)
from shiftlab.generators import (
    iet_encode,
    oracle_from_prefix,
    rotation_coding,
)
from shiftlab.exitwords import decompose, enumerate_exit_words
from shiftlab.language import (
    SIDES,
    LanguageOracle,
    StoredLevels,
    check_rbc,
    growth_profile,
    periodicity_check,
)
from shiftlab.rauzy import _identification, build_rauzy, build_special_rauzy
from shiftlab.words import CODE_CHARS, Alphabet, Word, valid_steps


def explicit_oracle(alphabet, factors):
    """An oracle on the given factor sets, by length, as token strings,
    checked to be a factor language."""
    levels = {n: frozenset(alphabet.word(t).data for t in ws) for n, ws in factors.items()}
    return check_factor_language(LanguageOracle(alphabet, StoredLevels(levels), "explicit"))


class TestOracleInvariants:
    """The reference check refuses hand-built levels; a prefix that lacks a
    symbol is refused by ``oracle_from_prefix`` as bad input."""

    def test_factor_closure_violation(self, ab):
        factors = {1: ["a", "b"], 2: ["ab"], 3: ["bab"]}
        with pytest.raises(InvariantViolation, match="closure"):
            explicit_oracle(ab, factors)

    def test_missing_alphabet_letter(self, ab):
        x = token_prefix(ab, "a" * 40, "constant")
        with pytest.raises(PreconditionFailure) as err:
            oracle_from_prefix(x, 4)
        assert str(err.value) == "prefix N=40 H=4 of [constant]: symbol 'b' never occurs"

    def test_extendability_violation(self, ab):
        # level 4 offers no word with middle 'ba', so 'ba' cannot be
        # extended on both sides even though closure holds
        factors = {
            1: ["a", "b"],
            2: ["aa", "ab", "ba"],
            3: ["aaa", "aab", "aba", "baa"],
            4: ["aaaa", "aaab", "aaba", "baaa"],
        }
        with pytest.raises(InvariantViolation, match="extendability"):
            explicit_oracle(ab, factors)


@pytest.mark.parametrize(
    "query",
    [
        lambda o: extensions(o, o.alphabet.word("0" * 7)),
        lambda o: o.bispecials(7),
        lambda o: is_regular_bispecial(o, o.alphabet.word("0" * 6)),
        lambda o: build_rauzy(o, 7),
        lambda o: build_special_rauzy(o, 7),
        lambda o: valid_steps(o.alphabet.word("0" * 6), o),
    ],
    ids=["extensions", "bispecials", "is_regular_bispecial", "build_rauzy",
         "build_special_rauzy", "valid_steps"],
)
def test_horizon_one_too_small_reports_the_horizon_needed(zo, query):
    # each query needs horizon 9 and the oracle has 8
    with pytest.raises(HorizonExceeded) as err:
        query(LanguageOracle.full_shift(zo, 8))
    assert str(err.value).endswith("needs factors of length 9, horizon is 8")


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("query", ["special_strings"])
def test_extension_queries_report_the_longer_length_needed(zo, query, side):
    oracle = LanguageOracle.full_shift(zo, 8)
    for n in (8, 9, 13):
        with pytest.raises(HorizonExceeded) as err:
            getattr(oracle, query)(n, side)
        assert str(err.value) == (
            f"{side} extensions needs factors of length {n + 1}, horizon is 8"
        )


def test_bispecial_table_needs_two_longer_lengths(zo, periodic01_oracle):
    # the full shift has bispecials at every length, the periodic language none
    full = LanguageOracle.full_shift(zo, 8)
    assert full.bispecials(6) and not periodic01_oracle.bispecials(6)
    for oracle in (full, periodic01_oracle):
        with pytest.raises(HorizonExceeded) as err:
            oracle.bispecials(7)
        assert str(err.value) == "bispecial query needs factors of length 9, horizon is 8"


class TestExtensions:
    def test_fibonacci_single_letter(self, fib_oracle, ab):
        rec = extensions(fib_oracle, ab.word("a"))
        assert rec.left == {"a", "b"}
        assert rec.right == {"a", "b"}
        assert rec.both == {("a", "b"), ("b", "a"), ("b", "b")}
        assert rec.multiplicity == 0

    def test_full_shift_pair(self, full_shift_2, zo):
        rec = extensions(full_shift_2, zo.word("01"))
        assert rec.left == {"0", "1"} and rec.right == {"0", "1"}
        assert len(rec.both) == 4
        assert rec.multiplicity == 1

    def test_not_a_factor(self, fib_oracle, ab):
        with pytest.raises(NotAFactor):
            extensions(fib_oracle, ab.word("bb"))

    def test_horizon(self, fib_oracle, ab):
        with pytest.raises(HorizonExceeded):
            extensions(fib_oracle, fib_oracle.words(29)[0])


class TestSpecialWords:
    def test_fibonacci_unique_left_special(self, fib_oracle, ab):
        assert fib_oracle.special_strings(3, "left") == {ab.word("aba").data}

    def test_fibonacci_bispecial(self, fib_oracle, ab):
        assert list(fib_oracle.bispecials(3)) == [ab.word("aba").data]

    def test_full_shift_all_bispecial(self, full_shift_2):
        assert len(full_shift_2.bispecials(2)) == 4

    @pytest.mark.parametrize("side", ["left", "right", "bi"])
    def test_length_zero_refused(self, fib_oracle, full_shift_2, side):
        # the full shift's level 2 is full, so its table takes the full-level rule
        for oracle in (fib_oracle, full_shift_2):
            with pytest.raises(ValueError, match="length must be >= 1"):
                if side == "bi":
                    oracle.bispecials(0)
                else:
                    oracle.special_strings(0, side)

    @pytest.mark.parametrize("query", ["special_strings"])
    def test_extension_queries_refuse_length_zero(self, fib_oracle, query):
        with pytest.raises(ValueError, match="length must be >= 1"):
            getattr(fib_oracle, query)(0, "left")

    def test_agrees_with_per_word_extensions(self, fib_oracle):
        # independent recomputation through the per-word extension query
        for n in range(1, 10):
            expect = {
                str(w)
                for w in fib_oracle.words(n)
                if len(extensions(fib_oracle, w).left) >= 2
            }
            assert {str(Word(fib_oracle.alphabet, d))
                    for d in fib_oracle.special_strings(n, "left")} == expect


class TestRegularBispecial:
    def test_fibonacci_a(self, fib_oracle, ab):
        verdict = is_regular_bispecial(fib_oracle, ab.word("a"))
        assert verdict.regular
        assert verdict.left_witness == "b" and verdict.right_witness == "b"

    def test_fibonacci_aba(self, fib_oracle, ab):
        assert is_regular_bispecial(fib_oracle, ab.word("aba")).regular

    def test_full_shift_irregular(self, full_shift_2, zo):
        verdict = is_regular_bispecial(full_shift_2, zo.word("0"))
        assert not verdict.regular
        assert "2 right extensions" in verdict.reason

    def test_not_bispecial_rejected(self, fib_oracle, ab):
        with pytest.raises(PreconditionFailure, match="not bispecial"):
            is_regular_bispecial(fib_oracle, ab.word("ab"))


class TestExtensionGraph:
    """The bipartite extension graph of the reference
    ``extensions(oracle, w)``: one vertex per left and per right
    extension, one edge per two-sided one."""

    def test_fibonacci_tree(self, fib_oracle, ab):
        rec = extensions(fib_oracle, ab.word("a"))
        assert len(rec.left) + len(rec.right) == 4 and len(rec.both) == 3
        assert rec.is_dendric

    def test_full_shift_complete_bipartite(self, full_shift_2, zo):
        rec = extensions(full_shift_2, zo.word("0"))
        assert len(rec.left) + len(rec.right) == 4 and len(rec.both) == 4
        assert not rec.is_dendric

    def test_nonspecial_word(self, fib_oracle, ab):
        rec = extensions(fib_oracle, ab.word("aab"))
        assert len(rec.left) + len(rec.right) == 2 and len(rec.both) == 1
        assert rec.is_dendric

    def test_dendric_implies_zero_multiplicity(self, fib_oracle, tm_oracle):
        for oracle in (fib_oracle, tm_oracle):
            for n in range(1, oracle.horizon - 1):
                for w in oracle.words(n):
                    rec = extensions(oracle, w)
                    if rec.is_dendric:
                        assert rec.multiplicity == 0


class TestGrowth:
    def test_fibonacci_sturmian(self, fib_oracle):
        profile = growth_profile(fib_oracle)
        assert all(profile.p[n] == n + 1 for n in range(1, 31))
        assert profile.K == 1 and profile.N0 == 1

    def test_full_shift_not_constant(self, full_shift_2):
        profile = growth_profile(full_shift_2)
        assert profile.p[5] == 32
        assert profile.K is None
        assert profile.verdict == "not constant within horizon"

    def test_iet3_differences(self, iet3_oracle):
        profile = growth_profile(iet3_oracle)
        assert profile.K == 2
        assert all(d == 2 for d in profile.differences.values())

    def test_horizon_two_exceeded(self, zo):
        with pytest.raises(HorizonExceeded) as err:
            growth_profile(LanguageOracle.full_shift(zo, 2))
        assert str(err.value) == "growth profile needs factors of length 3, horizon is 2"


class TestRbc:
    def test_fibonacci_holds(self, fib_oracle):
        report = check_rbc(fib_oracle, 1)
        assert report.holds_within_horizon and not report.violations
        assert report.n0_estimate == 1

    def test_full_shift_fails_everywhere(self, full_shift_2):
        report = check_rbc(full_shift_2, 1)
        assert not report.holds_within_horizon
        # every word of every checked length is an irregular bispecial
        by_len = {}
        for data, _ in report.violations:
            by_len.setdefault(len(data), 0)
            by_len[len(data)] += 1
        assert by_len == {n: 2**n for n in range(1, full_shift_2.horizon - 2)}

    def test_thue_morse_violations(self, tm_oracle):
        report = check_rbc(tm_oracle, 1)
        assert not report.holds_within_horizon
        assert min(len(data) for data, _ in report.violations) == 2
        words2 = {
            report.alphabet.render(data) for data, _ in report.violations if len(data) == 2
        }
        assert words2 == {"01", "10"}

    def test_reasons_match_reference(self, tm_oracle):
        # the random prefix has many witness patterns, several sharing the
        # left-special group and differing in the right-special one
        rng = random.Random(1)
        x = token_prefix(
            Alphabet(("0", "1", "2")), "".join(rng.choices("012", k=3000)), "random"
        )
        for oracle, patterns in ((tm_oracle, 2), (oracle_from_prefix(x, 8), 28)):
            report = check_rbc(oracle, 1)
            for data, reason in report.violations:
                w = Word(oracle.alphabet, data)
                assert reason == is_regular_bispecial(oracle, w).reason, w
            assert len({r for _, r in report.violations}) == patterns

    def test_regular_iff_dendric_on_bispecials(self, fib_oracle, tm_oracle, iet3_oracle):
        for oracle in (fib_oracle, tm_oracle, iet3_oracle):
            for n in range(1, oracle.horizon - 2):
                for d in oracle.bispecials(n):
                    w = Word(oracle.alphabet, d)
                    assert (
                        is_regular_bispecial(oracle, w).regular
                        == extensions(oracle, w).is_dendric
                    )


class TestPeriodicity:
    def test_periodic_coding(self, periodic01_oracle):
        report = periodicity_check(periodic01_oracle)
        assert report.periodic_within_horizon
        assert report.n0 == 2 and report.period == 2

    def test_fibonacci_aperiodic(self, fib_oracle):
        report = periodicity_check(fib_oracle)
        assert not report.periodic_within_horizon

    def test_full_shift_aperiodic(self, full_shift_2):
        assert not periodicity_check(full_shift_2).periodic_within_horizon


class TestPrefixesOfSpecials:
    def test_prefix_of_left_special_is_left_special(self, fib_oracle, iet3_oracle):
        for oracle in (fib_oracle, iet3_oracle):
            for n in range(2, oracle.horizon - 1):
                below = oracle.special_strings(n - 1, "left")
                for d in oracle.special_strings(n, "left"):
                    assert d[:-1] in below
                below_r = oracle.special_strings(n - 1, "right")
                for d in oracle.special_strings(n, "right"):
                    assert d[1:] in below_r


class TestSpecialExtensionMap:
    """The unique special extension of each special word, as ``evolve``
    identifies special vertices across lengths."""

    def side(self, oracle, side, n1, n2):
        tag = "L:" if side == "left" else "R:"
        ident = _identification(oracle, n1, n2).items()
        return {v1[2:]: v2[2:] for v1, v2 in ident if v1[:2] == v2[:2] == tag}

    def test_fibonacci_left(self, fib_oracle, ab):
        assert self.side(fib_oracle, "left", 1, 3) == {ab.word("a").data: ab.word("aba").data}

    def test_fibonacci_right(self, fib_oracle, ab):
        assert self.side(fib_oracle, "right", 1, 3) == {ab.word("a").data: ab.word("aba").data}

    def test_identity(self, fib_oracle, ab):
        assert self.side(fib_oracle, "left", 4, 4) == {ab.word("abaa").data: ab.word("abaa").data}

    def test_extension_sets_stabilize(self, fib_oracle, iet3_oracle):
        # the one-sided extension sets along the unique-extension ladder
        # become constant on the horizon tail
        for oracle in (fib_oracle, iet3_oracle):
            top = oracle.horizon - 2
            start = top // 2
            for w0 in self.side(oracle, "left", start, start):
                exts = []
                for n in range(start, top + 1):
                    w = self.side(oracle, "left", start, n)[w0]
                    exts.append(extensions(oracle, Word(oracle.alphabet, w)).left)
                assert len(set(map(frozenset, exts))) == 1

    @pytest.mark.parametrize("source", ["fibonacci", "iet3", "iet4", "rotation-1", "rotation-2"])
    def test_truncation_matches_letter_walk(self, source, fib_prefix, iet3_prefix):
        # every (n1, n2) range and both sides: evolve's vertex
        # identification, read off by truncation, equals the unique special
        # extension found by walking one letter at a time
        if source == "fibonacci":
            x = fib_prefix
        elif source == "iet3":
            x = iet3_prefix
        elif source == "iet4":
            x, _ = iet_encode(IET4_SPEC, 20000)
        else:
            rng = random.Random(source)
            x = rotation_coding([rng.randint(1, 3) for _ in range(30)], 20000)
        oracle = oracle_from_prefix(x, 24)
        assert check_rbc(oracle).holds_within_horizon
        top = oracle.horizon - 2
        for n1 in range(1, top + 1):
            for n2 in range(n1, top + 1):
                ident = _identification(oracle, n1, n2)
                walked_both = {}
                for side, tag in (("left", "L:"), ("right", "R:")):
                    walked = _walk_extension_map(oracle, side, n1, n2)
                    walked_both.update(
                        (tag + w1, tag + w2) for w1, w2 in walked.items()
                    )
                assert ident == walked_both


def _walk_extension_map(
    oracle: LanguageOracle, side: str, n1: int, n2: int
) -> dict[str, str]:
    """Reference: extend each side-special word of length ``n1`` one letter
    at a time through the side-special words up to length ``n2``,
    requiring exactly one candidate at every step."""
    mapping = {}
    for start in sorted(oracle.special_strings(n1, side)):
        current = start
        for n in range(n1, n2):
            specials_above = oracle.special_strings(n + 1, side)
            if side == "left":
                candidates = [
                    current + b
                    for b in oracle.alphabet.codes
                    if current + b in specials_above
                ]
            else:
                candidates = [
                    a + current
                    for a in oracle.alphabet.codes
                    if a + current in specials_above
                ]
            assert len(candidates) == 1, (current, candidates)
            current = candidates[0]
        mapping[start] = current
    return mapping


def test_report_shape(fib_oracle):
    from shiftlab.language import analysis_report

    report = analysis_report(fib_oracle)
    assert report["growth"]["K"] == 1
    assert report["rbc"]["holds_within_horizon"] is True
    assert report["periodicity"]["periodic_within_horizon"] is False
    assert len(report["growth"]["p"]) == fib_oracle.horizon


@pytest.mark.parametrize("horizon,n_min", [(3, 1), (10, 8)])
def test_report_refuses_a_scan_past_the_horizon(zo, horizon, n_min):
    from shiftlab.language import analysis_report

    with pytest.raises(HorizonExceeded) as err:
        analysis_report(LanguageOracle.full_shift(zo, horizon), n_min)
    assert str(err.value) == (
        f"bispecial scan needs factors of length {n_min + 3}, horizon is {horizon}"
    )


# -- computed full-shift levels against stored ones ----------------------


def reference_full_shift(alphabet: Alphabet, horizon: int) -> LanguageOracle:
    """Reference: the full shift with every level stored as a frozenset."""
    codes = alphabet.codes
    levels: dict[int, frozenset[str]] = {}
    level = [""]
    for n in range(1, horizon + 1):
        level = [w + c for w in level for c in codes]
        levels[n] = frozenset(level)
    return check_factor_language(
        LanguageOracle(
            alphabet, StoredLevels(levels), f"full shift on {','.join(alphabet.symbols)}"
        )
    )


@pytest.fixture(
    scope="module",
    params=[(("0", "1"), 10), (("b", "a", "c"), 7)],
    ids=["binary-H10", "ternary-H7"],
)
def shift_pair(request):
    """The computed full shift and its stored reference; the ternary
    alphabet's tokens are not in code order."""
    alphabet = Alphabet(request.param[0])
    horizon = request.param[1]
    return (
        LanguageOracle.full_shift(alphabet, horizon),
        reference_full_shift(alphabet, horizon),
    )


class TestComputedFullShift:
    def test_levels_match_reference(self, shift_pair):
        got, ref = shift_pair
        for n in range(1, ref.horizon + 1):
            level, stored = got.factor_strings(n), ref.factor_strings(n)
            assert list(level) == sorted(stored)  # each word once, in code order
            assert len(level) == len(stored) == got.p(n)
            assert all(w in level for w in stored)
            assert got.words(n) == ref.words(n)

    def test_membership_outside_the_level(self, shift_pair):
        got, ref = shift_pair
        codes = got.alphabet.codes
        foreign = CODE_CHARS[len(codes)]
        for n in range(1, ref.horizon + 1):
            level, stored = got.factor_strings(n), ref.factor_strings(n)
            probes = [
                codes[-1] * (n - 1),
                codes[0] * (n + 1),
                codes[-1] * (2 * n),
                " " * n,
                None,
                n,
                codes[0].encode() * n,
                tuple(codes[0] * n),
            ]
            probes += [codes[0] * i + foreign + codes[-1] * (n - 1 - i) for i in range(n)]
            assert [x in level for x in probes] == [x in stored for x in probes]
            assert not any(x in level for x in probes)
        other = Alphabet(tuple(got.alphabet.symbols) + ("z",))
        with pytest.raises(AlphabetMismatch):
            got.contains(other.word_from_codes(codes[0]))

    def test_set_algebra_with_stored_levels(self, shift_pair):
        got, ref = shift_pair
        first = got.alphabet.codes[0]
        for n in range(1, ref.horizon + 1):
            level, stored = got.factor_strings(n), ref.factor_strings(n)
            longer = first * (n + 1)
            some = frozenset(w for w in stored if w.endswith(first)) | {longer}
            assert level == stored and stored == level
            assert level != some and some != level
            assert level & stored == stored == stored & level
            assert level & some == some - {longer} == some & level
            assert type(level & some) is type(some & level) is frozenset

    def test_queries_match_reference(self, shift_pair):
        got, ref = shift_pair
        H = ref.horizon
        assert growth_profile(got) == growth_profile(ref)
        for n in range(1, H):
            for side in SIDES:
                assert got.special_strings(n, side) == ref.special_strings(n, side)
        for n_min in range(1, H - 2):
            assert check_rbc(got, n_min).to_json() == check_rbc(ref, n_min).to_json()
        for n in range(1, H - 1):
            assert build_rauzy(got, n) == build_rauzy(ref, n)

    def test_steps_and_exit_words_match_reference(self, shift_pair):
        got, ref = shift_pair
        alphabet = got.alphabet
        exit_words = 0
        # valid_steps needs the horizon to reach n + n // 2
        for n in range(2, ref.horizon + 1):
            if n + n // 2 > ref.horizon:
                break
            for data in map("".join, product(alphabet.codes, repeat=n)):
                w = alphabet.word_from_codes(data)
                steps = valid_steps(w, got)
                assert steps == valid_steps(w, ref)
                for q in (c.q for c in steps):
                    report = enumerate_exit_words(w, q, got)
                    assert report == enumerate_exit_words(w, q, ref)
                    exit_words += len(report.exit_words)
                    for e in report.exit_words:
                        assert decompose(e.z, w, q, got) == decompose(e.z, w, q, ref)
        assert exit_words
