"""The language layer's code-string fast paths against their per-word
references.

``check_rbc`` decides each length at once from the special sets one letter
longer and keeps each irregular bispecial as its code string,
``valid_steps`` tests steps on the code string, ``Word`` checks and
renders through tables cached on its ``Alphabet``, and
``BlockDensity.estimate`` compares averages by cross-multiplication.  The
references below are the earlier bodies: one ``is_regular_bispecial`` and
one ``Word`` per bispecial, each rendered by ``str``, one ``ref_power``
and ``contains`` per step, one token lookup per letter, one ``Fraction``
per block.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from conftest import IET4_SPEC
from exitword_reference import ref_power
from regular_bispecial import is_regular_bispecial

from shiftlab.density import BlockDensity
from shiftlab.generators import (
    SequencePrefix,
    fibonacci_prefix,
    iet_encode,
    oracle_from_prefix,
)
from shiftlab.language import LanguageOracle, analysis_report, check_rbc
from shiftlab.words import (
    CODE_CHARS,
    Alphabet,
    StepCertificate,
    Word,
    shift_match,
    valid_steps,
)

ZO = Alphabet(("0", "1"))


@dataclass(frozen=True)
class WordRbcReport:
    """The RBC report with one ``Word`` per irregular bispecial."""

    holds_within_horizon: bool
    violations: list[tuple[Word, str]]
    n0_estimate: int
    n_min: int
    max_length_checked: int
    horizon: int

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "holds_within_horizon": self.holds_within_horizon,
            "n_min": self.n_min,
            "max_length_checked": self.max_length_checked,
            "n0_estimate": self.n0_estimate,
            "violations": [
                {"word": str(w), "reason": r} for w, r in self.violations
            ],
        }


def reference_check_rbc(
    oracle: LanguageOracle, n_min: int = 1, n_max: int | None = None
) -> WordRbcReport:
    top = oracle.horizon - 3
    if n_max is not None:
        top = min(top, n_max)
    violations = []
    for n in range(n_min, top + 1):
        bis = sorted(
            oracle.special_strings(n, "left") & oracle.special_strings(n, "right")
        )
        for data in bis:
            w = Word(oracle.alphabet, data)
            verdict = is_regular_bispecial(oracle, w)
            if not verdict.regular:
                violations.append((w, verdict.reason))
    n0_estimate = n_min
    if violations:
        n0_estimate = 1 + max(len(w) for w, _ in violations)
    return WordRbcReport(
        not violations, violations, n0_estimate, n_min, top, oracle.horizon
    )


def reference_valid_steps(w: Word, oracle: LanguageOracle) -> list[StepCertificate]:
    out = []
    for q in range(1, len(w) // 2 + 1):
        if shift_match(w, q) and oracle.contains(ref_power(w, q, 2)):
            out.append(StepCertificate(w, q))
    return out


def bernoulli_oracle(seed: int, alphabet: Alphabet, length: int, horizon: int):
    rng = random.Random(seed)
    data = "".join(rng.choice(alphabet.codes) for _ in range(length))
    return oracle_from_prefix(SequencePrefix(alphabet, data, f"seed {seed}"), horizon)


RBC_SOURCES = {
    "fibonacci": lambda: oracle_from_prefix(fibonacci_prefix(20000), 24),
    "iet4": lambda: oracle_from_prefix(iet_encode(IET4_SPEC, 20000)[0], 20),
    "full-shift": lambda: LanguageOracle.full_shift(ZO, 10),
    "bernoulli-1": lambda: bernoulli_oracle(1, ZO, 3000, 9),
    "bernoulli-2": lambda: bernoulli_oracle(2, ZO, 3000, 9),
    # token order differs from code order, so the reasons' sort shows
    "bernoulli-reversed": lambda: bernoulli_oracle(3, Alphabet(("b", "a")), 2000, 8),
    "multi-character": lambda: bernoulli_oracle(
        4, Alphabet(("zz", "y1", "x22")), 3000, 7
    ),
}


class TestCheckRbc:
    @pytest.mark.parametrize("source", ["fib_oracle", "iet3_oracle", "tm_oracle"])
    def test_fixture_oracles_match_reference(self, request, source):
        oracle = request.getfixturevalue(source)
        for n_min in range(1, oracle.horizon - 2):
            got = check_rbc(oracle, n_min).to_json()
            assert got == reference_check_rbc(oracle, n_min).to_json()

    @pytest.mark.parametrize("source", sorted(RBC_SOURCES))
    def test_matches_reference_for_every_n_min(self, source):
        oracle = RBC_SOURCES[source]()
        for n_min in range(1, oracle.horizon - 2):
            got = check_rbc(oracle, n_min)
            ref = reference_check_rbc(oracle, n_min)
            assert got.to_json() == ref.to_json()
            assert got.violations == [(w.data, r) for w, r in ref.violations]
            assert got.alphabet is oracle.alphabet

    def test_n_max_matches_reference(self):
        oracle = RBC_SOURCES["bernoulli-1"]()
        for n_max in range(1, oracle.horizon - 2):
            got = check_rbc(oracle, 1, n_max).to_json()
            assert got == reference_check_rbc(oracle, 1, n_max).to_json()

    def test_sources_exercise_both_verdicts(self, fib_oracle, tm_oracle):
        assert check_rbc(fib_oracle).holds_within_horizon
        assert not check_rbc(tm_oracle).holds_within_horizon
        for source in ("bernoulli-reversed", "multi-character"):
            report = check_rbc(RBC_SOURCES[source]())
            assert report.violations

    def test_no_word_per_violation(self, monkeypatch):
        built = []
        post_init = Word.__post_init__
        monkeypatch.setattr(Word, "__post_init__", lambda w: built.append(w) or post_init(w))
        counts = []
        for horizon in (8, 9):
            oracle = bernoulli_oracle(1, ZO, 3000, horizon)
            built.clear()
            report = analysis_report(oracle)
            counts.append((len(built), len(report["rbc"]["violations"])))
        (built_8, violations_8), (built_9, violations_9) = counts
        assert violations_8 < violations_9 and built_8 == built_9

    def test_reasons_sort_tokens_not_codes(self):
        report = check_rbc(RBC_SOURCES["bernoulli-reversed"]())
        assert any("(a,b)" in reason for _, reason in report.violations)
        assert not any("(b,a)" in reason for _, reason in report.violations)


class TestValidSteps:
    @pytest.fixture(scope="class")
    def full_shift_15(self):
        return LanguageOracle.full_shift(ZO, 15)

    def test_full_shift_matches_reference(self, full_shift_15):
        for n in range(1, 11):
            for bits in range(2**n):
                w = ZO.word_from_codes(format(bits, f"0{n}b"))
                assert valid_steps(w, full_shift_15) == reference_valid_steps(w, full_shift_15)

    def test_fibonacci_matches_reference(self, fib_oracle):
        ab = fib_oracle.alphabet
        certified = 0
        for n in range(1, 11):
            for bits in range(2**n):
                w = ab.word_from_codes(format(bits, f"0{n}b"))
                got = valid_steps(w, fib_oracle)
                assert got == reference_valid_steps(w, fib_oracle)
                certified += len(got)
        assert certified > 0


def per_token(w: Word) -> tuple[tuple[str, ...], str]:
    tokens = tuple(w.alphabet.symbols[CODE_CHARS.index(c)] for c in w.data)
    sep = "" if all(len(t) == 1 for t in w.alphabet.symbols) else " "
    return tokens, sep.join(tokens)


class TestWordRendering:
    @pytest.mark.parametrize(
        "symbols",
        [("0", "1"), ("b", "a"), ("1", "0", "x"), ("zz", "y1", "x22"), ("ab", "a")],
        ids=["binary", "reversed", "code-chars-permuted", "multi", "prefix-tokens"],
    )
    def test_str_and_tokens_match_per_token_join(self, symbols):
        alphabet = Alphabet(symbols)
        rng = random.Random(len(symbols))
        for n in range(1, 40):
            w = alphabet.word_from_codes(
                "".join(rng.choice(alphabet.codes) for _ in range(n))
            )
            tokens, text = per_token(w)
            assert w.tokens() == tokens
            assert str(w) == alphabet.render(w.data) == text
            assert all(alphabet.render(c) == t for c, t in zip(w.data, tokens))

    def test_rejects_code_past_alphabet_size(self):
        with pytest.raises(ValueError, match="outside its alphabet"):
            Word(ZO, "012")

    @pytest.mark.parametrize("data", ["0!1", "0 1", "-", "é"])
    def test_rejects_character_outside_code_chars(self, data):
        with pytest.raises(ValueError, match="outside its alphabet"):
            Word(ZO, data)


def hit_series(rng: random.Random, blocks: int) -> tuple[int, ...]:
    acc, hits = 0, []
    for _ in range(blocks):
        acc += rng.random() < rng.choice((0.1, 0.5, 0.9))
        hits.append(acc)
    return tuple(hits)


class TestBlockDensityEstimate:
    def test_matches_fraction_max(self):
        rng = random.Random(11)
        for blocks in [4, 5, 6, 7, 10, 33] + [rng.randrange(4, 200) for _ in range(300)]:
            d = BlockDensity(ZO.word("0"), 1, blocks, hit_series(rng, blocks))
            tail_from = (blocks + 1) // 2
            assert d.estimate == max(d.averages[tail_from - 1 :])

    @pytest.mark.parametrize(
        "hits",
        [(1, 2, 3, 4), (0, 0, 0, 0, 0), (1, 1, 2, 2, 3, 3), (0, 1, 1, 2, 2, 3, 3, 4)],
        ids=["all-hit", "no-hit", "tied-halves", "tied-tail"],
    )
    def test_ties(self, hits):
        d = BlockDensity(ZO.word("0"), 1, len(hits), hits)
        tail_from = (len(hits) + 1) // 2
        assert d.estimate == max(d.averages[tail_from - 1 :])
        assert isinstance(d.estimate, Fraction)
