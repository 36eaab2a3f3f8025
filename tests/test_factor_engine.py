"""The factor-set engine against a naive reference.

``oracle_from_prefix`` slices windows only at the horizon and derives the
shorter levels, and decides extendability with two string searches;
``special_strings`` counts the truncations of the level above, and
``bispecials`` groups the special sets one letter longer.  The growth-sum
identity ``sum(|ext| - 1) == p(n+1) - p(n)`` is asserted here on the
reference counts, so ``growth_profile`` does not check it at run time.
The reference here slices every window at every length, reads extension
counts off ``extensions`` (and, at the top length, where ``extensions``
needs a longer horizon, off direct membership), and refuses the windows
by the check in ``factor_language``.
"""

import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import event, example, given, settings, strategies as st

from factor_language import check_factor_language
from shiftlab import rauzy
from shiftlab.errors import InvariantViolation, PreconditionFailure
from shiftlab.generators import (
    _RECORD,
    SequencePrefix,
    SubstitutionSpec,
    _windows,
    fibonacci_prefix,
    oracle_from_prefix,
    rotation_coding,
    substitution_fixed_point,
)
from shiftlab.language import SIDES, LanguageOracle, extensions, growth_profile
from shiftlab.words import CODE_CHARS, Alphabet, Word


def naive_levels(data: str, horizon: int) -> dict[int, frozenset[str]]:
    return {
        n: frozenset(data[i : i + n] for i in range(len(data) - n + 1))
        for n in range(1, horizon + 1)
    }


def naive_counts(oracle: LanguageOracle, n: int, side: str) -> dict[str, int]:
    if n <= oracle.horizon - 2:
        return {
            d: len(getattr(extensions(oracle, Word(oracle.alphabet, d)), side))
            for d in oracle.factor_strings(n)
        }
    longer = oracle.factor_strings(n + 1)
    return {
        d: sum((a + d if side == "left" else d + a) in longer for a in oracle.alphabet.codes)
        for d in oracle.factor_strings(n)
    }


def naive_bispecials(
    oracle: LanguageOracle, levels: dict[int, frozenset[str]], n: int
) -> dict[str, tuple[list[str], list[str]]]:
    """Each bispecial of length ``n`` (per-word extensions) with the sorted
    codes ``b`` and ``a`` that make ``wb`` left and ``aw`` right special,
    counted on the windows one and two letters longer."""
    codes = sorted(oracle.alphabet.codes)
    left_ext = lambda u: [a for a in codes if a + u in levels[len(u) + 1]]
    right_ext = lambda u: [b for b in codes if u + b in levels[len(u) + 1]]
    table = {}
    for d in sorted(levels[n]):
        rec = extensions(oracle, Word(oracle.alphabet, d))
        if len(rec.left) >= 2 and len(rec.right) >= 2:
            table[d] = (
                [b for b in right_ext(d) if len(left_ext(d + b)) >= 2],
                [a for a in left_ext(d) if len(right_ext(a + d)) >= 2],
            )
    return table


def assert_matches_reference(x: SequencePrefix, horizon: int) -> None:
    """``oracle_from_prefix`` refuses exactly when the reference check
    refuses the windows, for the same reason; otherwise its levels are the
    windows."""
    levels = naive_levels(x.data, horizon)
    # windows are factor-closed: both truncations of a window are windows
    for n in range(2, horizon + 1):
        assert all(w[1:] in levels[n - 1] and w[:-1] in levels[n - 1] for w in levels[n])
    ref = LanguageOracle(x.alphabet, levels, horizon, "reference")
    try:
        check_factor_language(ref)
    except InvariantViolation as exc:
        event("the windows are refused")
        with pytest.raises(PreconditionFailure) as got:
            oracle_from_prefix(x, horizon)
        # a missing symbol is named as the reference names it
        reason = str(exc).removeprefix("alphabet ").removesuffix(" as a factor")
        if "never occurs" not in reason:
            reason = "is not extendable"
        assert reason in str(got.value)
        return
    oracle = oracle_from_prefix(x, horizon)
    for n in range(1, horizon + 1):
        assert oracle.factor_strings(n) == levels[n], n
    for n in range(1, horizon):
        growth = len(levels[n + 1]) - len(levels[n])
        for side in SIDES:
            expected = naive_counts(ref, n, side)
            # growth-sum identity: sum of (|ext| - 1) over level n is p(n+1) - p(n)
            assert sum(c - 1 for c in expected.values()) == growth, (n, side)
            assert oracle.special_strings(n, side) == {
                d for d, c in expected.items() if c >= 2
            }, (n, side)
    if horizon >= 3:
        assert growth_profile(oracle).p == {n: len(levels[n]) for n in levels}


@st.composite
def horizon_and_length(draw, max_horizon: int = 10):
    """A horizon and a prefix length; half the time the shortest allowed,
    ``4 * horizon``, so the final window of every level is near the start."""
    horizon = draw(st.integers(1, max_horizon))
    if draw(st.booleans()):
        return horizon, 4 * horizon
    return horizon, draw(st.integers(4 * horizon, 4 * horizon + 300))


@st.composite
def raw_prefixes(draw):
    horizon, length = draw(horizon_and_length(max_horizon=6))
    symbols = draw(st.sampled_from(["01", "012"]))
    tokens = draw(st.text(alphabet=symbols, min_size=length, max_size=length))
    return SequencePrefix.from_tokens(Alphabet(tuple(symbols)), tokens, "raw"), horizon


@st.composite
def substitution_prefixes(draw):
    alphabet = Alphabet(tuple(draw(st.sampled_from(["ab", "abc"]))))
    symbols = alphabet.symbols
    images = st.lists(st.sampled_from(symbols), min_size=1, max_size=4)
    rules = {s: tuple(draw(images)) for s in symbols}
    seed = symbols[0]
    rules[seed] = (seed, *draw(images))
    horizon, length = draw(horizon_and_length())
    spec = SubstitutionSpec(alphabet, rules, seed)
    return substitution_fixed_point(spec, length), horizon


@st.composite
def rotation_prefixes(draw):
    quotients = draw(st.lists(st.integers(1, 6), min_size=2, max_size=6))
    horizon, length = draw(horizon_and_length())
    return rotation_coding(quotients, length), horizon


class TestAgainstNaiveReference:
    @given(raw_prefixes())
    @settings(max_examples=120, deadline=None)
    def test_raw_strings(self, case):
        assert_matches_reference(*case)

    @given(substitution_prefixes())
    @settings(max_examples=80, deadline=None)
    def test_substitution_fixed_points(self, case):
        assert_matches_reference(*case)

    @given(rotation_prefixes())
    @settings(max_examples=80, deadline=None)
    def test_rotation_codings(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("horizon", [1, 2, 3, 10])
    def test_shortest_fibonacci_prefix(self, horizon):
        assert_matches_reference(fibonacci_prefix(4 * horizon), horizon)


class TestBispecialTable:
    """``bispecials`` against a table built from the windows and per-word
    extensions: the same bispecials in ascending order, the same letters."""

    @given(st.one_of(raw_prefixes(), substitution_prefixes(), rotation_prefixes()))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_table(self, case):
        x, horizon = case
        levels = naive_levels(x.data, horizon)
        oracle = LanguageOracle(x.alphabet, levels, horizon, "reference")
        for n in range(1, horizon - 1):
            table = oracle.bispecials(n)
            event("a length with bispecials" if table else "a length without")
            got = {w: (sorted(b), sorted(a)) for w, (b, a) in table.items()}
            assert list(got) == sorted(got)
            assert got == naive_bispecials(oracle, levels, n), n


@st.composite
def window_cases(draw):
    """A window length ``n`` and data of ``n`` to ``3 * _RECORD * n``
    codes, often at a record boundary, over 1, 2, 3 or all 62 codes."""
    n = draw(st.integers(1, 12))
    record = _RECORD * n
    length = draw(
        st.one_of(
            st.sampled_from([record - 1, record, record + n - 1, n]),
            st.integers(n, 3 * record),
        )
    )
    codes = CODE_CHARS[: draw(st.sampled_from([1, 2, 3, len(CODE_CHARS)]))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    return "".join(rng.choices(codes, k=length)), n


class TestWindows:
    """``_windows`` unpacks fixed-width records of the encoded data."""

    @given(window_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_levels(self, case):
        data, n = case
        assert _windows(data, n) == naive_levels(data, n)[n]

    def test_compiled_format_not_retained(self):
        # a format of one field per window would be compiled and kept by
        # struct's cache, megabytes for a long prefix at a small horizon
        x = fibonacci_prefix(200_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            oracle = oracle_from_prefix(x, 2)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert oracle.factor_strings(2) == {"00", "01", "10"}
        assert retained < 1 << 20, retained


@st.composite
def short_prefixes(draw):
    """Prefixes at most six letters longer than ``4 * horizon``, whose
    first or last ``horizon - 2`` letters often do not recur."""
    horizon = draw(st.integers(3, 8))
    length = draw(st.integers(4 * horizon, 4 * horizon + 6))
    symbols = draw(st.sampled_from(["01", "012"]))
    tokens = draw(st.text(alphabet=symbols, min_size=length, max_size=length))
    return SequencePrefix.from_tokens(Alphabet(tuple(symbols)), tokens, "raw"), horizon


def zo_prefix(tokens: str) -> SequencePrefix:
    return SequencePrefix.from_tokens(Alphabet(("0", "1")), tokens)


class TestPrefixRefusal:
    """``oracle_from_prefix`` refuses a prefix exactly when the reference
    check refuses its windows."""

    @given(short_prefixes())
    # the first letter occurs only at the start; ... and at the very end
    @example((zo_prefix("100000000000"), 3))
    @example((zo_prefix("100000000001"), 3))
    # the last letter occurs only at the end
    @example((zo_prefix("000000000001"), 3))
    # length 2 is not extendable, length 1 is
    @example((zo_prefix("0100000000000000"), 4))
    @settings(max_examples=300, deadline=None)
    def test_random_short_prefixes(self, case):
        assert_matches_reference(*case)


# -- the checks still fire --------------------------------------------------


@pytest.fixture()
def fib12():
    return oracle_from_prefix(fibonacci_prefix(2000), 12)


def trade_targets(monkeypatch, length):
    """Make ``build_special_rauzy`` at ``length`` trade the targets of two
    edges with distinct sources and targets, keeping every degree."""
    honest = rauzy.build_special_rauzy

    def swapped(oracle, n):
        g = honest(oracle, n)
        if n != length:
            return g
        (e1, (s1, d1)), *rest = g.edges.items()
        e2, (_, d2) = next((e, ends) for e, ends in rest if ends[0] != s1 and ends[1] != d1)
        trade = {e1: d2, e2: d1}
        edges = {e: (s, trade.get(e, d)) for e, (s, d) in g.edges.items()}
        return replace(g, edges=edges)

    monkeypatch.setattr(rauzy, "build_special_rauzy", swapped)


class TestChecksFire:
    # evolve(fib12, 4) and evolve(fib12, 6) replay the rewrites at the
    # bispecial length 6 on the graph they start from, then follow every
    # edge into the graph at length 7

    @pytest.mark.parametrize("n", [4, 6])
    def test_evolve_refuses_a_rewrite_it_cannot_replay(self, monkeypatch, fib12, n):
        assert rauzy.evolve(fib12, n).n_tilde == 6
        trade_targets(monkeypatch, n)
        with pytest.raises(InvariantViolation, match="rewrite at bispecial abaaba"):
            rauzy.evolve(fib12, n)

    def test_evolve_sees_a_target_change_after_the_rewrites(self, monkeypatch, fib12):
        assert rauzy.evolve(fib12, 4).n_prime == 7
        trade_targets(monkeypatch, 7)
        with pytest.raises(InvariantViolation, match="abstract replay of the rewrites"):
            rauzy.evolve(fib12, 4)
