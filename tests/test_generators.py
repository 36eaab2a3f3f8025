"""Sequence sources: interval exchanges, substitutions, rotations, files."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.errors import PreconditionFailure
from shiftlab.generators import (
    IETSpec,
    IntervalExchange,
    KeaneDiagnostic,
    SequencePrefix,
    SubstitutionSpec,
    continued_fraction_value,
    fibonacci_prefix,
    iet_encode,
    oracle_from_prefix,
    read_iet_file,
    read_sequence_file,
    read_substitution_file,
    rotation_coding,
    substitution_fixed_point,
    thue_morse_prefix,
)
from shiftlab.language import growth_profile, periodicity_check
from shiftlab.words import Alphabet

from conftest import IET3_SPEC


# -- references: one Python step per letter -----------------------------------


def ref_walk(iet, p, count):
    """Codes of ``count`` orbit points from ``p``, the point reached, and the
    first hit of an interior breakpoint."""
    codes = Alphabet(tuple(str(j) for j in range(1, iet.spec.d + 1))).codes
    letters = []
    diag = KeaneDiagnostic(False)
    for i in range(count):
        # the interior breakpoints at or below p, counted one by one
        j = sum(1 for b in iet.breaks[1:-1] if b <= p)
        if j and p == iet.breaks[j] and not diag.violated:
            diag = KeaneDiagnostic(True, i, Fraction(p, iet.scale), j)
        letters.append(codes[j])
        p += iet.offsets[j]
    return "".join(letters), p, diag


def ref_iet_encode(spec, length):
    if length < 1:
        raise ValueError("length must be >= 1")
    iet = IntervalExchange(spec)
    alphabet = Alphabet(tuple(str(j) for j in range(1, spec.d + 1)))
    data, _, diag = ref_walk(iet, int(spec.start * iet.scale), length)
    prefix = SequencePrefix(
        alphabet,
        data,
        f"iet d={spec.d} lengths={[str(x) for x in spec.lengths]} "
        f"pi={list(spec.permutation)} z={spec.start} N={length}",
    )
    return prefix, diag


def ref_rotation_coding(alpha, length):
    if not isinstance(alpha, Fraction):
        value = Fraction(0)
        for a in reversed(alpha):
            value = Fraction(1, a + value)
        alpha = value
    if not 0 < alpha < 1:
        raise ValueError("rotation number must lie in (0, 1)")
    if length < 1:
        raise ValueError("length must be >= 1")
    p, q = alpha.numerator, alpha.denominator
    zo = Alphabet(("0", "1"))
    threshold = q - p
    letters = []
    r = 0
    for _ in range(length):
        letters.append("1" if r >= threshold else "0")
        r = (r + p) % q
    return SequencePrefix(zo, "".join(letters), f"rotation alpha={alpha} N={length}")


def ref_substitution_fixed_point(spec, length):
    """The fixed point x = sigma(x) read off itself: the images of x's
    letters, one letter at a time."""
    if length < 1:
        raise ValueError("length must be >= 1")
    code_rules = {
        spec.alphabet.code(tok): "".join(spec.alphabet.code(t) for t in seq)
        for tok, seq in spec.rules.items()
    }
    x = list(code_rules[spec.alphabet.code(spec.seed)])
    i = 1
    while len(x) < length:
        x.extend(code_rules[x[i]])
        i += 1
    rules_desc = ",".join(
        f"{tok}->{''.join(seq)}" for tok, seq in sorted(spec.rules.items())
    )
    return SequencePrefix(
        spec.alphabet,
        "".join(x[:length]),
        f"substitution {rules_desc} seed={spec.seed} N={length}",
    )


@st.composite
def iet_specs(draw, max_denominator=40):
    """Lengths over a common denominator, small by default so that many
    orbits hit a breakpoint, and a start point on a finer grid."""
    d = draw(st.integers(2, 5))
    denominator = draw(st.integers(d, max_denominator))
    cuts = sorted(draw(st.sets(st.integers(1, denominator - 1), min_size=d - 1, max_size=d - 1)))
    ends = [0, *cuts, denominator]
    lengths = tuple(Fraction(b - a, denominator) for a, b in zip(ends, ends[1:]))
    permutation = tuple(draw(st.permutations(range(1, d + 1))))
    grid = denominator * draw(st.integers(1, 3))
    return IETSpec(lengths, permutation, Fraction(draw(st.integers(0, grid - 1)), grid))


@st.composite
def substitution_specs(draw):
    """Non-uniform rules over one to three symbols, tokens of one or two
    characters, the first symbol as seed."""
    symbols = draw(st.sampled_from([("a",), ("a", "b"), ("x1", "y", "z2")]))
    letter = st.sampled_from(symbols)
    rules = {tok: tuple(draw(st.lists(letter, min_size=1, max_size=4))) for tok in symbols}
    seed = symbols[0]
    rules[seed] = (seed, *draw(st.lists(letter, min_size=1, max_size=3)))
    return SubstitutionSpec(Alphabet(symbols), rules, seed)


class TestGeneratorsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(iet_specs(), st.integers(1, 3000))
    def test_iet_encode(self, spec, length):
        assert iet_encode(spec, length) == ref_iet_encode(spec, length)

    @settings(max_examples=100, deadline=None)
    @given(iet_specs(max_denominator=10**9), st.integers(1, 3000))
    def test_iet_encode_large_denominators(self, spec, length):
        assert iet_encode(spec, length) == ref_iet_encode(spec, length)

    @pytest.mark.parametrize(
        "q,p,step",
        [(501, 100, 500), (996, 7, 995), (3, 1, 0)],
        ids=["inside-a-block", "in-the-tail", "at-step-0"],
    )
    def test_first_keane_hit(self, q, p, step):
        # the rotation by p/q, started at (q - p)/q for q = 3, else at 0,
        # first meets the breakpoint (q - p)/q at step q - 1; 1,000 letters
        # are coded in blocks of 16, and the tail starts at step 992
        start = Fraction(q - p, q) if step == 0 else Fraction(0)
        spec = IETSpec((Fraction(q - p, q), Fraction(p, q)), (2, 1), start)
        got = iet_encode(spec, 1000)
        assert got == ref_iet_encode(spec, 1000)
        assert got[1] == KeaneDiagnostic(True, step, Fraction(q - p, q), 1)

    def test_iet_orbit_hitting_a_breakpoint(self):
        # the orbit of 0 under the rotation by 2/5 reaches the breakpoint
        # 3/5 at its 4th point (0, 2/5, 4/5, 1/5, 3/5)
        spec = IETSpec((Fraction(3, 5), Fraction(2, 5)), (2, 1), Fraction(0))
        got = iet_encode(spec, 12)
        assert got == ref_iet_encode(spec, 12)
        assert got[1] == KeaneDiagnostic(True, 4, Fraction(3, 5), 1)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(iet_specs(), iet_specs(max_denominator=10**9)), st.integers(0, 6))
    def test_cylinders(self, spec, log_length):
        L = 1 << log_length
        iet = IntervalExchange(spec)
        lefts, words, shifts = iet.cylinders(L)
        # the cylinders tile [0, scale) in ascending order
        ends = [*lefts[1:], iet.scale]
        assert lefts[0] == 0 and all(lo < hi for lo, hi in zip(lefts, ends))
        assert len(lefts) <= (spec.d - 1) * L + 1
        assert len(set(words)) == len(words)
        for lo, hi, word, shift in zip(lefts, ends, words, shifts):
            # T^L translates the whole interval: both ends walk as the table says
            for x in (lo, hi - 1):
                assert ref_walk(iet, x, L)[:2] == (word, x + shift)

    @settings(max_examples=300, deadline=None)
    @given(substitution_specs(), st.integers(1, 5000))
    def test_substitution_fixed_point(self, spec, length):
        # most lengths end inside the image of a letter
        got = substitution_fixed_point(spec, length)
        assert got == ref_substitution_fixed_point(spec, length)

    @pytest.mark.parametrize("length", [1, 2, 4000, 5000])
    def test_linearly_growing_seed(self, length):
        # a -> ab, b -> bc, c -> c fixes a b bc bcc bccc ...
        abc = Alphabet(("a", "b", "c"))
        spec = SubstitutionSpec(abc, {"a": ("a", "b"), "b": ("b", "c"), "c": ("c",)}, "a")
        got = substitution_fixed_point(spec, length)
        assert got == ref_substitution_fixed_point(spec, length)
        assert got.data == ("0" + "".join("1" + "2" * k for k in range(100)))[:length]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60).flatmap(
        lambda q: st.tuples(st.integers(1, q - 1), st.just(q))), st.integers(1, 3000))
    def test_rotation_small_denominators(self, pq, length):
        # every orbit of a rational rotation meets the breakpoint 1 - alpha
        alpha = Fraction(*pq)
        assert rotation_coding(alpha, length) == ref_rotation_coding(alpha, length)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=30).filter(lambda qs: qs != [1]),
           st.integers(1, 3000))
    def test_rotation_quotients(self, quotients, length):
        # equal provenance includes an equal continued-fraction value
        assert rotation_coding(quotients, length) == ref_rotation_coding(quotients, length)


class TestIet:
    def test_rational_rotation_coding(self):
        spec = IETSpec((Fraction(2, 3), Fraction(1, 3)), (2, 1), Fraction(0))
        prefix, diag = iet_encode(spec, 6)
        assert prefix.tokens() == ("1", "1", "2", "1", "1", "2")
        # the orbit of a rational rotation hits the division point
        assert diag.violated

    def test_start_at_discontinuity(self):
        spec = IETSpec((Fraction(2, 3), Fraction(1, 3)), (2, 1), Fraction(2, 3))
        _, diag = iet_encode(spec, 6)
        assert diag.violated and diag.step == 0 and diag.point == Fraction(2, 3)

    def test_convergent_triple_is_keane_clean(self, iet3_prefix):
        # session fixture already asserts no violation within 1e5 steps
        assert len(iet3_prefix) == 100000

    def test_growth_differences(self, iet3_oracle):
        profile = growth_profile(iet3_oracle)
        assert profile.K == 2

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            IETSpec((Fraction(1, 2), Fraction(1, 3)), (2, 1))
        with pytest.raises(ValueError):
            IETSpec((Fraction(1, 2), Fraction(1, 2)), (2, 2))
        with pytest.raises(ValueError):
            IETSpec((Fraction(1, 2), Fraction(1, 2)), (2, 1), Fraction(3, 2))


class TestSubstitution:
    def test_fibonacci_prefix(self):
        assert "".join(fibonacci_prefix(13).tokens()) == "abaababaabaab"

    def test_thue_morse_prefix(self):
        assert "".join(thue_morse_prefix(8).tokens()) == "01101001"

    def test_doubling_constant(self):
        a = Alphabet(("a",))
        spec = SubstitutionSpec(a, {"a": ("a", "a")}, "a")
        assert "".join(substitution_fixed_point(spec, 4).tokens()) == "aaaa"

    def test_non_prolongable_seed(self):
        ab = Alphabet(("a", "b"))
        with pytest.raises(PreconditionFailure, match="prolongable"):
            SubstitutionSpec(ab, {"a": ("b", "a"), "b": ("a",)}, "a")

    def test_non_growing_seed(self):
        ab = Alphabet(("a", "b"))
        with pytest.raises(PreconditionFailure, match="growing"):
            SubstitutionSpec(ab, {"a": ("a",), "b": ("a", "b")}, "a")


class TestRotation:
    def test_half(self):
        assert "".join(rotation_coding(Fraction(1, 2), 4).tokens()) == "0101"

    def test_third(self):
        assert "".join(rotation_coding(Fraction(1, 3), 6).tokens()) == "001001"

    def test_fibonacci_convergent_matches_substitution(self):
        # the orbit coding of the golden-ratio convergent 8/13 reproduces
        # the substitution fixed point, one step shifted, under a -> 1,
        # b -> 0 (frozen from direct computation of both sides)
        rot = rotation_coding(Fraction(8, 13), 13).tokens()
        fib = fibonacci_prefix(12).tokens()
        swap = {"a": "1", "b": "0"}
        assert tuple(rot[1:]) == tuple(swap[t] for t in fib)

    def test_continued_fraction_input(self):
        # [0; 1,1,1,1,1,1] = 8/13
        assert continued_fraction_value([1] * 6) == Fraction(8, 13)
        rot_cf = rotation_coding([1] * 6, 13)
        rot_frac = rotation_coding(Fraction(8, 13), 13)
        assert rot_cf.data == rot_frac.data

    def test_rational_rotation_is_periodic(self):
        x = rotation_coding(Fraction(1, 3), 60)
        report = periodicity_check(oracle_from_prefix(x, 8))
        assert report.periodic_within_horizon and report.period == 3

    def test_large_denominator_convergent_is_sturmian(self):
        x = rotation_coding(Fraction(610, 987), 12000)
        profile = growth_profile(oracle_from_prefix(x, 20))
        assert profile.K == 1 and profile.N0 == 1

    def test_range_check(self):
        with pytest.raises(ValueError):
            rotation_coding(Fraction(3, 2), 5)


class TestOracleFromPrefix:
    def test_window_sets(self, ab):
        x = SequencePrefix.from_tokens(ab, "abaababaabaab", "fib13")
        oracle = oracle_from_prefix(x, 3)
        # exact window contents, re-derived by hand scanning
        expected = {x.data[i : i + 3] for i in range(len(x.data) - 2)}
        assert oracle.factor_strings(3) == expected
        assert {str(w) for w in oracle.words(3)} == {"aba", "baa", "aab", "bab"}

    def test_periodic_prefix_complexity(self, periodic01_oracle):
        assert all(periodic01_oracle.p(n) == 2 for n in range(1, 5))

    def test_margin_enforced(self, ab):
        x = SequencePrefix.from_tokens(ab, "ab" * 10, "short")
        with pytest.raises(PreconditionFailure, match="too large"):
            oracle_from_prefix(x, 6)


class TestFiles:
    def test_sequence_file_roundtrip(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("alphabet: 0,1\n0 1 1 0\n1 0\n")
        x = read_sequence_file(path)
        assert x.tokens() == ("0", "1", "1", "0", "1", "0")

    def test_sequence_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("0 1 1 0\n")
        with pytest.raises(ValueError, match="alphabet"):
            read_sequence_file(path)

    def test_iet_file(self, tmp_path):
        path = tmp_path / "iet.json"
        path.write_text(
            '{"d": 2, "lambda": ["2/3", "1/3"], "pi": [2, 1], "z": "1/6"}'
        )
        spec = read_iet_file(path)
        assert spec.lengths == (Fraction(2, 3), Fraction(1, 3))
        assert spec.start == Fraction(1, 6)

    def test_substitution_file(self, tmp_path):
        path = tmp_path / "sub.json"
        path.write_text(
            '{"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}, "seed": "a"}'
        )
        spec = read_substitution_file(path)
        assert "".join(substitution_fixed_point(spec, 13).tokens()) == "abaababaabaab"
