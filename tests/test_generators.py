"""Sequence sources: interval exchanges, substitutions, rotations, files."""

from fractions import Fraction

import pytest

from shiftlab.errors import PreconditionFailure
from shiftlab.generators import (
    IETSpec,
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
