"""The constant-tail rule of the growth profile: a trailing run of equal
differences reads ``constant K from N0`` only when it starts at
``N0 <= H/2``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.generators import oracle_from_prefix, thue_morse_prefix
from shiftlab.language import _constant_tail, growth_profile


def naive_constant_tail(differences):
    """Reference: the differences from ``n = floor(H/2)`` on are all equal,
    and ``N0`` is the least ``n`` from which they all are."""
    H = len(differences) + 1
    if len(set(differences[H // 2 - 1 :])) != 1:
        return None
    n0 = min(n for n in range(1, H) if len(set(differences[n - 1 :])) == 1)
    return differences[-1], n0


def thue_morse_difference(n: int) -> int:
    """``p(n+1) - p(n)`` for Thue-Morse (Brlek, Discrete Appl. Math. 24,
    1989): for ``2^j < n <= 2^(j+1)``, 4 on ``(2^j, 3 2^(j-1)]`` and 2
    after; 2 at ``n = 1, 2``."""
    if n <= 2:
        return 2
    j = (n - 1).bit_length() - 1
    return 4 if n <= 3 << (j - 1) else 2


class TestRule:
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_matches_naive_reference(self, differences):
        assert _constant_tail(differences) == naive_constant_tail(differences)

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(1, 12)), min_size=1, max_size=6
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_reference_on_long_runs(self, runs):
        differences = [value for value, length in runs for _ in range(length)]
        if len(differences) >= 2:
            assert _constant_tail(differences) == naive_constant_tail(differences)

    @pytest.mark.parametrize(
        "differences,expected",
        [
            ([1, 2, 2], (2, 2)),  # H = 4, the run starts at exactly H/2
            ([1, 1, 2, 2], None),  # H = 5, the run starts at 3 > 5/2
            ([5, 3, 2, 2, 2], (2, 3)),  # H = 6, from exactly H/2 again
            ([5, 2, 2, 2, 2], (2, 2)),
            ([7, 7], (7, 1)),
            ([7, 8], None),
            ([2, 2, 4, 2, 4, 4, 2, 2], None),  # Thue-Morse at H = 9
        ],
    )
    def test_pinned(self, differences, expected):
        assert _constant_tail(differences) == expected


class TestThueMorse:
    def test_closed_form_matches_stored_levels(self):
        profile = growth_profile(oracle_from_prefix(thue_morse_prefix(20_000), 200))
        assert profile.differences == {n: thue_morse_difference(n) for n in range(1, 200)}
        assert profile.verdict == "not constant within horizon"

    def test_never_constant_up_to_20000(self):
        # the trailing run's start n0 is kept as the horizon grows, so each
        # horizon costs O(1); the rule itself runs where a run ends, which
        # is where its tail is longest
        differences = [thue_morse_difference(n) for n in range(1, 20_000)]
        n0 = 1
        run_ends = 0
        for H in range(3, 20_001):
            last = H - 1  # differences for n = 1..H-1
            if last > 1 and differences[last - 1] != differences[last - 2]:
                n0 = last
            if H >= 10:
                assert 2 * n0 > H, H
            ends_here = H == 20_000 or differences[last] != differences[last - 1]
            if H >= 10 and ends_here:
                assert _constant_tail(differences[:last]) is None, H
                run_ends += 1
        assert run_ends > 20  # two runs per doubling of the horizon

    @pytest.mark.parametrize("horizon", [24, 100, 400])
    def test_stored_prefix_verdicts(self, horizon):
        oracle = oracle_from_prefix(thue_morse_prefix(max(4 * horizon, 20_000)), horizon)
        assert growth_profile(oracle).verdict == "not constant within horizon"
