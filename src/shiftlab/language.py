"""Finite-horizon language oracles and factor-language analyses.

An oracle holds the verified factor sets of a language up to a declared
horizon.  Every verdict produced here is a "within horizon" statement and
reports carry the horizon they were computed at; nothing is claimed about
lengths the oracle has not seen.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import AbstractSet, Iterator, Literal, Mapping

from ._graphutil import is_weakly_connected
from .errors import (
    AlphabetMismatch,
    HorizonExceeded,
    NotAFactor,
    PreconditionFailure,
)
from .words import Alphabet, Word

Side = Literal["left", "right"]
SIDES: tuple[Side, Side] = ("left", "right")


class _AllWords(Set):
    """All words of length ``n`` over ``codes``, computed on demand."""

    _from_iterable = frozenset  # so that &, | and == mix with stored levels

    def __init__(self, codes: str, n: int):
        self.codes, self.n = codes, n

    def __contains__(self, w: object) -> bool:
        return isinstance(w, str) and len(w) == self.n and not w.strip(self.codes)

    def __len__(self) -> int:
        return len(self.codes) ** self.n

    def __iter__(self) -> Iterator[str]:
        return map("".join, product(self.codes, repeat=self.n))


class LanguageOracle:
    """Membership and extension queries, exact up to a declared horizon.

    The levels must be a factor language up to the horizon; each builder
    guarantees this where it can fail, and the constructor checks only
    that the levels cover lengths ``1..horizon``:

    * factor closure: both one-letter truncations of every stored word of
      length ``n`` are stored at length ``n - 1``;
    * extendability: every stored word of length ``n <= horizon - 2`` has
      a two-sided one-letter extension stored at length ``n + 2``;
    * every alphabet symbol occurs as a length-1 factor.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        levels: Mapping[int, AbstractSet[str]],
        horizon: int,
        source_label: str,
    ):
        self.alphabet = alphabet
        self.horizon = horizon
        self.source_label = source_label
        self._levels = dict(levels)
        self._special_sets: dict[tuple[int, Side], frozenset[str]] = {}
        # memos of growth_profile and of check_rbc by checked range
        self._growth: GrowthProfile | None = None
        self._rbc: dict[tuple[int, int], RbcReport] = {}
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if set(self._levels) != set(range(1, horizon + 1)):
            raise ValueError("factor sets must cover lengths 1..horizon exactly")

    # -- construction -------------------------------------------------

    @classmethod
    def full_shift(cls, alphabet: Alphabet, horizon: int) -> "LanguageOracle":
        """The language of all words over the alphabet, up to the horizon.

        Levels are computed, not stored: membership is an O(n) code check and
        ``p(n) = |A|**n`` (while a ``len`` holds it: n <= 62 over two letters).
        Bulk queries (extensions, specials, RBC, Rauzy graphs) still
        enumerate ``|A|**(n+1)`` words.
        """
        return cls(
            alphabet,
            {n: _AllWords(alphabet.codes, n) for n in range(1, horizon + 1)},
            horizon,
            f"full shift on {','.join(alphabet.symbols)}",
        )

    # -- basic queries -------------------------------------------------

    def require_length(self, n: int, what: str = "query") -> None:
        if n > self.horizon:
            raise HorizonExceeded(
                f"{what} needs factors of length {n}, horizon is {self.horizon}",
                required=n,
            )
        if n < 1:
            raise ValueError("length must be >= 1")

    def factor_strings(self, n: int) -> AbstractSet[str]:
        self.require_length(n)
        return self._levels[n]

    def words(self, n: int) -> list[Word]:
        return [Word(self.alphabet, d) for d in sorted(self.factor_strings(n))]

    def contains(self, w: Word) -> bool:
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("word and oracle use different alphabets")
        self.require_length(len(w), "membership")
        return w.data in self._levels[len(w)]

    def p(self, n: int) -> int:
        """Complexity: the number of distinct factors of length ``n``."""
        return len(self.factor_strings(n))

    # -- special sets and bispecials (bulk) ---------------------------

    def special_strings(self, n: int, side: Side) -> frozenset[str]:
        """The factors of length ``n`` with at least two extensions on
        ``side``: the one-letter truncations that at least two factors of
        length ``n + 1`` share.  Memoized per length and side."""
        key = (n, side)
        if key not in self._special_sets:
            self.require_length(n + 1, f"{side} extensions")
            self.require_length(n, f"{side} extensions")
            cut = slice(1, None) if side == "left" else slice(None, -1)
            counts = Counter(map(itemgetter(cut), self._levels[n + 1]))
            self._special_sets[key] = frozenset(w for w, c in counts.items() if c >= 2)
        return self._special_sets[key]

    def bispecials(self, n: int) -> dict[str, tuple[list[str], list[str]]]:
        """Each bispecial factor of length ``n``, in ascending order, with
        its RBC witness letters: the codes ``b`` with ``wb`` left special,
        and the codes ``a`` with ``aw`` right special.

        The letters ``b`` are the last letters of the left-special words
        of length ``n + 1`` whose first ``n`` letters are ``w``; the
        letters ``a`` are the first letters of the right-special words
        whose last ``n`` letters are ``w``.  Such ``wb`` and ``aw`` are
        factors, so ``b`` and ``a`` are extensions of ``w``.  Each list is
        in no particular order.  Needs length ``n + 2`` whether or not
        ``n`` has bispecials.
        """
        self.require_length(n + 2, "bispecial query")
        both = self.special_strings(n, "left") & self.special_strings(n, "right")
        table = {w: ([], []) for w in sorted(both)}
        for v in self.special_strings(n + 1, "left"):
            if v[:-1] in table:
                table[v[:-1]][0].append(v[-1])
        for v in self.special_strings(n + 1, "right"):
            if v[1:] in table:
                table[v[1:]][1].append(v[0])
        return table


# -- per-word extension analysis ---------------------------------------


@dataclass(frozen=True)
class ExtensionRecord:
    """One- and two-sided extensions of a factor, with multiplicity."""

    word: Word
    left: frozenset[str]  # symbol tokens
    right: frozenset[str]
    both: frozenset[tuple[str, str]]

    @property
    def multiplicity(self) -> int:
        return len(self.both) - len(self.left) - len(self.right) + 1

    @property
    def is_bispecial(self) -> bool:
        return len(self.left) >= 2 and len(self.right) >= 2

    @property
    def is_dendric(self) -> bool:
        """The bipartite graph on the left and right extensions, with an
        edge per two-sided extension, is a tree."""
        verts = [("L", a) for a in sorted(self.left)]
        verts += [("R", b) for b in sorted(self.right)]
        edges = ((("L", a), ("R", b)) for a, b in self.both)
        return (
            is_weakly_connected(verts, edges)
            and len(self.both) == len(verts) - 1
        )


def extensions(oracle: LanguageOracle, w: Word) -> ExtensionRecord:
    """Exact extension sets of ``w``, read off the stored factor sets."""
    n = len(w)
    oracle.require_length(n + 2, "extension query")
    if not oracle.contains(w):
        raise NotAFactor(f"not a factor: {w}")
    lvl1 = oracle.factor_strings(n + 1)
    lvl2 = oracle.factor_strings(n + 2)
    tok = oracle.alphabet.token
    codes = oracle.alphabet.codes
    left = frozenset(tok(a) for a in codes if a + w.data in lvl1)
    right = frozenset(tok(b) for b in codes if w.data + b in lvl1)
    both = frozenset(
        (tok(a), tok(b))
        for a in codes
        for b in codes
        if a + w.data + b in lvl2
    )
    return ExtensionRecord(w, left, right, both)


def special_words(
    oracle: LanguageOracle, n: int, side: Literal["left", "right", "bi"]
) -> set[Word]:
    """Factors of length ``n`` with at least two extensions on the side."""
    oracle.require_length(n + 2, "special-word query")
    if side == "bi":
        strs = oracle.bispecials(n)
    else:
        strs = oracle.special_strings(n, side)
    return {Word(oracle.alphabet, d) for d in strs}


def _irregularity(good_b: list[str], good_a: list[str]) -> str:
    """Why a bispecial is irregular, given the sorted tokens ``b`` with
    ``wb`` left special and ``a`` with ``aw`` right special."""
    return (
        f"{len(good_b)} right extensions are left special "
        f"({','.join(good_b) or 'none'}); "
        f"{len(good_a)} left extensions are right special "
        f"({','.join(good_a) or 'none'})"
    )


# -- growth profile ------------------------------------------------------


@dataclass(frozen=True)
class GrowthProfile:
    """Complexity values, first differences, and the constant-tail verdict."""

    horizon: int
    p: dict[int, int]
    differences: dict[int, int]
    K: int | None
    N0: int | None

    @property
    def verdict(self) -> str:
        if self.K is None:
            return "not constant within horizon"
        return f"constant {self.K} from {self.N0}"

    def constant_at(self, n: int) -> bool:
        return self.K is not None and self.N0 is not None and self.N0 <= n

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "p": [self.p[n] for n in range(1, self.horizon + 1)],
            "differences": [
                self.differences[n] for n in range(1, self.horizon)
            ],
            "K": self.K,
            "N0": self.N0,
            "verdict": self.verdict,
        }


def growth_profile(oracle: LanguageOracle) -> GrowthProfile:
    """Complexity profile and the constant-tail verdict.

    Each difference ``p(n+1) - p(n)`` equals the total branching excess
    ``sum(|ext| - 1)`` of the length-``n`` words on either side (tests
    assert it against a naive reference).

    Computed once per oracle; every call returns the same report.
    """
    if oracle.horizon < 3:
        raise PreconditionFailure("growth profile needs horizon >= 3")
    if oracle._growth is not None:
        return oracle._growth
    H = oracle.horizon
    p = {n: oracle.p(n) for n in range(1, H + 1)}
    differences = {n: p[n + 1] - p[n] for n in range(1, H)}
    K = N0 = None
    tail_value = differences[H - 1]
    n0 = H - 1
    while n0 - 1 >= 1 and differences[n0 - 1] == tail_value:
        n0 -= 1
    # a single trailing value is not evidence of a constant tail
    if n0 <= H - 2:
        K, N0 = tail_value, n0
    oracle._growth = GrowthProfile(H, p, differences, K, N0)
    return oracle._growth


# -- regular bispecial condition, periodicity ----------------------------


@dataclass(frozen=True)
class RbcReport:
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


def check_rbc(
    oracle: LanguageOracle, n_min: int = 1, n_max: int | None = None
) -> RbcReport:
    """Test every bispecial factor of length in ``[n_min, horizon-3]``
    (or up to ``n_max``) for regularity.

    Each length is decided at once from :meth:`LanguageOracle.bispecials`:
    ``w`` is regular (exactly one right extension left special, exactly
    one left extension right special) iff both witness groups have one
    member.

    ``n0_estimate`` is one more than the longest irregular bispecial found
    (a lower-bound witness only, never the true threshold).  Each range is
    checked once per oracle; every call on it returns the same report.
    """
    top = oracle.horizon - 3
    if n_max is not None:
        top = min(top, n_max)
    if n_min > top:
        raise PreconditionFailure(
            f"no checkable lengths: n_min={n_min}, top={top}"
        )
    key = (n_min, top)
    if key in oracle._rbc:
        return oracle._rbc[key]
    tokens = lambda codes: sorted(map(oracle.alphabet.token, codes))
    violations: list[tuple[Word, str]] = []
    for n in range(n_min, top + 1):
        for data, (b, a) in oracle.bispecials(n).items():
            if len(b) != 1 or len(a) != 1:
                reason = _irregularity(tokens(b), tokens(a))
                violations.append((Word(oracle.alphabet, data), reason))
    n0_estimate = n_min
    if violations:
        n0_estimate = 1 + max(len(w) for w, _ in violations)
    oracle._rbc[key] = RbcReport(
        not violations, violations, n0_estimate, n_min, top, oracle.horizon
    )
    return oracle._rbc[key]


@dataclass(frozen=True)
class PeriodicityReport:
    periodic_within_horizon: bool
    n0: int | None  # least length with p(n0) <= n0
    period: int | None
    horizon: int

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "periodic_within_horizon": self.periodic_within_horizon,
            "n0": self.n0,
            "period": self.period,
        }


def periodicity_check(oracle: LanguageOracle) -> PeriodicityReport:
    """Morse-Hedlund test: report the least ``n0 <= horizon`` with
    ``p(n0) <= n0`` and the detected period, else aperiodic-within-horizon."""
    for n in range(1, oracle.horizon + 1):
        if oracle.p(n) <= n:
            return PeriodicityReport(True, n, _detect_period(oracle), oracle.horizon)
    return PeriodicityReport(False, None, None, oracle.horizon)


def _detect_period(oracle: LanguageOracle) -> int:
    top = oracle.factor_strings(oracle.horizon)
    for p in range(1, oracle.horizon + 1):
        if all(
            w[i] == w[i + p] for w in top for i in range(len(w) - p)
        ):
            return p
    return oracle.horizon  # unreachable for genuinely periodic data


def analysis_report(oracle: LanguageOracle, n_min: int = 1) -> dict:
    """Combined growth / RBC / periodicity JSON-ready report."""
    profile = growth_profile(oracle)
    per = periodicity_check(oracle)
    report = {
        "source": oracle.source_label,
        "alphabet": list(oracle.alphabet.symbols),
        "growth": profile.to_json(),
        "periodicity": per.to_json(),
    }
    if oracle.horizon - 3 >= n_min:
        report["rbc"] = check_rbc(oracle, n_min).to_json()
    return report
