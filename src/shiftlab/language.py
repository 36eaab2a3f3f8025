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
from itertools import compress, product
from operator import itemgetter
from typing import AbstractSet, Callable, Iterator, Literal, Mapping, TypeVar

from .errors import AlphabetMismatch, HorizonExceeded, PreconditionFailure
from .words import Alphabet, Word

Side = Literal["left", "right"]
SIDES: tuple[Side, Side] = ("left", "right")
T = TypeVar("T")


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


class StoredLevels:
    """A level source that holds one set of code strings per length
    ``1..horizon``; its horizon is the number of levels.  A full level may
    be held as a computed ``_AllWords``, counted as ``|A|**n`` exactly,
    also past a machine word, where ``len`` overflows."""

    def __init__(self, levels: Mapping[int, AbstractSet[str]]):
        self._levels, self.horizon = levels, len(levels)
        if set(levels) != set(range(1, self.horizon + 1)):
            raise ValueError("factor sets must cover lengths 1..horizon exactly")

    def level(self, n: int) -> AbstractSet[str]:
        return self._levels[n]

    def p(self, n: int) -> int:
        level = self._levels[n]
        try:
            return len(level)
        except OverflowError:  # a computed level past a machine word
            return len(level.codes) ** n


class LanguageOracle:
    """Membership and extension queries, exact up to a source's horizon.

    The source answers ``level(n)``, the set of factors of length ``n`` as
    code strings, and ``p(n)``, their number, for ``n = 1..horizon``; the
    oracle reads a level only when a query needs it.  The levels must be a
    factor language up to the horizon, and each builder guarantees this
    where it can fail:

    * factor closure: both one-letter truncations of every stored word of
      length ``n`` are stored at length ``n - 1``;
    * extendability: every stored word of length ``n <= horizon - 2`` has
      a two-sided one-letter extension stored at length ``n + 2``;
    * every alphabet symbol occurs as a length-1 factor.
    """

    def __init__(self, alphabet: Alphabet, source: StoredLevels, source_label: str):
        self.alphabet = alphabet
        self.source = source
        self.horizon = source.horizon
        self.source_label = source_label
        self._derived: dict[tuple, object] = {}
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    # -- construction -------------------------------------------------

    @classmethod
    def full_shift(cls, alphabet: Alphabet, horizon: int) -> "LanguageOracle":
        """The language of all words over the alphabet, up to the horizon.

        Levels are computed, not stored: membership is an O(n) code check and
        ``p(n) = |A|**n``.  Every level is full, so special sets and the RBC
        enumerate the ``|A|**n`` words of their own level; Rauzy graphs
        still enumerate the ``|A|**(n+1)`` words of the level above.
        """
        return cls(
            alphabet,
            StoredLevels({n: _AllWords(alphabet.codes, n) for n in range(1, horizon + 1)}),
            f"full shift on {','.join(alphabet.symbols)}",
        )

    # -- basic queries -------------------------------------------------

    def require_length(self, n: int, what: str = "query") -> None:
        if n > self.horizon:
            raise HorizonExceeded(
                f"{what} needs factors of length {n}, horizon is {self.horizon}"
            )
        if n < 1:
            raise ValueError("length must be >= 1")

    def factor_strings(self, n: int) -> AbstractSet[str]:
        self.require_length(n)
        return self.source.level(n)

    def words(self, n: int) -> list[Word]:
        return [Word(self.alphabet, d) for d in sorted(self.factor_strings(n))]

    def contains(self, w: Word) -> bool:
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("word and oracle use different alphabets")
        self.require_length(len(w), "membership")
        return w.data in self.source.level(len(w))

    def p(self, n: int) -> int:
        """Complexity: the number of distinct factors of length ``n``."""
        self.require_length(n)
        return self.source.p(n)

    def derived(self, key: tuple, compute: Callable[[], T]) -> T:
        """The result stored under ``key`` (a table name and its
        arguments), computed by ``compute`` on the first request.

        Callers decide every refusal before asking, so a stored result
        never stands in for a check, and a computation that raises stores
        nothing.  Results are shared between callers; none mutates one.
        """
        memo = self._derived
        if key not in memo:
            memo[key] = compute()
        return memo[key]  # type: ignore[return-value]

    # -- special sets and bispecials (bulk) ---------------------------

    def special_strings(self, n: int, side: Side) -> frozenset[str]:
        """The factors of length ``n`` with at least two extensions on
        ``side``.  Memoized per length and side.

        Every suffix of a right-special word is right special and every
        prefix of a left-special one is left special, so when the set one
        letter shorter is already memoized and small (``|S(n-1)| |A|^2 <
        p(n+1)``) the set is walked from it: the candidates ``a + w``
        (right) or ``w + a`` (left), kept when at least two letters extend
        them at length ``n + 1``.  Otherwise, when level ``n + 1`` is full
        (``p(n+1) == |A|**(n+1)``), so is level ``n`` by factor closure,
        and every word of it has all ``|A|`` extensions on each side: over
        at least two letters the set is every word of length ``n``.  (A
        full level never takes the walk: ``S(n-1)`` is then all of level
        ``n - 1``, so ``|S(n-1)| |A|^2 == p(n+1)``.)  Otherwise it counts
        the one-letter truncations of the factors of length ``n + 1`` and
        keeps those at least two of them share.
        """
        if not 0 < n < self.horizon:
            self.require_length(n + 1, f"{side} extensions")
            self.require_length(n, f"{side} extensions")
        return self.derived(("special", n, side), lambda: self._specials(n, side))

    def _specials(self, n: int, side: Side) -> frozenset[str]:
        longer = self.source.level(n + 1)
        codes = self.alphabet.codes
        size, count = len(codes), self.source.p(n + 1)
        below = self._derived.get(("special", n - 1, side))
        if below is not None and len(below) * size**2 < count:
            right = side == "right"
            found = []
            for w in below:
                for a in codes:
                    v = a + w if right else w + a
                    if sum([(v + b if right else b + v) in longer for b in codes]) >= 2:
                        found.append(v)
            return frozenset(found)
        if size >= 2 and count == size ** (n + 1):
            return frozenset(_AllWords(codes, n))
        cut = slice(1, None) if side == "left" else slice(None, -1)
        counts = Counter(map(itemgetter(cut), longer))
        return frozenset(compress(counts, map((2).__le__, counts.values())))

    def bispecials(self, n: int) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        """Each bispecial factor of length ``n``, in ascending order, with
        its RBC witness letters: the codes ``b`` with ``wb`` left special,
        and the codes ``a`` with ``aw`` right special, each in ascending
        order.

        Such ``wb`` and ``aw`` are factors, so ``b`` and ``a`` are
        extensions of ``w``.  Needs length ``n + 2`` whether or not ``n``
        has bispecials.  Memoized per length; the table is shared, and no
        caller mutates it.

        A full level is read off one count: when level ``n + 2`` is full
        (``p(n+2) == |A|**(n+2)``), every factor ``w`` of length ``n`` has
        all ``|A|**2`` two-sided extensions.  Then every ``wb`` is left
        special and every ``aw`` right special (for ``|A| >= 2``), so every
        factor of length ``n`` is bispecial with every code in both
        witness groups, and no special set is needed.  For a factor-closed
        source the rule is the same as ``p(n+2) == |A|**2 p(n)``, each
        ``w`` with all ``|A|**2`` extensions: then every ``(wb)[1:]`` is a
        factor, so level ``n`` is closed under shifting in a letter, so it
        is full, and so is level ``n + 2``.
        """
        self.require_length(n + 2, "bispecial query")
        self.require_length(n, "bispecial query")
        return self.derived(("bispecials", n), lambda: self._bispecials(n))

    def _bispecials(self, n: int) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        codes = self.alphabet.codes
        size = len(codes)
        if size >= 2 and self.source.p(n + 2) == size ** (n + 2):
            every = tuple(codes)
            return dict.fromkeys(sorted(self.source.level(n)), (every, every))
        left_up = self.special_strings(n + 1, "left")
        right_up = self.special_strings(n + 1, "right")
        both = self.special_strings(n, "left") & self.special_strings(n, "right")
        return {
            w: (
                tuple([b for b in codes if w + b in left_up]),
                tuple([a for a in codes if a + w in right_up]),
            )
            for w in sorted(both)
        }


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

    Needs length 3, so at least two differences.  Computed once per
    oracle; every call returns the same report.
    """
    oracle.require_length(3, "growth profile")
    return oracle.derived(("growth",), lambda: _growth_profile(oracle))


def _growth_profile(oracle: LanguageOracle) -> GrowthProfile:
    H = oracle.horizon
    p = {n: oracle.p(n) for n in range(1, H + 1)}
    differences = {n: p[n + 1] - p[n] for n in range(1, H)}
    K, N0 = _constant_tail(list(differences.values())) or (None, None)
    return GrowthProfile(H, p, differences, K, N0)


def _constant_tail(differences: list[int]) -> tuple[int, int] | None:
    """``(K, N0)`` when the trailing run of equal values in
    ``differences`` (``p(n+1) - p(n)`` for ``n = 1..H-1``) has value ``K``
    and starts at ``N0 <= H/2``, else ``None``.

    Such a run covers at least half the horizon, so it is longer than any
    run before it.  A run from ``n = s`` to ``n = e`` reads constant at the
    horizons ``2s..e+1`` only: Thue-Morse's runs end near 3/2 and 4/3 of
    their starts, so it never does, but a run that ends past twice its
    start passes there, whatever follows it.
    """
    H = len(differences) + 1
    K = differences[-1]
    n0 = H - 1
    while n0 > 1 and differences[n0 - 2] == K:
        n0 -= 1
    return (K, n0) if 2 * n0 <= H else None


# -- regular bispecial condition, periodicity ----------------------------


@dataclass(frozen=True)
class RbcReport:
    """``violations`` holds each irregular bispecial as a code string, with
    its reason; ``alphabet.render`` spells it in tokens, as ``to_json`` does."""

    holds_within_horizon: bool
    violations: list[tuple[str, str]]
    n0_estimate: int
    n_min: int
    max_length_checked: int
    horizon: int
    alphabet: Alphabet

    def to_json(self) -> dict:
        render = self.alphabet.render
        return {
            "horizon": self.horizon,
            "holds_within_horizon": self.holds_within_horizon,
            "n_min": self.n_min,
            "max_length_checked": self.max_length_checked,
            "n0_estimate": self.n0_estimate,
            "violations": [
                {"word": render(d), "reason": r} for d, r in self.violations
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
    return oracle.derived(("rbc", n_min, top), lambda: _rbc_report(oracle, n_min, top))


def _rbc_report(oracle: LanguageOracle, n_min: int, top: int) -> RbcReport:
    tokens = lambda codes: sorted(map(oracle.alphabet.render, codes))
    reasons: dict[tuple[tuple[str, ...], ...], str] = {}  # one per witness pattern
    violations: list[tuple[str, str]] = []
    n0_estimate = n_min
    for n in range(n_min, top + 1):
        for data, (b, a) in oracle.bispecials(n).items():
            if len(b) != 1 or len(a) != 1:
                key = b, a
                if key not in reasons:
                    reasons[key] = _irregularity(tokens(b), tokens(a))
                violations.append((data, reasons[key]))
                n0_estimate = n + 1
    return RbcReport(
        not violations, violations, n0_estimate, n_min, top, oracle.horizon, oracle.alphabet
    )


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
    ``p(n0) <= n0`` and the detected period, else aperiodic-within-horizon.

    Computed once per oracle; every call returns the same report."""
    return oracle.derived(("periodicity",), lambda: _periodicity(oracle))


def _periodicity(oracle: LanguageOracle) -> PeriodicityReport:
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
    """Combined growth / RBC / periodicity JSON-ready report.  Its
    bispecial scan from ``n_min`` reads length ``n_min + 3``."""
    oracle.require_length(n_min + 3, "bispecial scan")
    return {
        "source": oracle.source_label,
        "alphabet": list(oracle.alphabet.symbols),
        "growth": growth_profile(oracle).to_json(),
        "periodicity": periodicity_check(oracle).to_json(),
        "rbc": check_rbc(oracle, n_min).to_json(),
    }
