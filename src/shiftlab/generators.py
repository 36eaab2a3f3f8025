"""Concrete sequence sources: interval exchanges, substitutions, rotation
codings, and file ingestion, plus the prefix-to-oracle bridge.

All interval-exchange and rotation arithmetic is exact.  Orbits run on
integers (points scaled by the common denominator of the data), so
"irrational-like" parameters are supplied as high-denominator convergents
and behave irrationally at any horizon this package can afford.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .errors import PreconditionFailure
from .language import LanguageOracle, StoredLevels, _AllWords
from .words import Alphabet, Word


@dataclass(frozen=True)
class SequencePrefix(Word):
    """A finite prefix of a one-sided infinite sequence: a word that
    records where it came from."""

    provenance: str
    recurrent: bool | None = None  # read by nothing


# -- interval exchange transformations -----------------------------------


@dataclass(frozen=True)
class IETSpec:
    """Lengths, permutation and start point of an interval exchange.

    ``permutation[j-1]`` is the 1-based position that the j-th interval
    takes after rearrangement.
    """

    lengths: tuple[Fraction, ...]
    permutation: tuple[int, ...]
    start: Fraction = Fraction(0)

    def __post_init__(self):
        d = len(self.lengths)
        if d < 2:
            raise ValueError("interval exchange needs at least 2 intervals")
        if any(x <= 0 for x in self.lengths):
            raise ValueError("interval lengths must be positive")
        if sum(self.lengths) != 1:
            raise ValueError("interval lengths must sum to 1")
        if sorted(self.permutation) != list(range(1, d + 1)):
            raise ValueError("permutation must be a bijection of 1..d")
        if not 0 <= self.start < 1:
            raise ValueError("start point must lie in [0, 1)")

    @property
    def d(self) -> int:
        return len(self.lengths)


class IntervalExchange:
    """The piecewise translation defined by an :class:`IETSpec`.

    Points are handled as integers scaled by the common denominator of
    the input data, so iteration is exact and fast.
    """

    def __init__(self, spec: IETSpec):
        self.spec = spec
        d = spec.d
        self.scale = lcm(*(x.denominator for x in spec.lengths), spec.start.denominator)
        lens = [self.scale // x.denominator * x.numerator for x in spec.lengths]
        # domain breakpoints 0 = b_0 < b_1 < ... < b_d = scale
        self.breaks = [0, *accumulate(lens)]
        # target offset of interval j: total length of intervals placed before it
        self.offsets = []
        for j in range(d):
            before = sum(lens[k] for k in range(d) if spec.permutation[k] < spec.permutation[j])
            self.offsets.append(before - self.breaks[j])
        self.alphabet = Alphabet(tuple(str(j) for j in range(1, d + 1)))

    def walk(self, p: int, count: int, first: int) -> tuple[str, KeaneDiagnostic]:
        """The codes of ``count`` orbit points from ``p``, one step per letter,
        and the first hit of an interior breakpoint, counted from step ``first``."""
        breaks, offsets, codes, d = self.breaks, self.offsets, self.alphabet.codes, self.spec.d
        letters = []
        diag = KeaneDiagnostic(False)
        for i in range(first, first + count):
            # the 0-based interval of p: the interior breakpoints at or below it
            j = bisect_right(breaks, p, 1, d) - 1
            # p lies in [breaks[j], breaks[j + 1]), so it is an interior
            # breakpoint iff j > 0 and p == breaks[j]
            if j and p == breaks[j] and not diag.violated:
                diag = KeaneDiagnostic(True, i, Fraction(p, self.scale), j)
            letters.append(codes[j])
            p += offsets[j]
        return "".join(letters), diag

    def cylinders(self, L: int) -> tuple[list[int], list[str], list[int]]:
        """Left ends, words and shifts of the at most ``(d - 1) L + 1`` cylinders
        of length ``L``, a power of 2, ascending: each runs to the next left end
        (or ``scale``), and ``T^L(x) = x + shift`` on it.  By doubling: ``T^m``
        moves the cylinder of u by ``s_u``, and its overlap with that of a v of
        length m, moved back, is the cylinder of uv, with shift ``s_u + s_v``."""
        lefts, words, shifts = self.breaks[:-1], list(self.alphabet.codes), self.offsets
        for _ in range(L.bit_length() - 1):
            pieces = []
            for lo, hi, u, s in zip(lefts, [*lefts[1:], self.scale], words, shifts):
                v = bisect_right(lefts, lo + s) - 1  # the overlap that starts at lo
                pieces.append((lo, u + words[v], s + shifts[v]))
                for v in range(v + 1, bisect_left(lefts, hi + s)):
                    pieces.append((lefts[v] - s, u + words[v], s + shifts[v]))
            lefts, words, shifts = map(list, zip(*pieces))
        return lefts, words, shifts

    def orbit(self, length: int) -> tuple[str, KeaneDiagnostic]:
        """The codes of the first ``length`` orbit points and the first hit of
        an interior breakpoint: ``L`` letters per step from :meth:`cylinders`,
        with ``L`` a power of 2 near ``sqrt(length / (4 (d - 1)))`` to balance
        table and blocks, and the last ``length mod L`` one per step."""
        if length < 1:
            raise ValueError("length must be >= 1")
        L = 1 << (length // (4 * self.spec.d - 4)).bit_length() // 2
        lefts, words, shifts = self.cylinders(L)
        p = self.scale // self.spec.start.denominator * self.spec.start.numerator
        letters = []
        diag = KeaneDiagnostic(False)
        blocks = length - length % L
        for step in range(0, blocks, L):
            i = bisect_right(lefts, p) - 1
            # Only a block from a left end can hit an interior breakpoint: if
            # T^k(y) = b_j, k < L, then y - 1 lies in another length-k cylinder,
            # or T^k(y - 1) = b_j - 1 lies in interval j - 1, not j.  Either
            # way y is a left end at length k + 1, so at length L.
            if p == lefts[i] and not diag.violated:
                diag = self.walk(p, L, step)[1]
            letters.append(words[i])
            p += shifts[i]
        tail, hit = self.walk(p, length - blocks, blocks)
        return "".join(letters) + tail, diag if diag.violated else hit


@dataclass(frozen=True)
class KeaneDiagnostic:
    """Whether some orbit point hit an interior division point."""

    violated: bool
    step: int | None = None
    point: Fraction | None = None
    boundary_index: int | None = None


def iet_encode(spec: IETSpec, length: int) -> tuple[SequencePrefix, KeaneDiagnostic]:
    """Code the forward orbit of the start point by interval index.

    Letter ``i`` names the (1-based) interval containing the ``(i-1)``-th
    iterate, with the left-closed right-open interval convention, as
    :meth:`IntervalExchange.orbit` codes it.
    """
    iet = IntervalExchange(spec)
    data, diag = iet.orbit(length)
    prefix = SequencePrefix(
        iet.alphabet,
        data,
        f"iet d={spec.d} lengths={[str(x) for x in spec.lengths]} "
        f"pi={list(spec.permutation)} z={spec.start} N={length}",
    )
    return prefix, diag


# -- substitutions ---------------------------------------------------------


@dataclass(frozen=True)
class SubstitutionSpec:
    """A substitution with a prolongable seed letter.

    The rule of the seed must begin with the seed and have length at
    least 2, so iteration converges to a unique growing fixed point.
    """

    alphabet: Alphabet
    rules: dict[str, tuple[str, ...]]  # token -> token sequence
    seed: str

    def __post_init__(self):
        for tok in self.alphabet.symbols:
            if tok not in self.rules or not self.rules[tok]:
                raise ValueError(f"rule missing or empty for symbol {tok!r}")
            for t in self.rules[tok]:
                if t not in self.alphabet.symbols:
                    raise ValueError(f"rule for {tok!r} uses unknown symbol {t!r}")
        if self.seed not in self.alphabet.symbols:
            raise ValueError(f"seed {self.seed!r} not in alphabet")
        seed_rule = self.rules[self.seed]
        if seed_rule[0] != self.seed:
            raise PreconditionFailure(
                f"seed not prolongable: rule({self.seed!r}) does not start with it"
            )
        if len(seed_rule) < 2:
            raise PreconditionFailure(
                "substitution is not growing on the seed"
            )


def substitution_fixed_point(spec: SubstitutionSpec, length: int) -> SequencePrefix:
    """The length-``length`` prefix of the fixed point of the substitution.

    From ``sigma^0(c) = c``, ``sigma^(k+1)(c)`` joins the images ``sigma^k(c')``
    of the letters of ``sigma(c)``, cut at ``length``, until the seed's image is that long."""
    if length < 1:
        raise ValueError("length must be >= 1")
    code = spec.alphabet.code
    rules = {code(tok): "".join(map(code, seq)) for tok, seq in spec.rules.items()}
    images = {c: c for c in rules}
    seed = code(spec.seed)
    while len(images[seed]) < length:
        images = {c: "".join(map(images.__getitem__, rule))[:length] for c, rule in rules.items()}
    rules_desc = ",".join(
        f"{tok}->{''.join(seq)}" for tok, seq in sorted(spec.rules.items())
    )
    return SequencePrefix(
        spec.alphabet,
        images[seed],
        f"substitution {rules_desc} seed={spec.seed} N={length}",
    )


def fibonacci_prefix(length: int) -> SequencePrefix:
    """Fixed point of a -> ab, b -> a."""
    ab = Alphabet(("a", "b"))
    spec = SubstitutionSpec(ab, {"a": ("a", "b"), "b": ("a",)}, "a")
    return substitution_fixed_point(spec, length)


# -- rotation codings ------------------------------------------------------


def continued_fraction_value(quotients: Sequence[int]) -> Fraction:
    """Value of the continued fraction [0; a1, a2, ...]."""
    if not quotients or any(a < 1 for a in quotients):
        raise ValueError("partial quotients must be positive integers")
    num, den = 0, 1
    for a in reversed(quotients):
        num, den = den, a * den + num
    return Fraction(num, den)


def rotation_coding(
    alpha: Fraction | Sequence[int], length: int
) -> SequencePrefix:
    """Two-letter coding of the rotation by ``alpha`` started at 0: the
    2-interval exchange swapping ``[0, 1 - alpha)`` and ``[1 - alpha, 1)``.

    Letter ``1`` marks orbit points in ``[1 - alpha, 1)``.  ``alpha`` may
    be given directly or as a stream of continued-fraction partial
    quotients (the convergent they determine is used, exactly).
    """
    if not isinstance(alpha, Fraction):
        alpha = continued_fraction_value(alpha)
    if not 0 < alpha < 1:
        raise ValueError("rotation number must lie in (0, 1)")
    data, _ = IntervalExchange(IETSpec((1 - alpha, alpha), (2, 1))).orbit(length)
    return SequencePrefix(Alphabet(("0", "1")), data, f"rotation alpha={alpha} N={length}")


# -- prefix -> oracle -------------------------------------------------------


# windows per struct record in _windows: formats of at most this many
# fields keep struct's cache a few kilobytes, however long the prefix
_RECORD = 64


def _windows(data: str, n: int) -> frozenset[str]:
    """The distinct length-``n`` windows of ``data``, whose letters are
    one ASCII byte each.

    For each start offset ``s < n`` the windows at ``s, s + n, s + 2n,
    ...`` tile the encoded data, so a struct of ``_RECORD`` fields of
    ``n`` bytes unpacks them in C, one record at a time, and one format of
    the fewer than ``_RECORD`` left over unpacks the rest in one call.
    Each distinct window is decoded once.
    """
    raw = data.encode("ascii")
    view = memoryview(raw)
    record = struct.Struct(f"{n}s" * _RECORD)
    found: set[bytes] = set()
    for s in range(n):
        count = (len(raw) - s) // n
        end = s + count // _RECORD * record.size
        found.update(chain.from_iterable(record.iter_unpack(view[s:end])))
        found.update(struct.unpack_from(f"{n}s" * (count % _RECORD), raw, end))
    return frozenset(map(bytes.decode, found))


def oracle_from_prefix(x: SequencePrefix, horizon: int) -> LanguageOracle:
    """Oracle whose factor sets are exactly the window contents of ``x``.

    Requires ``horizon <= len(x)/4`` so extension queries and the block
    computations downstream are honestly witnessed away from the prefix
    boundary.

    Windows are cut only at the horizon, by :func:`_windows`.  Every
    shorter window is the one-letter-shorter prefix of the window one
    longer starting at the same place, except the final one, so level
    ``n`` is derived from level ``n + 1`` plus ``data[N - n:]``.  Both
    truncations of a window are windows, so the levels are factor-closed
    by construction.  The derivation stops at the first full level, one
    holding all ``|A|**n`` words: by factor closure every shorter level
    is full too, so that level and those below it are computed, not
    stored.  Level 1 is full, as every symbol occurs.

    The prefix must hold every alphabet symbol, and each window of length
    ``m = horizon - 2`` or less must occur with a letter on each side.
    Only the first and the last window of a length can lack such an
    occurrence, and when the first (last) window of some length lacks
    one, so does the first (last) window of every greater length: two
    searches at length ``m`` decide every length.  A prefix failing either
    raises :class:`PreconditionFailure` naming its length and the horizon.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if 4 * horizon > len(x):
        raise PreconditionFailure(
            f"horizon {horizon} too large for prefix of length {len(x)}; "
            f"need length >= {4 * horizon}"
        )
    data = x.data
    N = len(data)
    label = f"prefix N={N} H={horizon} of [{x.provenance}]"
    codes = x.alphabet.codes
    for code in codes:
        if code not in data:
            raise PreconditionFailure(
                f"{label}: symbol {x.alphabet.render(code)!r} never occurs"
            )
    m = horizon - 2
    if m > 0:
        for end, window in (("first", data[:m]), ("last", data[N - m :])):
            if data.find(window, 1, N - 1) < 0:
                raise PreconditionFailure(
                    f"{label}: the {end} {m} letters never occur with a letter "
                    f"on each side, so length {m} is not extendable; use a "
                    "longer prefix or a smaller horizon"
                )
    truncate = itemgetter(slice(None, -1))
    level, levels = _windows(data, horizon), {}
    for n in range(horizon, 0, -1):
        if len(level) == len(codes) ** n:
            levels.update((m, _AllWords(codes, m)) for m in range(1, n + 1))
            break
        levels[n] = level
        level = set(map(truncate, level))
        level.add(data[N - n + 1 :])
        level = frozenset(level)
    return LanguageOracle(x.alphabet, StoredLevels(levels), label)


# -- file ingestion ----------------------------------------------------------


def _from_file(path: str | Path, build, *args):
    """``build(*args)`` for data read from ``path``; a refusal names the file."""
    try:
        return build(*args)
    except (ValueError, PreconditionFailure) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_sequence_file(path: str | Path) -> SequencePrefix:
    """Sequence file: line 1 ``alphabet: s1,s2,...``; remaining lines are
    whitespace-separated symbol tokens."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or not lines[0].lower().startswith("alphabet:"):
        raise ValueError(f"{path}: first line must be 'alphabet: s1,s2,...'")
    symbols = tuple(tok.strip() for tok in lines[0].split(":", 1)[1].split(","))
    alphabet = _from_file(path, Alphabet, symbols)
    tokens = " ".join(lines[1:]).split()
    if not tokens:
        raise ValueError(f"{path}: no sequence data")
    data = _from_file(path, "".join, map(alphabet.code, tokens))
    return SequencePrefix(alphabet, data, f"file {path}")


def _rational(path: str | Path, key: str, value: object) -> Fraction:
    """An exact rational written as a string, such as ``"1/7"``."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(
        f"{path}: {key!r} needs exact rationals written as 'p/q' strings, "
        f"got {value!r}"
    )


def read_json_file(path: str | Path, option: str) -> object:
    """The JSON document in the file given to the command-line ``option``;
    a syntax error names both."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{option} {path}: not valid JSON: {exc}") from None


def read_iet_file(path: str | Path) -> IETSpec:
    """IET spec file: JSON with keys d, lambda (array of 'p/q' strings),
    pi (array of ints), z ('p/q')."""
    obj = read_json_file(path, "--iet")
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: the top level must be an object")
    if not isinstance(obj.get("lambda"), list):
        raise ValueError(f"{path}: 'lambda' must be an array of 'p/q' strings")
    lengths = tuple(_rational(path, "lambda", s) for s in obj["lambda"])
    if "d" in obj and obj["d"] != len(lengths):
        raise ValueError(f"{path}: d={obj['d']!r} but {len(lengths)} lengths given")
    pi = obj.get("pi")
    if not isinstance(pi, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in pi
    ):
        raise ValueError(f"{path}: 'pi' must be an array of integers")
    return _from_file(
        path, IETSpec, lengths, tuple(pi), _rational(path, "z", obj.get("z", "0"))
    )


def read_substitution_file(path: str | Path) -> SubstitutionSpec:
    """Substitution file: JSON with keys alphabet (array), rules (object
    mapping symbol to replacement string or array), seed."""
    obj = read_json_file(path, "--substitution")
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: the top level must be an object")
    symbols = obj.get("alphabet")
    if not isinstance(symbols, list) or not all(isinstance(t, str) for t in symbols):
        raise ValueError(f"{path}: 'alphabet' must be an array of strings")
    alphabet = _from_file(path, Alphabet, tuple(symbols))
    if not isinstance(obj.get("rules"), dict) or not all(
        isinstance(rep, (str, list)) for rep in obj["rules"].values()
    ):
        raise ValueError(
            f"{path}: 'rules' must be an object mapping symbol to replacement"
        )
    if "seed" not in obj:
        raise ValueError(f"{path}: 'seed' is missing")
    rules = {}
    for tok, rep in obj["rules"].items():
        if isinstance(rep, str) and not alphabet._single_char_tokens:
            raise ValueError(
                f"{path}: string rules are ambiguous for multi-character symbols"
            )
        rules[tok] = tuple(rep)
    return _from_file(path, SubstitutionSpec, alphabet, rules, obj["seed"])
