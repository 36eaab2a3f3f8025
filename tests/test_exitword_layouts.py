"""The exit-word layer against letter-by-letter references.

``enumerate_exit_words`` and ``decompose`` take their layouts from one
rule, each a prefix length with the repetition count it fixes and one
stretch of the periodic extension to compare; ``classify_occurrence``
grows the longest stretch with period ``q`` around one occurrence, and
``check_overlap_bound`` reads every such stretch off one scan.  The
references below (and those in ``exitword_reference.py``) build every
periodic letter one at a time, search every repetition count, and check
each built word against the predicate; on the corpus every field and
every exception must agree.
The checks the fast bodies dropped are kept here as properties.
"""

from itertools import product
from pathlib import Path
from random import Random

import pytest

from conftest import THUE_MORSE
from exitword_reference import (
    ref_classify_occurrence,
    ref_is_representation,
    ref_letter,
    ref_overlap_per_start,
    ref_power,
)
from shiftlab.errors import HorizonExceeded, InvariantViolation, PreconditionFailure
from shiftlab.exitwords import (
    ExitWord,
    EnumerationReport,
    Representation,
    check_overlap_bound,
    classify_occurrence,
    decompose,
    enumerate_exit_words,
)
from shiftlab.generators import (
    SequencePrefix,
    oracle_from_prefix,
    read_sequence_file,
    rotation_coding,
    substitution_fixed_point,
)
from shiftlab.language import LanguageOracle, check_rbc, growth_profile
from shiftlab.words import (
    Alphabet,
    Word,
    minimal_step,
    occurrences,
    periodic_stretch,
    shift_match,
)

BLOCK_TXT = Path(__file__).resolve().parents[1] / "bench" / "inputs" / "block.txt"


# -- references ----------------------------------------------------------------


def ref_decompose(z, w, q, oracle=None):
    n = len(w)
    if not 1 <= q <= n - 1 or not shift_match(w, q):
        raise PreconditionFailure(f"q={q} is not a step for {w}")
    out = []
    r = 1
    while n + (r - 1) * q + 2 <= len(z):
        mid = n + (r - 1) * q
        for p_len in range(1, q + 1):
            s_len = len(z) - mid - p_len
            if 1 <= s_len <= q and ref_is_representation(z, w, q, p_len, r, s_len):
                out.append(Representation(z.sub(1, p_len), r, z.sub(p_len + mid + 1, len(z))))
        r += 1
    out.sort(key=lambda rep: len(rep.p))
    if oracle is not None and out and minimal_step(w, oracle) == q:
        if len(out) != 1:
            raise InvariantViolation(f"minimal step {q} admits {len(out)} decompositions of {z}")
        count, _ = occurrences(z, w)
        if count != out[0].r:
            raise InvariantViolation(
                f"occurrence count {count} != repetition {out[0].r} at minimal step"
            )
    return out


def ref_enumerate(w, q, oracle, cap=None):
    n = len(w)
    if not 1 <= q <= n - 1 or not shift_match(w, q):
        raise PreconditionFailure(f"q={q} is not a step for {w}")
    if not oracle.contains(w):
        raise PreconditionFailure(f"{w} is not a factor")
    cap = oracle.horizon if cap is None else min(cap, oracle.horizon)
    found = {}
    partial = False
    for p_len in range(1, q + 1):
        left_tail = "".join(ref_letter(w, q, k - p_len) for k in range(2, p_len + 1))
        for a in oracle.alphabet.codes:
            if a == ref_letter(w, q, 1 - p_len):
                continue
            for s_len in range(1, q + 1):
                right_head = "".join(ref_letter(w, q, n + k) for k in range(1, s_len))
                for b in oracle.alphabet.codes:
                    if b == ref_letter(w, q, n + s_len):
                        continue
                    r = 1
                    while p_len + n + (r - 1) * q + s_len <= cap:
                        data = a + left_tail + ref_power(w, q, r).data + right_head + b
                        z = Word(w.alphabet, data)
                        if oracle.contains(z):
                            found[data] = z
                            partial = True
                        r += 1
    q_min = minimal_step(w, oracle)
    exit_words = []
    for data in sorted(found, key=lambda d: (len(d), d)):
        z = found[data]
        reps = ref_decompose(z, w, q, oracle if q == q_min else None)
        if not reps:
            raise InvariantViolation("constructed exit word fails the predicate")
        exit_words.append(ExitWord(z, w, q, tuple(reps), canonical=(q == q_min)))
    limit = within = None
    profile = growth_profile(oracle)
    if profile.K is not None and oracle.horizon >= 4:
        if check_rbc(oracle, n_min=1).holds_within_horizon:
            limit = 2 * profile.K * profile.K
            within = len(exit_words) <= limit
    return EnumerationReport(w, q, cap, tuple(exit_words), partial, limit, within)


def outcome(fn, *args):
    """A call's value, or its exception's type and message."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception is the behaviour compared
        return "raised", type(exc), str(exc)


# -- corpus --------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(fib_prefix, iet3_prefix):
    """``(name, prefix or None, oracle)``: full shifts on 2 and 3 letters,
    Fibonacci, Thue-Morse, IET3, ``block.txt``, a purely periodic prefix,
    four rotations and four biased Bernoulli prefixes."""
    zo = Alphabet(("0", "1"))
    rng = Random(1515)
    prefixes = [
        ("fibonacci", fib_prefix, 30),
        ("thue-morse", substitution_fixed_point(THUE_MORSE, 20000), 24),
        ("iet3", iet3_prefix, 30),
        ("block", read_sequence_file(BLOCK_TXT), 20),
        ("periodic", SequencePrefix(zo, "001" * 1000, "(001)^1000"), 20),
    ]
    for i in range(4):
        quotients = [rng.randint(1, 4) for _ in range(12)]
        prefixes.append((f"rotation-{i}", rotation_coding(quotients, 3000), 20))
    for bias in (0.15, 0.3, 0.5, 0.8):
        bits = "".join("1" if rng.random() < bias else "0" for _ in range(3000))
        prefixes.append((f"bernoulli-{bias}", SequencePrefix(zo, bits, "bernoulli"), 9))
    return [
        ("full-2", None, LanguageOracle.full_shift(zo, 11)),
        ("full-3", None, LanguageOracle.full_shift(Alphabet(("a", "b", "c")), 7)),
        *((name, x, oracle_from_prefix(x, h)) for name, x, h in prefixes),
    ]


def base_words(oracle, longest):
    """Factors of length 2..longest, at most 8 per length, in code order."""
    out = []
    for n in range(2, min(longest, oracle.horizon) + 1):
        factors = sorted(oracle.factor_strings(n))
        step = max(1, len(factors) // 8)
        out += [Word(oracle.alphabet, d) for d in factors[::step]]
    return out


def absent_words(oracle):
    """The first word, in code order, of the shortest length at which the
    language misses one; none for a full shift."""
    codes = oracle.alphabet.codes
    for n in range(2, min(oracle.horizon, 8) + 1):
        factors = oracle.factor_strings(n)
        for letters in product(codes, repeat=n):
            if "".join(letters) not in factors:
                return [Word(oracle.alphabet, "".join(letters))]
    return []


@pytest.fixture(scope="module")
def enumerations(corpus):
    """``(oracle, w, q, cap, reference outcome)`` for every step value of
    every base word, valid or not, under the default cap and a short one."""
    out = []
    for _, _, oracle in corpus:
        words = base_words(oracle, 8 if oracle.horizon >= 20 else 6)
        words += absent_words(oracle)
        for w in words:
            for q in range(0, len(w) + 1):
                for cap in (None, len(w) + 4):
                    out.append(
                        (oracle, w, q, cap, outcome(ref_enumerate, w, q, oracle, cap))
                    )
    return out


# -- the comparisons -----------------------------------------------------------


def test_enumeration_matches_reference(enumerations):
    found = several = refused = 0
    for oracle, w, q, cap, expected in enumerations:
        got = outcome(enumerate_exit_words, w, q, oracle, cap)
        assert got == expected, (str(w), q, cap)
        if got[0] == "raised":
            refused += 1
        else:
            found += len(got[1].exit_words)
            several += sum(len(e.representations) > 1 for e in got[1].exit_words)
    assert refused > 500 and found > 2000 and several > 100


def test_enumerated_layouts_are_the_decompositions(enumerations):
    """Each recorded layout meets the predicate, and the list is what
    ``decompose`` finds, in its order."""
    checked = 0
    for oracle, w, q, _, (kind, report, *_) in enumerations:
        if kind != "value":
            continue
        for e in report.exit_words:
            for rep in e.representations:
                assert ref_is_representation(e.z, w, q, len(rep.p), rep.r, len(rep.s))
            assert list(e.representations) == decompose(e.z, w, q)
            checked += 1
    assert checked > 2000


def test_decompose_matches_reference(corpus, enumerations):
    rng = Random(77)
    cases = 0
    for oracle, w, q, cap, (kind, report, *_) in enumerations:
        if cap is not None or kind != "value":
            continue
        zs = [e.z for e in report.exit_words[:3]]
        n = len(w) + 2 * q + 2
        if n <= oracle.horizon:
            pool = sorted(oracle.factor_strings(n))
            zs.append(Word(oracle.alphabet, rng.choice(pool)))
        for z in zs:
            for q2 in range(0, len(w) + 1):
                for orc in (None, oracle):
                    expected = outcome(ref_decompose, z, w, q2, orc)
                    assert outcome(decompose, z, w, q2, orc) == expected, (str(z), str(w), q2)
                    cases += 1
    assert cases > 10000


def test_periodic_stretch_matches_reference(corpus):
    """Every stretch, on either side of position 1, is the periodic
    letters one at a time; from position 1 it is the reference power."""
    for _, _, oracle in corpus:
        for w in base_words(oracle, 6):
            n = len(w)
            for q in range(1, n + 1):
                for lo in range(-q, 2 * q + 1):
                    for hi in range(lo, lo + 2 * n + 1):
                        expected = "".join(ref_letter(w, q, k) for k in range(lo, hi + 1))
                        assert periodic_stretch(w, q, lo, hi) == expected, (str(w), q, lo, hi)
                if q < n and shift_match(w, q):
                    for r in range(1, 5):
                        got = periodic_stretch(w, q, 1, n + (r - 1) * q)
                        assert got == ref_power(w, q, r).data


def _scan_cases(corpus):
    """``(prefix window, oracle, w, q)`` for short factors of each sequence,
    with the minimal step ``q`` of ``w``, or ``None`` when it has none or
    the horizon cannot decide it."""
    for name, prefix, oracle in corpus:
        if prefix is None:
            continue
        x = SequencePrefix(prefix.alphabet, prefix.data[:700], name)
        for w in base_words(oracle, 12 if oracle.horizon >= 18 else 6):
            decidable = len(w) + len(w) // 2 <= oracle.horizon
            yield x, oracle, w, minimal_step(w, oracle) if decidable else None


def test_classification_matches_reference(corpus):
    cases = 0
    seen = set()
    for x, oracle, w, q in _scan_cases(corpus):
        _, starts = occurrences(x, w)
        # the occurrences of a word with a step, one occurrence of any
        # other word (a refusal), and a position where w does not occur
        for j in starts[: 25 if q else 1] + [len(x) - 1]:
            expected = outcome(ref_classify_occurrence, x, w, j, oracle)
            assert outcome(classify_occurrence, x, w, j, oracle) == expected, (str(w), j)
            seen.add(expected[1].case if expected[0] == "value" else expected[1])
            cases += 1
    assert cases > 2000
    assert {"suffix-of-power", "inside-exit-word", HorizonExceeded, PreconditionFailure} <= seen


def test_overlap_scan_matches_reference(corpus):
    reports = 0
    for x, oracle, w, q in _scan_cases(corpus):
        if q is None:
            continue
        expected = outcome(ref_overlap_per_start, x, w, q, oracle)
        assert outcome(check_overlap_bound, x, w, q, oracle) == expected, str(w)
        reports += 1
    assert reports > 100


def test_classified_runs_meet_their_claims(corpus):
    """An enclosing exit word meets the predicate with its one layout; a
    suffix-of-power prefix is a suffix of its power."""
    enclosing = powers = 0
    for x, oracle, w, q in _scan_cases(corpus):
        if q is None:
            continue
        for j in occurrences(x, w)[1][:30]:
            try:
                cls = classify_occurrence(x, w, j, oracle)
            except HorizonExceeded:
                continue
            if cls.case == "suffix-of-power":
                power = ref_power(w, q, cls.r)
                assert power.data.endswith(x.data[: j + len(w) - 1])
                powers += 1
            else:
                z, (rep,) = cls.exit_word.z, cls.exit_word.representations
                assert ref_is_representation(z, w, q, len(rep.p), rep.r, len(rep.s))
                enclosing += 1
    assert enclosing > 1000 and powers > 50
