"""Letter-by-letter references for exit-word layouts: the periodic
extension one letter at a time, the power it repeats, and the predicate
that a prefix length, repetition count and suffix length lay out an exit
word.  ``exitwords.decompose`` and ``exitwords.enumerate_exit_words`` are
checked against them.  ``ref_classify_run`` grows the run of period ``q``
around one occurrence a letter at a time; ``ref_classify_occurrence`` is
``exitwords.classify_occurrence`` on it, and ``ref_overlap_per_start``
is the per-start overlap scan that ``exitwords.check_overlap_bound`` is
checked against."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import ceil

from shiftlab.errors import (
    AlphabetMismatch,
    HorizonExceeded,
    InvariantViolation,
    PreconditionFailure,
)
from shiftlab.exitwords import (
    ExitWord,
    OccurrenceClassification,
    OverlapRecord,
    OverlapReport,
    Representation,
)
from shiftlab.words import Word, minimal_step, occurrences, shift_match


class InvalidStep(ValueError):
    """A periodic-power step does not satisfy the shift-match equation."""


def ref_letter(w: Word, q: int, position: int) -> str:
    return w.data[(position - 1) % q]


def ref_power(w: Word, q: int, r: int) -> Word:
    n = len(w)
    if r < 1:
        raise ValueError("repetition count must be >= 1")
    if q < 1:
        raise InvalidStep("step must be positive")
    if q >= n:
        raise InvalidStep(f"step too large: q={q} for |w|={n}")
    if not shift_match(w, q):
        raise InvalidStep(f"invalid step: q={q} does not satisfy the shift match for {w}")
    total = n + (r - 1) * q
    return Word(w.alphabet, (w.data[:q] * (total // q + 1))[:total])


def ref_is_representation(z, w, q, p_len, r, s_len):
    n = len(w)
    mid = n + (r - 1) * q
    if p_len + mid + s_len != len(z) or not (0 <= p_len <= q and 0 <= s_len <= q):
        return False
    if z.data[p_len : p_len + mid] != ref_power(w, q, r).data:
        return False
    if p_len == 0:
        return False
    for k in range(2, p_len + 1):
        if z.data[k - 1] != ref_letter(w, q, k - p_len):
            return False
    if z.data[0] == ref_letter(w, q, 1 - p_len):
        return False
    if s_len == 0:
        return False
    for k in range(1, s_len):
        if z.data[p_len + mid + k - 1] != ref_letter(w, q, mid + k):
            return False
    if z.data[-1] == ref_letter(w, q, mid + s_len):
        return False
    return True


def ref_classify_run(x, w, q, j):
    """``(j1, j2)`` of the run of period ``q`` around the occurrence of
    ``w`` at ``j``, one periodic letter at a time: ``(1, j)`` when it
    starts at position 1, else the enclosing exit word is
    ``x[j1 - 1 .. j2 + n]``, checked against the predicate."""
    n = len(w)
    j1 = j
    while j1 > 1 and x.data[j1 - 2] == ref_letter(w, q, j1 - j):
        j1 -= 1
    if j1 == 1:
        r = ceil((j - 1) / q) + 1
        if not ref_power(w, q, r).data.endswith(x.data[: j + n - 1]):
            raise InvariantViolation("suffix-of-power case failed verification")
        return 1, j
    t = j + n
    while t <= len(x.data) and x.data[t - 1] == ref_letter(w, q, t - j + 1):
        t += 1
    if t > len(x.data):
        raise HorizonExceeded(
            f"periodic match from position {j} runs to the end of the "
            "prefix; cannot resolve the enclosing exit word"
        )
    j2 = t - n
    z = x.sub(j1 - 1, j2 + n)
    p_len = j - ((j - j1) // q) * q - j1 + 1
    r = (j2 - j) // q + (j - j1) // q + 1
    if not ref_is_representation(z, w, q, p_len, r, len(z) - p_len - n - (r - 1) * q):
        raise InvariantViolation("enclosing exit word fails the predicate")
    return j1, j2


def ref_classify_occurrence(x, w, j, oracle) -> OccurrenceClassification:
    """``classify_occurrence``: its refusals, then the run that
    :func:`ref_classify_run` finds."""
    if x.alphabet != w.alphabet:
        raise AlphabetMismatch("words use different alphabets")
    n = len(w)
    if j < 1 or x.data[j - 1 : j - 1 + n] != w.data:
        raise PreconditionFailure(f"{w} does not occur at position {j}")
    q = minimal_step(w, oracle)
    if q is None:
        raise PreconditionFailure(f"{w} has no valid step")
    j1, j2 = ref_classify_run(x, w, q, j)
    if j1 == 1:
        return OccurrenceClassification(j, "suffix-of-power", r=ceil((j - 1) / q) + 1)
    z = x.sub(j1 - 1, j2 + n)
    p_len = (j - j1) % q + 1
    r = (j2 - j) // q + (j - j1) // q + 1
    rep = Representation(z.sub(1, p_len), r, z.sub(p_len + n + (r - 1) * q + 1, len(z)))
    return OccurrenceClassification(
        j,
        "inside-exit-word",
        exit_word=ExitWord(z, w, q, (rep,), canonical=True),
        exit_start=j1 - 1,
    )


def ref_overlap_per_start(x, w, q, oracle) -> OverlapReport:
    """``check_overlap_bound`` by walking the starts of ``w``: the first
    start past the last one on the grid of the run classified last is
    classified by :func:`ref_classify_run`, and the later starts on its grid
    inherit its exit word (none when the run starts at position 1, a skip
    when it starts later and reaches the end of the prefix)."""
    assert minimal_step(w, oracle) == q
    n = len(w)
    _, starts = occurrences(x, w)
    occ_exits = {}  # exit start -> (|z|, r)
    last, skip = 0, False
    skipped = []
    for j in starts:
        if j > last:
            try:
                j1, j2 = ref_classify_run(x, w, q, j)
            except HorizonExceeded:
                last, skip = j + (len(x.data) - j) // q * q, True
            else:
                last, skip = j + (j2 - j) // q * q, False
                if j1 > 1:
                    r = (j2 - j) // q + 1
                    occ_exits.setdefault(j1 - 1, (j2 + n - j1 + 2, r))
        if skip:
            skipped.append(j)
    ordered = sorted(occ_exits)
    pairs = []
    for i, i2 in zip(ordered, ordered[1:]):
        (z1_len, r1), (z2_len, r2) = occ_exits[i], occ_exits[i2]
        end = i2 + z2_len - 1
        count = bisect_right(starts, end - n + 1) - bisect_left(starts, i)
        gap_ok = i2 >= i + z1_len - n
        pairs.append(
            OverlapRecord(i, i2, z1_len, gap_ok, count, r1 + r2, count >= r1 + r2)
        )
    ok = all(p.gap_ok and p.count_ok for p in pairs)
    return OverlapReport(w, q, tuple(pairs), ok, tuple(skipped))
