"""Letter-by-letter references for exit-word layouts: the periodic
extension one letter at a time, the power it repeats, and the predicate
that a prefix length, repetition count and suffix length lay out an exit
word.  ``exitwords.decompose`` and ``exitwords.enumerate_exit_words`` are
checked against them.  ``ref_overlap_per_start`` is the per-start
overlap scan that ``exitwords.check_overlap_bound`` is checked against."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from shiftlab.errors import HorizonExceeded
from shiftlab.exitwords import OverlapRecord, OverlapReport, _classify_run
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


def ref_overlap_per_start(x, w, q, oracle) -> OverlapReport:
    """``check_overlap_bound`` by walking the starts of ``w``: the first
    start past the last one on the grid of the run classified last is
    classified by ``_classify_run``, and the later starts on its grid
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
                j1, j2 = _classify_run(x, w, q, j)
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
