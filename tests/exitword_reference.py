"""Letter-by-letter references for exit-word layouts: the periodic
extension one letter at a time, the power it repeats, and the predicate
that a prefix length, repetition count and suffix length lay out an exit
word.  ``exitwords.decompose`` and ``exitwords.enumerate_exit_words`` are
checked against them."""

from __future__ import annotations

from shiftlab.errors import InvalidStep
from shiftlab.words import Word, shift_match


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
