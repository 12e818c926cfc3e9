"""Free-group words over a finite generating set.

A word is a tuple of nonzero ints: letter ``+k`` is the k-th generator
(1-based), ``-k`` its inverse.  All public functions keep words freely
reduced, i.e. with no adjacent ``x, -x`` pair.  The empty tuple is the
identity.

The total order used everywhere is shortlex: shorter words first, equal
lengths compared letter-wise with generator index ascending and the
positive letter before its inverse (a < A < b < B < ...).
``letter_codes`` spells a word in integers of that letter order, so code
tuples of equal length compare in shortlex order.

``canonical_rotation`` is the one rule for a word's canonical form: it
names the rotation of the word, or of its inverse, that ``canonical_rep``
returns, so a certificate can spell the moves that reach that form.
"""

from __future__ import annotations

import operator

Word = tuple[int, ...]


def letter_codes(w: Word) -> tuple[int, ...]:
    """The letters of w as codes a -> 0, A -> 1, b -> 2, B -> 3, ...

    Code tuples of equal length compare in shortlex order.
    """
    return tuple([2 * x - 2 if x > 0 else -2 * x - 1 for x in w])


def free_reduce(raw) -> Word:
    """Freely reduce a letter sequence by cancelling adjacent inverse pairs.

    Total and idempotent; the result is independent of cancellation order.
    """
    out: list[int] = []
    for x in raw:
        if x == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(w: Word) -> Word:
    """Group inverse: reversed order, every sign flipped."""
    return tuple(map(operator.neg, reversed(w)))


def concat_reduce(u: Word, v: Word) -> Word:
    """Freely reduced product u*v of two already-reduced words.

    Only the junction can cancel, so this runs in O(cancelled) plus one
    tuple concatenation.
    """
    k = 0
    lu, lv = len(u), len(v)
    m = lu if lu < lv else lv
    while k < m and u[lu - 1 - k] == -v[k]:
        k += 1
    if k == 0:
        return u + v
    return u[: lu - k] + v[k:]


def shortlex_key(w: Word) -> tuple:
    """Sort key realizing the shortlex order."""
    return (len(w), letter_codes(w))


def shortlex_cmp(u: Word, v: Word) -> int:
    """-1, 0 or +1 as u sorts before, equal to, or after v in shortlex.
    Letters are compared only between words of equal length."""
    if len(u) != len(v):
        return -1 if len(u) < len(v) else 1
    cu, cv = letter_codes(u), letter_codes(v)
    return (cu > cv) - (cu < cv)


def is_cyclically_reduced(w: Word) -> bool:
    return len(w) < 2 or w[0] != -w[-1]


def canonical_rotation(w: Word) -> tuple[Word, int]:
    """The word (w itself or its inverse) and the left rotation k such that
    ``canonical_rep(w) == word[k:] + word[:k]``.

    The pair is the first in the order rotations of w, then rotations of
    its inverse, k ascending.  A word that is not cyclically reduced gives
    k = 0: each of its nontrivial rotations has a cancelling wrap-around
    pair.
    """
    n = len(w)
    if n == 0:
        return w, 0
    iw = invert_word(w)
    if not is_cyclically_reduced(w):
        return (w if letter_codes(w) <= letter_codes(iw) else iw), 0
    # the rotations of w, then of iw, as slices of their doubled codes
    rotations = []
    for word in (w, iw):
        codes = letter_codes(word) * 2
        rotations += [codes[i : i + n] for i in range(n)]
    k = min(range(2 * n), key=rotations.__getitem__)
    return (w, k) if k < n else (iw, k - n)


def canonical_rep(w: Word) -> Word:
    """Shortlex-least freely reduced cyclic rotation of w or of its inverse,
    as ``canonical_rotation`` picks it.

    Rotations that are not freely reduced are excluded rather than reduced,
    so the result always has the same length as w.
    """
    word, k = canonical_rotation(w)
    return word[k:] + word[:k]
