"""The word kernel's order and canonical form before letter codes: a key
per letter, built again for every rotation; the canonical rotation found
by trying each rotation in turn; and the word speller before
its letter table, which names each run's letter afresh.  Differential
tests compare ``actriv.words`` and ``actriv.notation.format_word`` against
these."""

from actriv.notation import generator_name
from actriv.words import Word, invert_word, is_cyclically_reduced

Letter = int


def letter_key(letter: Letter) -> int:
    # a -> 0, A -> 1, b -> 2, B -> 3, ...
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def shortlex_key(w: Word) -> tuple:
    """Sort key realizing the shortlex order."""
    return (len(w), tuple(letter_key(x) for x in w))


def shortlex_cmp(u: Word, v: Word) -> int:
    """-1, 0 or +1 as u sorts before, equal to, or after v in shortlex."""
    ku, kv = shortlex_key(u), shortlex_key(v)
    if ku < kv:
        return -1
    if ku > kv:
        return 1
    return 0


def canonical_rep(w: Word) -> Word:
    """Shortlex-least freely reduced cyclic rotation of w or of its inverse.

    Rotations that are not freely reduced are excluded rather than reduced,
    so the result always has the same length as w.  For a word that is not
    cyclically reduced, every nontrivial rotation introduces a cancelling
    wrap-around pair, leaving only w and its inverse as candidates.
    """
    n = len(w)
    if n == 0:
        return w
    iw = invert_word(w)
    if not is_cyclically_reduced(w):
        return w if shortlex_cmp(w, iw) <= 0 else iw
    best = None
    best_key = None
    for cand in (w, iw):
        doubled = cand + cand
        for i in range(n):
            rot = doubled[i : i + n]
            key = tuple(letter_key(x) for x in rot)
            if best_key is None or key < best_key:
                best_key = key
                best = rot
    return best


def canonical_rotation(w: Word) -> tuple[Word, int]:
    """The first rotation of w, then of its inverse, that equals
    ``canonical_rep(w)``: that word and its left rotation."""
    rep = canonical_rep(w)
    for word in (w, invert_word(w)):
        for k in range(max(len(word), 1)):
            if word[k:] + word[:k] == rep:
                return word, k
    raise AssertionError(f"no rotation of {w} or of its inverse is {rep}")


def format_letter(letter: int, rank: int) -> str:
    name = generator_name(abs(letter) - 1, rank)
    return name if letter > 0 else name[0].upper() + name[1:]


def format_word(w: Word, rank: int) -> str:
    """Word with runs collapsed to exponents, e.g. (1,1,2,-1,-2) -> 'a^2bAB'."""
    if not w:
        return "1"
    parts = []
    run_letter, run_len = w[0], 1
    for x in w[1:]:
        if x == run_letter:
            run_len += 1
        else:
            parts.append((run_letter, run_len))
            run_letter, run_len = x, 1
    parts.append((run_letter, run_len))
    out = []
    for letter, count in parts:
        text = format_letter(letter, rank)
        out.append(text if count == 1 else f"{text}^{count}")
    return "".join(out)
