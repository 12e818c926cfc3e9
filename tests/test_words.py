import random

import pytest
from hypothesis import example, given, strategies as st

from actriv.presentations import CONJUGATE, apply_to_relators
from actriv.words import (
    canonical_rep,
    canonical_rotation,
    concat_reduce,
    free_reduce,
    invert_word,
    is_cyclically_reduced,
    shortlex_cmp,
    shortlex_key,
)
import reference_words

LETTERS = {"a": 1, "A": -1, "b": 2, "B": -2, "c": 3, "C": -3}


def W(text):
    return tuple(LETTERS[ch] for ch in text)


letters = st.sampled_from([1, -1, 2, -2, 3, -3])
raw_words = st.lists(letters, max_size=24).map(tuple)
words = raw_words.map(free_reduce)


def reference_reduce(raw, rng):
    """Cancel a randomly chosen adjacent inverse pair until none remain."""
    items = list(raw)
    while True:
        pairs = [i for i in range(len(items) - 1) if items[i] == -items[i + 1]]
        if not pairs:
            return tuple(items)
        i = rng.choice(pairs)
        del items[i : i + 2]


class TestFreeReduce:
    def test_cancellation(self):
        assert free_reduce(W("aA")) == ()

    def test_published_product(self):
        assert free_reduce(W("abbaBAAaabAB")) == W("ab")

    def test_already_reduced(self):
        assert free_reduce(W("aab")) == W("aab")

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            free_reduce((1, 0, 2))

    @given(raw_words)
    def test_idempotent_and_shorter(self, raw):
        reduced = free_reduce(raw)
        assert free_reduce(reduced) == reduced
        assert len(reduced) <= len(raw)
        assert (len(raw) - len(reduced)) % 2 == 0

    @given(raw_words, st.integers(0, 2**32))
    def test_confluence(self, raw, seed):
        rng = random.Random(seed)
        assert reference_reduce(raw, rng) == free_reduce(raw)


class TestInvert:
    def test_examples(self):
        assert invert_word(W("ab")) == W("BA")
        assert invert_word(()) == ()
        assert invert_word(W("aBA")) == W("abA")

    @given(words)
    def test_involution(self, w):
        assert invert_word(invert_word(w)) == w

    @given(words, words)
    def test_anti_homomorphism(self, u, v):
        assert invert_word(concat_reduce(u, v)) == concat_reduce(
            invert_word(v), invert_word(u)
        )


class TestConcat:
    def test_published_multiplication(self):
        assert concat_reduce(W("abbaBAA"), W("aabAB")) == W("ab")

    def test_full_cancellation(self):
        assert concat_reduce(W("a"), W("A")) == ()

    def test_no_cancellation(self):
        assert concat_reduce(W("ab"), W("ba")) == W("abba")

    @given(words, words)
    def test_matches_free_reduce(self, u, v):
        out = concat_reduce(u, v)
        assert out == free_reduce(u + v)
        assert len(out) <= len(u) + len(v)

    @given(words, words, words)
    def test_associative_up_to_reduction(self, u, v, w):
        assert concat_reduce(concat_reduce(u, v), w) == concat_reduce(
            u, concat_reduce(v, w)
        )


class TestConjugate:
    @given(words, letters)
    def test_matches_definition(self, w, c):
        rels = [w]
        delta = apply_to_relators(rels, (CONJUGATE, 0, c))
        assert rels[0] == free_reduce((c,) + w + (-c,))
        assert delta == len(rels[0]) - len(w)


class TestShortlex:
    def test_length_dominates(self):
        assert shortlex_cmp(W("b"), W("aa")) == -1

    def test_positive_before_negative(self):
        assert shortlex_cmp(W("ab"), W("aB")) == -1

    def test_equal(self):
        assert shortlex_cmp(W("a"), W("a")) == 0

    def test_alphabet_order(self):
        ordering = sorted([W("A"), W("b"), W("a"), W("B")], key=shortlex_key)
        assert ordering == [W("a"), W("A"), W("b"), W("B")]

    @given(words, words)
    def test_antisymmetric(self, u, v):
        assert shortlex_cmp(u, v) == -shortlex_cmp(v, u)
        if shortlex_cmp(u, v) == 0:
            assert u == v

    @given(words, words, words)
    def test_transitive(self, u, v, w):
        if shortlex_cmp(u, v) <= 0 and shortlex_cmp(v, w) <= 0:
            assert shortlex_cmp(u, w) <= 0


class TestCanonicalRep:
    def test_rotation(self):
        assert canonical_rep(W("ba")) == W("ab")

    def test_inverse_wins(self):
        # reduced rotations of aBAA are {aBAA}; of its inverse, {aabA}
        assert canonical_rep(W("aBAA")) == W("aabA")

    def test_empty(self):
        assert canonical_rep(()) == ()

    @given(words)
    def test_idempotent_and_length_preserving(self, w):
        rep = canonical_rep(w)
        assert len(rep) == len(w)
        assert canonical_rep(rep) == rep
        assert free_reduce(rep) == rep

    @given(words)
    def test_inversion_invariant(self, w):
        assert canonical_rep(invert_word(w)) == canonical_rep(w)

    @given(words, st.integers(0, 23))
    def test_rotation_invariant(self, w, k):
        if not w:
            return
        k %= len(w)
        rot = w[k:] + w[:k]
        if free_reduce(rot) == rot:
            assert canonical_rep(rot) == canonical_rep(w)

    @given(words)
    def test_least_among_candidates(self, w):
        rep = canonical_rep(w)
        candidates = []
        for base in (w, invert_word(w)):
            for k in range(max(len(w), 1)):
                rot = base[k:] + base[:k]
                if free_reduce(rot) == rot:
                    candidates.append(rot)
        assert rep in candidates
        assert all(shortlex_cmp(rep, cand) <= 0 for cand in candidates)

    def test_cyclically_reduced_detection(self):
        assert is_cyclically_reduced(W("ab"))
        assert not is_cyclically_reduced(W("Aba"))


@st.composite
def ranked_words(draw):
    """A freely reduced word of rank 1-3 and length 0-20; half of them are
    conjugated by a letter, so many are not cyclically reduced."""
    rank = draw(st.integers(1, 3))
    alphabet = st.sampled_from([x for g in range(1, rank + 1) for x in (g, -g)])
    w = free_reduce(draw(st.lists(alphabet, max_size=18)))
    if draw(st.booleans()):
        c = draw(alphabet)
        w = free_reduce((c,) + w + (-c,))
    return w


@st.composite
def rotation_words(draw):
    """A freely reduced word of rank 1, 2, 3 or 27: a plain word of length
    0-8, a power of one (periodic, like abab), or a conjugate of one (not
    cyclically reduced)."""
    rank = draw(st.sampled_from([1, 2, 3, 27]))
    alphabet = st.sampled_from([x for g in range(1, rank + 1) for x in (g, -g)])
    w = free_reduce(draw(st.lists(alphabet, max_size=8)))
    kind = draw(st.sampled_from(["plain", "periodic", "conjugated"]))
    if kind == "periodic":
        w = free_reduce(w * draw(st.integers(2, 4)))
    elif kind == "conjugated":
        c = draw(alphabet)
        w = free_reduce((c,) + w + (-c,))
    return w


def all_reduced_words(rank, max_length):
    alphabet = [x for g in range(1, rank + 1) for x in (g, -g)]
    level = [()]
    for _ in range(max_length + 1):
        yield from level
        level = [w + (x,) for w in level for x in alphabet if not w or w[-1] != -x]


class TestAgainstReference:
    """The letter-code kernel against the per-letter-key kernel it replaced."""

    @given(ranked_words())
    def test_canonical_rep(self, w):
        assert canonical_rep(w) == reference_words.canonical_rep(w)

    @given(rotation_words())
    @example(())
    @example((27,))
    @example(W("A"))
    @example(W("abab"))
    @example(W("BAbA"))
    @example(W("Aba"))
    def test_canonical_rotation(self, w):
        assert canonical_rotation(w) == reference_words.canonical_rotation(w)

    @given(st.lists(ranked_words(), max_size=12))
    def test_sort_order(self, ws):
        assert sorted(ws, key=shortlex_key) == sorted(
            ws, key=reference_words.shortlex_key
        )

    def test_every_short_word(self):
        ws = list(all_reduced_words(2, 6))
        assert sum(not is_cyclically_reduced(w) for w in ws) > 100
        for w in ws:
            assert canonical_rep(w) == reference_words.canonical_rep(w)
            assert canonical_rotation(w) == reference_words.canonical_rotation(w)
        rng = random.Random(12)
        rng.shuffle(ws)
        assert sorted(ws, key=shortlex_key) == sorted(
            ws, key=reference_words.shortlex_key
        )
