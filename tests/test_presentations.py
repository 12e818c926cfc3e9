import random

import pytest
from hypothesis import given, strategies as st

from actriv.catalog import get_instance
from actriv.notation import parse_presentation
from actriv.presentations import (
    CONJUGATE,
    INVERT,
    MULTIPLY,
    apply_move,
    apply_to_relators,
    canonical_form,
    conjugate_move,
    enumerate_moves,
    inverse_moves,
    invert_move,
    make_presentation,
    multiply_move,
    total_length,
    trivial_presentation,
)
from actriv.words import free_reduce, shortlex_key
from reference_moves import reference_apply, total


def P(text):
    return parse_presentation(text)


class TestTrivial:
    def test_rank2(self):
        assert trivial_presentation(2) == P("<a,b|a,b>")

    def test_rank1_and_3(self):
        assert trivial_presentation(1) == P("<a|a>")
        assert trivial_presentation(3) == P("<a,b,c|a,b,c>")

    def test_rank0_rejected(self):
        with pytest.raises(ValueError):
            trivial_presentation(0)


class TestEnumerateMoves:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_census(self, rank):
        moves = enumerate_moves(rank)
        assert len(moves) == 3 * rank * rank
        assert len(set(moves)) == len(moves)
        assert sum(1 for m in moves if m[0] == INVERT) == rank
        assert sum(1 for m in moves if m[0] == MULTIPLY) == rank * (rank - 1)
        assert sum(1 for m in moves if m[0] == CONJUGATE) == 2 * rank * rank

    def test_rank2_branching_factor(self):
        assert len(enumerate_moves(2)) == 12

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            enumerate_moves(0)

    def test_one_table_per_rank(self):
        assert type(enumerate_moves(3)) is tuple
        assert enumerate_moves(3) is enumerate_moves(3)


class TestApplyMove:
    def test_published_conjugation(self):
        p = P("<a,b|a^2bAB,b^2aBA>")
        out = apply_move(p, conjugate_move(1, 1))
        assert out == P("<a,b|a^2bAB,ab^2aBA^2>")

    def test_published_inversion(self):
        p = P("<a,b|a^2bA,b>")
        assert apply_move(p, invert_move(0)) == P("<a,b|aBA^2,b>")

    def test_published_multiplication(self):
        p = P("<a,b|ab^2aBA^2,a^2bAB>")
        assert apply_move(p, multiply_move(0, 1)) == P("<a,b|ab,a^2bAB>")

    def test_only_target_changes(self):
        p = P("<a,b|ab,ba>")
        out = apply_move(p, invert_move(1))
        assert out.relators[0] == p.relators[0]

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            apply_move(trivial_presentation(2), invert_move(2))
        with pytest.raises(ValueError):
            apply_move(trivial_presentation(2), (MULTIPLY, 0, 0))
        with pytest.raises(ValueError):
            apply_move(trivial_presentation(2), (CONJUGATE, 0, 3))


@st.composite
def relator_lists(draw):
    rank = draw(st.sampled_from([2, 3]))
    letters = st.sampled_from([s * g for g in range(1, rank + 1) for s in (1, -1)])
    return [free_reduce(draw(st.lists(letters, max_size=16))) for _ in range(rank)]


class TestApplyToRelators:
    @given(relator_lists())
    def test_matches_reference_for_every_move(self, rels):
        for m in enumerate_moves(len(rels)):
            out = list(rels)
            delta = apply_to_relators(out, m)
            expected = reference_apply(rels, m)
            assert tuple(out) == expected
            assert delta == total(expected) - total(rels)


def random_presentation(rng, rank=2, max_len=8):
    relators = []
    for _ in range(rank):
        raw = [
            rng.choice([1, -1, 2, -2][: 2 * rank])
            for _ in range(rng.randrange(1, max_len))
        ]
        relators.append(free_reduce(raw))
    return make_presentation(rank, relators)


class TestMoveInverses:
    def test_self_inverse_and_composites(self):
        rng = random.Random(11)
        for _ in range(60):
            p = random_presentation(rng)
            for m in enumerate_moves(2):
                q = apply_move(p, m)
                for inv in inverse_moves(m):
                    q = apply_move(q, inv)
                if m[0] == MULTIPLY:
                    # the 3-move composite restores the target relator
                    assert q.relators[m[1]] == p.relators[m[1]]
                else:
                    assert q == p


class TestTotalLength:
    def test_akbulut_kirby(self):
        assert total_length(get_instance("AK3").presentation) == 13

    def test_trivial(self):
        assert total_length(trivial_presentation(2)) == 2

    def test_t1(self):
        assert total_length(get_instance("T1").presentation) == 10


class TestCanonicalForm:
    def test_sorts_relators(self):
        assert canonical_form(P("<a,b|b,a>")) == P("<a,b|a,b>")

    def test_canonicalizes_then_sorts(self):
        assert canonical_form(P("<a,b|aBA^2,b>")) == P("<a,b|b,aabA>")

    def test_trivial_fixed_point(self):
        t = trivial_presentation(2)
        assert canonical_form(t) == t

    def test_idempotent_and_length_preserving(self):
        rng = random.Random(3)
        for _ in range(50):
            p = random_presentation(rng)
            c = canonical_form(p)
            assert canonical_form(c) == c
            assert total_length(c) == total_length(p)
            assert list(c.relators) == sorted(c.relators, key=shortlex_key)

    def test_class_invariance_under_rotation(self):
        p = P("<a,b|ab,ba>")
        q = P("<a,b|ba,ab>")
        assert canonical_form(p) == canonical_form(q)


class TestMakePresentation:
    def test_reduces_relators(self):
        p = make_presentation(2, [(1, -1, 2), (2,)])
        assert p.relators == ((2,), (2,))

    def test_unbalanced(self):
        with pytest.raises(ValueError):
            make_presentation(2, [(1,)])

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            make_presentation(2, [(3,), (1,)])
