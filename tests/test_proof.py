import hashlib

import pytest

import goldens
from actriv.ball import build_ball
from actriv.catalog import get_instance, known_trivializations
from actriv.notation import format_presentation
from actriv.presentations import (
    apply_move,
    canonical_form,
    multiply_move,
    trivial_presentation,
)
from actriv.proof import describe_move, verify


def step_pairs(proof):
    return [
        (s.move_text, format_presentation(s.presentation, sorted_relators=True))
        for s in proof.steps
    ]


class TestPublishedCertificates:
    @pytest.mark.parametrize(
        "name,start,steps",
        [
            ("T1", goldens.T1_START, goldens.T1_STEPS),
            ("T13", goldens.T13_START, goldens.T13_STEPS),
        ],
    )
    def test_golden_replay(self, golden_ball, name, start, steps):
        record = get_instance(name)
        assert format_presentation(record.presentation) == start
        proof = verify(
            record.presentation, known_trivializations()[name], golden_ball, name
        )
        assert proof.verified
        assert proof.prefix_length == len(steps) == record.known_length
        assert step_pairs(proof) == steps

    def test_ball_path_appended_and_sound(self, golden_ball):
        record = get_instance("T1")
        proof = verify(
            record.presentation, known_trivializations()["T1"], golden_ball, "T1"
        )
        assert proof.ball_steps
        final = proof.ball_steps[-1].presentation
        assert canonical_form(final) == canonical_form(trivial_presentation(2))

    def test_steps_replay_exactly(self, golden_ball):
        record = get_instance("T13")
        proof = verify(
            record.presentation, known_trivializations()["T13"], golden_ball, "T13"
        )
        current = record.presentation
        for step in proof.steps:
            current = apply_move(current, step.move)
            assert step.presentation == current
        for step in proof.ball_steps:
            current = apply_move(current, step.move)
            assert step.presentation == current

    def test_junk_tail_is_trimmed(self, golden_ball):
        record = get_instance("T1")
        junk = (multiply_move(0, 1), multiply_move(0, 1))
        sequence = known_trivializations()["T1"] + junk
        # construction check: the junk steps leave the ball again
        tail = apply_move(
            apply_move(
                get_final(record.presentation, known_trivializations()["T1"]),
                junk[0],
            ),
            junk[1],
        )
        proof = verify(record.presentation, sequence, golden_ball, "T1")
        assert proof.verified
        if tail not in golden_ball:
            assert proof.prefix_length == 6

    def test_listing_format(self, golden_ball):
        record = get_instance("T1")
        proof = verify(
            record.presentation, known_trivializations()["T1"], golden_ball, "T1"
        )
        text = proof.to_text()
        lines = text.splitlines()
        assert lines[0] == f"T1: {goldens.T1_START}"
        assert "--(b^2aBA)^A-->" in lines[1]
        assert "<a,b|B,aBA^2>" in lines[6]
        assert "entered the trivialization ball" in text
        assert text.endswith("reached the trivial class: verified")

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("T1", "dc4808a601bfe459f5c7c48189a605761444d07ce6a4d1b622e8759048b6421f"),
            ("T13", "04ca13a7a298933f5532117710c7ad59d1b5d2dd302032c71f083cfa01052438"),
        ],
    )
    def test_same_listing(self, golden_ball, name, digest):
        # the sha256 of the whole listing, ball steps included, as written
        # when ``lookup`` still searched for each canonical rotation by
        # equality
        proof = verify(
            get_instance(name).presentation,
            known_trivializations()[name],
            golden_ball,
            name,
        )
        assert hashlib.sha256(proof.to_text().encode()).hexdigest() == digest


def get_final(p, moves):
    for m in moves:
        p = apply_move(p, m)
    return p


class TestUnverified:
    def test_empty_sequence_tiny_ball(self):
        # cap 2, depth 1 keeps only the trivial class
        ball = build_ball(2, 2, 1)
        assert len(ball) == 1
        record = get_instance("T1")
        proof = verify(record.presentation, (), ball, "T1")
        assert not proof.verified
        assert proof.prefix_length is None
        assert "no prefix" in proof.failure
        assert "NOT verified" in proof.to_text()

    def test_wrong_rank(self):
        ball = build_ball(3, 4, 1)
        with pytest.raises(ValueError, match="rank 3 ball cannot check a rank 2"):
            verify(get_instance("T1").presentation, (), ball, "T1")

    def test_trivial_instance_verifies_immediately(self):
        ball = build_ball(2, 4, 2)
        proof = verify(trivial_presentation(2), (), ball, "trivial")
        assert proof.verified
        assert proof.prefix_length == 0
        assert proof.ball_steps == []


class TestDescribeMove:
    def test_matches_published_notation(self):
        p = get_instance("T1").presentation
        assert describe_move(p, (2, 1, 1)) == "(b^2aBA)^A"
        assert describe_move(p, (0, 0, 0)) == "(a^2bAB)^-1"
        assert describe_move(p, (1, 1, 0)) == "b^2aBA *= a^2bAB"
