"""Certificate verification and human-readable proof listings.

``verify`` replays a claimed trivializing sequence, trims it at the last
point where the trace sits inside the trivialization ball (a certificate
may carry junk moves past that point), appends the ball's own path to the
trivial class, and re-checks that the whole concatenation really ends in
the trivial class.  Note the asymmetry with the online solver: search
success is scored at the *shortest* in-ball prefix, while a verifier
honors the *longest* one, since published certificates describe the full
route into known territory; a ball of another rank is an input error.

Listings follow the arrow style of the published example proofs, with
relators shown in sorted (C1) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ball import Ball, lookup
from .notation import (
    MAX_WORD_LENGTH as REPLAY_LENGTH_CAP,
    format_letter,
    format_presentation,
    format_word,
)
from .presentations import (
    CONJUGATE,
    INVERT,
    AcMove,
    MoveSequence,
    Presentation,
    apply_move,
    canonical_form,
    total_length,
    trivial_presentation,
)


@dataclass
class ProofStep:
    move: AcMove
    move_text: str
    presentation: Presentation


@dataclass
class Proof:
    instance_id: str
    start: Presentation
    steps: list[ProofStep] = field(default_factory=list)
    ball_steps: list[ProofStep] = field(default_factory=list)
    prefix_length: int | None = None
    ball_depth: int | None = None
    verified: bool = False
    failure: str | None = None

    def to_text(self) -> str:
        lines = [f"{self.instance_id}: {_display(self.start)}"]
        current = _display(self.start)
        for step in self.steps:
            shown = _display(step.presentation)
            lines.append(f"  {current} --{step.move_text}--> {shown}")
            current = shown
        if self.prefix_length is not None:
            lines.append(
                f"entered the trivialization ball (depth {self.ball_depth}) "
                f"after {self.prefix_length} moves"
            )
            for step in self.ball_steps:
                shown = _display(step.presentation)
                lines.append(f"  {current} --{step.move_text}--> {shown}")
                current = shown
        if self.verified:
            lines.append("reached the trivial class: verified")
        else:
            lines.append(f"NOT verified: {self.failure}")
        return "\n".join(lines)


def _display(p: Presentation) -> str:
    return format_presentation(p, sorted_relators=True)


def describe_move(p: Presentation, m: AcMove) -> str:
    """Move notation in the style of the published proofs: conjugation is
    written with the exponent letter e, meaning r -> e^-1 r e."""
    kind, i, x = m
    rank = p.rank
    if kind == INVERT:
        return f"({format_word(p.relators[i], rank)})^-1"
    if kind == CONJUGATE:
        return f"({format_word(p.relators[i], rank)})^{format_letter(-x, rank)}"
    return f"{format_word(p.relators[i], rank)} *= {format_word(p.relators[x], rank)}"


def _replay(start: Presentation, moves) -> tuple[list[ProofStep], Presentation, str | None]:
    steps = []
    current = start
    for m in moves:
        text = describe_move(current, m)
        current = apply_move(current, m)
        steps.append(ProofStep(m, text, current))
        if total_length(current) >= REPLAY_LENGTH_CAP:
            return steps, current, (
                f"replay exceeded total relator length {REPLAY_LENGTH_CAP}"
            )
    return steps, current, None


def verify(
    instance: Presentation,
    sequence: MoveSequence,
    ball: Ball,
    instance_id: str = "?",
) -> Proof:
    ball.check_rank(instance.rank)
    proof = Proof(instance_id=instance_id, start=instance)
    proof.steps, _, proof.failure = _replay(instance, sequence)
    if proof.failure is not None:
        return proof
    trace = [instance] + [s.presentation for s in proof.steps]
    # the longest prefix whose end lies in the ball
    prefix = next((k for k in reversed(range(len(trace))) if trace[k] in ball), None)
    if prefix is None:
        proof.failure = (
            f"no prefix of the {len(sequence)}-move sequence reaches the ball"
        )
        return proof
    del proof.steps[prefix:]
    proof.prefix_length = prefix
    proof.ball_depth, path = lookup(ball, trace[prefix])
    proof.ball_steps, final, proof.failure = _replay(trace[prefix], path)
    if proof.failure is not None:
        return proof
    if canonical_form(final) != canonical_form(trivial_presentation(instance.rank)):
        proof.failure = "ball path replay did not end in the trivial class"
        return proof
    proof.verified = True
    return proof
