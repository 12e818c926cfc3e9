"""Mutation-only variation of move sequences.

Both evolutionary stages (offline metric learning and online search) vary
candidates with the same three operators: insert a random move at a random
slot, replace a random move, or delete a random move.  Insertion and
deletion are equally likely, so expected sequence length drift is zero.
There is no crossover.
"""

from __future__ import annotations

import random

from .presentations import MoveSequence, enumerate_moves


def random_sequence(rank: int, length: int, rng: random.Random) -> MoveSequence:
    moves = enumerate_moves(rank)
    return tuple(rng.choice(moves) for _ in range(length))


def mutate(
    s: MoveSequence,
    rank: int,
    rng: random.Random,
    p_insert: float = 0.1,
    p_replace: float = 0.8,
    p_delete: float = 0.1,
) -> MoveSequence:
    """One random edit.  Replacement and deletion of an empty sequence are
    no-ops (such candidates are length-penalized anyway)."""
    total = p_insert + p_replace + p_delete
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"operator probabilities sum to {total}, expected 1")
    roll = rng.random()
    moves = enumerate_moves(rank)
    if roll < p_insert:
        pos = rng.randrange(len(s) + 1)
        return s[:pos] + (rng.choice(moves),) + s[pos:]
    if roll < p_insert + p_replace:
        if not s:
            return s
        pos = rng.randrange(len(s))
        return s[:pos] + (rng.choice(moves),) + s[pos + 1 :]
    if not s:
        return s
    pos = rng.randrange(len(s))
    return s[:pos] + s[pos + 1 :]
