"""Balanced presentations and the moves that rewrite their relators.

A presentation of rank n holds exactly n relators (balanced by
construction).  The move set on rank-n presentations has size 3n²:

* ``invert_move(i)``        -- relator i is replaced by its inverse,
* ``multiply_move(i, j)``   -- relator i becomes r_i * r_j (i != j),
* ``conjugate_move(i, c)``  -- relator i becomes c * r_i * c^-1 for a
  signed generator letter c (2n choices of c).

Moves are plain tuples ``(kind, i, x)`` so that long sequences of them are
cheap to store, hash and mutate.  Relator indices always refer to positions
in the working presentation; nothing is re-sorted behind the caller's back.
``canonical_form`` is the equality/hashing normal form: each relator is
replaced by its canonical representative and the relators are then sorted
in shortlex order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .words import (
    Word,
    canonical_rep,
    concat_reduce,
    free_reduce,
    invert_word,
    shortlex_key,
)

INVERT = 0
MULTIPLY = 1
CONJUGATE = 2

AcMove = tuple[int, int, int]
MoveSequence = tuple[AcMove, ...]


class Presentation(NamedTuple):
    rank: int
    relators: tuple[Word, ...]


def make_presentation(rank: int, relators) -> Presentation:
    """Validated, freely reduced presentation from raw letter sequences."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rels = tuple(free_reduce(r) for r in relators)
    if len(rels) != rank:
        raise ValueError(f"unbalanced: rank {rank} but {len(rels)} relators")
    for r in rels:
        for x in r:
            if not 1 <= abs(x) <= rank:
                raise ValueError(f"letter {x} out of range for rank {rank}")
    return Presentation(rank, rels)


def trivial_presentation(rank: int) -> Presentation:
    """<g1,...,gn | g1,...,gn>."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return Presentation(rank, tuple((i,) for i in range(1, rank + 1)))


def total_length(p: Presentation) -> int:
    return sum(len(r) for r in p.relators)


def invert_move(i: int) -> AcMove:
    return (INVERT, i, 0)


def multiply_move(i: int, j: int) -> AcMove:
    if i == j:
        raise ValueError("multiply needs two distinct relators")
    return (MULTIPLY, i, j)


def conjugate_move(i: int, c: int) -> AcMove:
    if c == 0:
        raise ValueError("conjugator letter must be nonzero")
    return (CONJUGATE, i, c)


def check_move(m: AcMove, rank: int) -> None:
    """Raise ValueError unless m is a valid move for the given rank."""
    kind, i, x = m
    if not 0 <= i < rank:
        raise ValueError(f"relator index {i} out of range for rank {rank}")
    if kind == INVERT:
        return
    if kind == MULTIPLY:
        if not 0 <= x < rank:
            raise ValueError(f"relator index {x} out of range for rank {rank}")
        if x == i:
            raise ValueError("multiply needs two distinct relators")
        return
    if kind == CONJUGATE:
        if not 1 <= abs(x) <= rank:
            raise ValueError(f"conjugator {x} out of range for rank {rank}")
        return
    raise ValueError(f"unknown move kind {kind}")


@lru_cache(maxsize=None)
def enumerate_moves(rank: int) -> tuple[AcMove, ...]:
    """All 3n² moves of a rank-n presentation, in a fixed deterministic
    order; one cached tuple per rank."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    moves = [(INVERT, i, 0) for i in range(rank)]
    moves.extend((MULTIPLY, i, j) for i in range(rank) for j in range(rank) if i != j)
    moves.extend(
        (CONJUGATE, i, s * g)
        for i in range(rank)
        for g in range(1, rank + 1)
        for s in (1, -1)
    )
    return tuple(moves)


def inverse_moves(m: AcMove) -> list[AcMove]:
    """Move sequence undoing m: AC1/AC3 are self-inverse (with the opposite
    conjugation orientation), AC2 is undone by the 3-move composite
    invert(j); multiply(i,j); invert(j)."""
    kind, i, x = m
    if kind == INVERT:
        return [m]
    if kind == CONJUGATE:
        return [(CONJUGATE, i, -x)]
    return [(INVERT, x, 0), (MULTIPLY, i, x), (INVERT, x, 0)]


def apply_to_relators(rels: list[Word], m: AcMove) -> int:
    """Apply m in place to the relator list rels; return the change in
    total relator length.  The move is not validated (see check_move).

    This is the one place that rewrites a relator by move kind; every
    caller, hot loops included, goes through it.
    """
    kind, i, x = m
    w = rels[i]
    if kind == CONJUGATE:
        # freely reduced x * w * x^-1, written out here because
        # conjugations are 2n² of the 3n² moves
        if w and w[0] == -x:
            u = w[1:]
        else:
            u = (x,) + w
        new = u[:-1] if (u and u[-1] == x) else u + (-x,)
    elif kind == INVERT:
        rels[i] = invert_word(w)
        return 0
    else:
        new = concat_reduce(w, rels[x])
    rels[i] = new
    return len(new) - len(w)


def apply_move(p: Presentation, m: AcMove) -> Presentation:
    """Apply one move, replacing exactly one relator."""
    check_move(m, p.rank)
    rels = list(p.relators)
    apply_to_relators(rels, m)
    return Presentation(p.rank, tuple(rels))


def canonical_form(p: Presentation) -> Presentation:
    """C1/C2 normal form: canonical representative per relator, then sorted."""
    return Presentation(p.rank, canonical_relators(p.relators))


def canonical_relators(relators) -> tuple[Word, ...]:
    return tuple(sorted((canonical_rep(r) for r in relators), key=shortlex_key))
