"""The trivialization ball: BFS from the trivial presentation.

States are canonical forms (C1/C2 classes).  From each class the 3n² moves
are applied to its canonical representative; children are deduplicated by
canonical form, so depths are exact shortest-path lengths in that class
graph and independent of traversal order.  A child whose total relator
length exceeds ``max_total_length`` is discarded; one that reaches it
exactly is recorded but never expanded.  An inversion, and a conjugation
that cancels exactly one end letter, keep a canonical relator's class.
``_child`` reads that, and the length change of every conjugation, off
the relator's end letters, so neither such a move nor a conjugation past
the cap builds a word.  ``load_ball`` rebuilds every member from its
parent and move with the same BFS step, ``_child``.
A build or a load canonicalizes each distinct relator once, and its keys
share one interned tuple per canonical word; ``save_ball`` and
``load_ball`` spell each distinct relator once.

A member stores only its parent's key, in BFS order.  The move from the
parent sits in one array of move indices, and the depth census says where
each depth starts, so a member's depth follows from its position or from
its parent hops.  ``records`` yields ``(key, depth, parent, move)`` from
these, and ``save_ball`` writes them; a ball file is in BFS order.

Membership of a presentation is membership of its canonical class, as
``Ball.key_of`` answers it.  ``lookup`` also rebuilds a move path to the
trivial class.  It takes each move as the first one that ``_child`` finds
from the parent to the member, which is the move the BFS recorded.
Because parent links connect canonical representatives, the replay path
interleaves inverse moves with alignment moves and is therefore usually
longer than the BFS depth.  An alignment carries a relator to its
canonical form by the rotation that ``words.canonical_rotation`` names,
the one ``canonical_rep`` takes: an inversion if it picks the inverse,
then one conjugation per letter rotated.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import Iterator, NamedTuple

from . import formats, notation
from .presentations import (
    CONJUGATE,
    INVERT,
    MULTIPLY,
    AcMove,
    MoveSequence,
    Presentation,
    apply_to_relators,
    canonical_relators,
    enumerate_moves,
    inverse_moves,
    trivial_presentation,
)
from .words import Word, canonical_rep, canonical_rotation, shortlex_cmp

BallKey = tuple[Word, ...]


class FitnessCase(NamedTuple):
    presentation: Presentation
    distance: int


@dataclass
class TrainingSet:
    rank: int
    cases: list[FitnessCase]

    def distances(self) -> list[int]:
        return [case.distance for case in self.cases]


@dataclass
class Ball:
    rank: int
    max_total_length: int
    max_depth: int
    # canonical relators -> parent canonical relators (None for the root),
    # in BFS order
    members: dict[BallKey, BallKey | None] = field(default_factory=dict)
    # per member, in ``members`` order: the index in enumerate_moves(rank) of
    # the move from its parent; 0 for the root
    moves: array = field(default_factory=lambda: array("H"))
    # members per depth; depth never falls along ``members``
    census: list[int] = field(default_factory=list)

    def _add(
        self, key: BallKey, parent: BallKey | None, move: int, depth: int
    ) -> None:
        """Append a member at ``depth``, which is the last depth or one more."""
        self.members[key] = parent
        self.moves.append(move)
        if depth == len(self.census):
            self.census.append(0)
        self.census[depth] += 1

    def __len__(self) -> int:
        return len(self.members)

    def key_of(self, p: Presentation) -> BallKey | None:
        key = canonical_relators(p.relators)
        return key if key in self.members else None

    def check_rank(self, rank: int) -> None:
        if rank != self.rank:
            raise ValueError(
                f"a rank {self.rank} ball cannot check a rank {rank} instance"
            )

    def depth(self, key: BallKey) -> int:
        """The member's depth: its parent hops to the root."""
        hops = 0
        while (key := self.members[key]) is not None:
            hops += 1
        return hops

    def __contains__(self, p: Presentation) -> bool:
        return self.key_of(p) is not None

    def depth_census(self) -> dict[int, int]:
        return dict(enumerate(self.census))

    def records(self) -> Iterator[tuple[BallKey, int, BallKey | None, AcMove | None]]:
        """``(key, depth, parent, move from parent)`` per member, in BFS
        order; the root's parent and move are None."""
        moves = enumerate_moves(self.rank)
        depths = chain.from_iterable(repeat(d, n) for d, n in enumerate(self.census))
        for (key, parent), depth, move in zip(
            self.members.items(), depths, self.moves, strict=True
        ):
            yield key, depth, parent, None if parent is None else moves[move]


class BallPathError(RuntimeError):
    """Raised by ``lookup`` when the ball's parent links do not form a path
    back to the trivial class, i.e. the ball is corrupt."""


class BallCapacityError(RuntimeError):
    """Raised when the member cap is hit."""

    def __init__(self, ball: Ball, max_members: int):
        super().__init__(
            f"ball exceeded {max_members} members "
            f"(rank {ball.rank}, cap {ball.max_total_length}, "
            f"depth {ball.max_depth})"
        )


def _root(rank: int) -> tuple[BallKey, dict[Word, Word]]:
    """The key of the trivial class, and a fresh memo for ``_child``.  The
    memo maps each relator word met so far to its interned canonical
    representative; it starts with the root's relators, which are canonical."""
    root = canonical_relators(trivial_presentation(rank).relators)
    return root, dict(zip(root, root))


def _child(
    key: BallKey, move: AcMove, room: int, canon: dict[Word, Word]
) -> tuple[BallKey | None, int]:
    """The BFS step: the key of the class ``move`` takes ``key`` to, and the
    change in total relator length.  The key is None when that change
    exceeds ``room``, so a child past the length cap is never canonicalized.
    ``key`` must be canonical, as every caller's is.

    An inversion or a conjugation is answered from ``key`` alone, before
    any word is built.  An inverted canonical relator has the same
    canonical form, so the child is ``key``.  Conjugating ``w`` by ``x``
    puts ``x`` before ``w`` and ``x^-1`` after it, and each cancels only
    against the end letter it meets, so ``w[0]`` and ``w[-1]`` give the
    change of -2, 0 or +2 (an empty relator stays empty).  A change of 0
    cancels exactly one end, which rotates a cyclically reduced ``w``, so
    the child is ``key`` again.  Only a multiplication, or a conjugation
    that shortens or lengthens ``w`` within ``room``, builds the new word.

    Through the memo ``canon`` (see ``_root``) each distinct relator is
    canonicalized once, and keys share one tuple per canonical word.  The
    other relators of ``key`` are already in shortlex order, so the changed
    one is put in its place among them."""
    kind, i, x = move
    if kind != MULTIPLY:
        w = key[i]
        if kind == INVERT or not w:
            delta = 0
        else:
            delta = 2 - 2 * ((w[0] == -x) + (w[-1] == x))
        if delta > room:
            return None, delta
        if delta == 0:
            return key, 0
    rels = list(key)
    delta = apply_to_relators(rels, move)
    if delta > room:
        return None, delta
    w = rels.pop(i)
    rep = canon.get(w)
    if rep is None:
        rep = canonical_rep(w)
        rep = canon[w] = canon.setdefault(rep, rep)
    place = 0
    for other in rels:
        if shortlex_cmp(other, rep) >= 0:
            break
        place += 1
    rels.insert(place, rep)
    return tuple(rels), delta


def _check_limits(rank: int, max_total_length: int, max_depth: int) -> None:
    """The ball's limits, as ``build_ball`` takes them and a ball file's
    header declares them: the trivial presentation, of total length
    ``rank``, must fit the length cap."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if max_total_length < 1:
        raise ValueError("max_total_length must be >= 1")
    if max_total_length < rank:
        raise ValueError(
            f"max_total_length {max_total_length} is below the trivial "
            f"presentation's total length {rank}"
        )
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")


def build_ball(
    rank: int,
    max_total_length: int,
    max_depth: int,
    max_members: int | None = None,
) -> Ball:
    """Breadth-first enumeration of canonical classes around the trivial one."""
    _check_limits(rank, max_total_length, max_depth)
    if max_members is not None and max_members < 1:
        raise ValueError("max_members must be >= 1")
    moves = enumerate_moves(rank)
    root, canon = _root(rank)
    ball = Ball(rank, max_total_length, max_depth)
    ball._add(root, None, 0, 0)
    root_total = sum(len(r) for r in root)
    queue: deque[tuple[BallKey, int, int]] = deque()
    if root_total < max_total_length:
        queue.append((root, 0, root_total))
    while queue:
        key, depth, total = queue.popleft()
        child_depth = depth + 1
        room = max_total_length - total
        for index, m in enumerate(moves):
            child, delta = _child(key, m, room, canon)
            if child is None or child in ball.members:
                continue
            ball._add(child, key, index, child_depth)
            if max_members is not None and len(ball.members) > max_members:
                raise BallCapacityError(ball, max_members)
            if child_depth < max_depth and delta < room:
                queue.append((child, child_depth, total + delta))
    return ball


# ---------------------------------------------------------------------------
# sampling


def sample_cases(ball: Ball, count: int, rng_seed: int) -> TrainingSet:
    """Depth-stratified sample without replacement.

    Slots are dealt one per stratum in ascending depth order, skipping
    exhausted strata, until ``count`` members are allocated; members within
    a stratum are then drawn uniformly.  Any ``count >= number of strata``
    therefore touches every depth present in the ball.
    """
    import random

    if count < 1:
        raise ValueError("count must be >= 1")
    if count > len(ball.members):
        raise ValueError(
            f"count {count} is more than the ball's {len(ball.members)} members"
        )
    # each depth's members are a consecutive run of ``members``
    members = iter(ball.members)
    strata = {d: list(islice(members, n)) for d, n in enumerate(ball.census) if n}
    depths = sorted(strata)
    quotas = {d: 0 for d in depths}
    remaining = count
    while remaining:
        for d in depths:
            if remaining and quotas[d] < len(strata[d]):
                quotas[d] += 1
                remaining -= 1
    rng = random.Random(rng_seed)
    cases: list[FitnessCase] = []
    for d in depths:
        for key in rng.sample(strata[d], quotas[d]):
            cases.append(FitnessCase(Presentation(ball.rank, key), d))
    return TrainingSet(ball.rank, cases)


# ---------------------------------------------------------------------------
# path reconstruction


def _moves_to_canonical(w: Word, i: int) -> list[AcMove]:
    """Moves at relator i carrying w to canonical_rep(w): an inversion if
    ``canonical_rotation`` picks w's inverse, then one conjugation per
    letter of its left rotation.  Conjugating a cyclically reduced word by
    the inverse of its first letter rotates it left by one."""
    word, k = canonical_rotation(w)
    moves = [] if word == w else [(INVERT, i, 0)]
    return moves + [(CONJUGATE, i, -word[j]) for j in range(k)]


def _align(current: list[Word], target: BallKey, path: list[AcMove]) -> list[int]:
    """Rotate/invert relators of ``current`` in place until they equal the
    relators of ``target`` as a multiset; returns perm with
    current[perm[j]] == target[j].  Appends the moves used to ``path``."""
    n = len(target)
    cur_canon = [canonical_rep(w) for w in current]
    tgt_canon = [canonical_rep(w) for w in target]
    perm = [-1] * n
    used = [False] * n
    for j in range(n):
        for i in range(n):
            if not used[i] and cur_canon[i] == tgt_canon[j]:
                used[i] = True
                perm[j] = i
                break
        else:
            raise BallPathError("presentations are not in the same class")
    for j in range(n):
        i = perm[j]
        moves = _moves_to_canonical(current[i], i)
        moves += [
            inverse
            for m in reversed(_moves_to_canonical(target[j], i))
            for inverse in inverse_moves(m)
        ]
        for m in moves:
            apply_to_relators(current, m)
            path.append(m)
        if current[i] != target[j]:
            raise BallPathError("relator alignment failed")
    return perm


def _move_from(
    ball: Ball, parent: BallKey, key: BallKey, canon: dict[Word, Word]
) -> AcMove:
    """The first move in ``enumerate_moves`` order that ``_child`` takes from
    ``parent`` to ``key``.  The BFS records a child at the first move that
    reaches it, so this is the move ``build_ball`` recorded and
    ``save_ball`` wrote."""
    room = ball.max_total_length - sum(map(len, parent))
    for move in enumerate_moves(ball.rank):
        if _child(parent, move, room, canon)[0] == key:
            return move
    raise BallPathError("no move takes the recorded parent to the member")


def lookup(ball: Ball, p: Presentation) -> tuple[int, MoveSequence] | None:
    """Depth and an explicit move path from p to the trivial class, if p's
    canonical class is in the ball."""
    if (key := ball.key_of(p)) is None:
        return None
    depth = ball.depth(key)
    canon: dict[Word, Word] = {}
    path: list[AcMove] = []
    current = list(p.relators)
    while (parent := ball.members[key]) is not None:
        move = _move_from(ball, parent, key, canon)
        raw_child = list(parent)
        apply_to_relators(raw_child, move)
        perm = _align(current, tuple(raw_child), path)
        for inv_kind, inv_i, inv_x in inverse_moves(move):
            remapped = (
                inv_kind,
                perm[inv_i],
                perm[inv_x] if inv_kind == MULTIPLY else inv_x,
            )
            apply_to_relators(current, remapped)
            path.append(remapped)
        key = parent
    return depth, tuple(path)


# ---------------------------------------------------------------------------
# persistence


def save_ball(ball: Ball, path: str) -> None:
    """Line-oriented dump in BFS order; each distinct relator and each
    distinct move is spelled once."""
    spelling = notation.Spelling(ball.rank)
    codes: dict[AcMove | None, str] = {None: "-"}

    def records():
        index: dict[BallKey, int] = {}
        for pos, (key, depth, parent, move) in enumerate(ball.records()):
            index[key] = pos
            code = codes.get(move)
            if code is None:
                code = codes[move] = notation.format_move(move, ball.rank)
            yield (
                spelling.presentation(key),
                str(depth),
                "-1" if parent is None else str(index[parent]),
                code,
            )

    header = {
        "rank": ball.rank,
        "max_total_length": ball.max_total_length,
        "max_depth": ball.max_depth,
    }
    formats.write_file(path, "ball", header, records())


def load_ball(path: str) -> Ball:
    """Read a ball written by ``save_ball``.  The header's limits must be
    ones ``build_ball`` takes, and the lines must be in BFS order.  Each
    member is replayed from its parent and move; its stored text only has
    to agree with the replayed key.  Each distinct relator is canonicalized
    and spelled once, and each distinct move code parsed once.  Every error
    names ``path`` or ``path:line``."""
    with formats.read_file(path, "ball", 4) as (header, records):
        limits = [header.int(k) for k in ("rank", "max_total_length", "max_depth")]
        try:
            _check_limits(*limits)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        ball = Ball(*limits)
        rank, cap, members = ball.rank, ball.max_total_length, ball.members
        root, canon = _root(rank)
        spelling = notation.Spelling(rank)
        all_moves = enumerate_moves(rank)
        # move code -> (move, its index in all_moves)
        parsed: dict[str, tuple[AcMove, int]] = {}
        order: list[BallKey] = []
        depths: list[int] = []
        for where, (text, depth, parent_idx, code) in records:
            depth = formats.parse_int(depth, "depth", where)
            parent, parent_depth = None, -1
            if parent_idx != "-1":
                idx = formats.parse_int(parent_idx, "parent index", where)
                if not 0 <= idx < len(order):
                    raise ValueError(
                        f"{where}: parent index {idx} is not an earlier member"
                    )
                parent, parent_depth = order[idx], depths[idx]
            if depth != parent_depth + 1:
                raise ValueError(f"{where}: depth {depth} is not parent depth + 1")
            if parent is None:
                if order:
                    raise ValueError(f"{where}: a second root")
                if code != "-":
                    raise ValueError(f"{where}: root move {code!r} is not '-'")
                key, index = root, 0
            else:
                if depth > ball.max_depth:
                    raise ValueError(
                        f"{where}: depth {depth} exceeds max_depth {ball.max_depth}"
                    )
                if depth < depths[-1]:
                    raise ValueError(
                        f"{where}: depth {depth} follows depth {depths[-1]}; "
                        "a ball file is in BFS order"
                    )
                found = parsed.get(code)
                if found is None:
                    move = formats.parse_move(code, rank, where)
                    found = parsed[code] = (move, all_moves.index(move))
                move, index = found
                total = sum(map(len, parent))
                key, delta = _child(parent, move, cap - total, canon)
                if key is None:
                    raise ValueError(
                        f"{where}: total length {total + delta} exceeds "
                        f"max_total_length {cap}"
                    )
            if key in members:
                raise ValueError(f"{where}: duplicate presentation")
            if text != spelling.presentation(key):
                if formats.parse_presentation(text, rank, where).relators != key:
                    raise ValueError(
                        f"{where}: presentation does not follow from its parent "
                        "and move"
                    )
            ball._add(key, parent, index, depth)
            order.append(key)
            depths.append(depth)
    return ball


def save_training(ts: TrainingSet, path: str) -> None:
    records = (
        (notation.format_presentation(case.presentation), str(case.distance))
        for case in ts.cases
    )
    formats.write_file(path, "training", {"rank": ts.rank}, records)


def load_training(path: str) -> TrainingSet:
    with formats.read_file(path, "training", 2) as (header, records):
        rank = header.int("rank")
        cases = []
        for where, (text, distance) in records:
            p = formats.parse_presentation(text, rank, where)
            distance = formats.parse_int(distance, "distance", where)
            if distance < 0:
                raise ValueError(f"{where}: distance {distance} is negative")
            cases.append(FitnessCase(p, distance))
    return TrainingSet(rank, cases)
