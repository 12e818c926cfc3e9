"""The trivialization ball: BFS from the trivial presentation.

States are canonical forms (C1/C2 classes).  From each class the 3n² moves
are applied to its canonical representative; children are deduplicated by
canonical form, so depths are exact shortest-path lengths in that class
graph and independent of traversal order.  A child whose total relator
length exceeds ``max_total_length`` is discarded; one that reaches it
exactly is recorded but never expanded.

Membership of a presentation is membership of its canonical class.
``lookup`` additionally reconstructs an explicit move path back to the
trivial class; because parent links connect canonical representatives, the
replay path interleaves inverse moves with rotation/inversion alignment
moves and is therefore usually longer than the BFS depth.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from . import notation
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
from .words import (
    Word,
    canonical_rep,
    invert_word,
    is_cyclically_reduced,
    shortlex_key,
)

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
    # canonical relators -> (depth, parent canonical relators, move from parent)
    members: dict[BallKey, tuple[int, BallKey | None, AcMove | None]] = field(
        default_factory=dict
    )

    def __len__(self) -> int:
        return len(self.members)

    def key_of(self, p: Presentation) -> BallKey:
        return canonical_relators(p.relators)

    def depth_of(self, p: Presentation) -> int | None:
        info = self.members.get(self.key_of(p))
        return None if info is None else info[0]

    def __contains__(self, p: Presentation) -> bool:
        return self.key_of(p) in self.members

    def depth_census(self) -> dict[int, int]:
        census: dict[int, int] = {}
        for depth, _, _ in self.members.values():
            census[depth] = census.get(depth, 0) + 1
        return census


class BallPathError(RuntimeError):
    """Raised by ``lookup`` when the ball's parent links do not form a path
    back to the trivial class, i.e. the ball is corrupt."""


class BallCapacityError(RuntimeError):
    """Raised when the member cap is hit; carries the partial ball."""

    def __init__(self, partial: Ball, max_members: int):
        super().__init__(
            f"ball exceeded {max_members} members "
            f"(rank {partial.rank}, cap {partial.max_total_length}, "
            f"depth {partial.max_depth})"
        )
        self.partial = partial


def build_ball(
    rank: int,
    max_total_length: int,
    max_depth: int,
    max_members: int | None = None,
) -> Ball:
    """Breadth-first enumeration of canonical classes around the trivial one."""
    if max_total_length < 1 or max_depth < 1:
        raise ValueError("limits must be >= 1")
    moves = enumerate_moves(rank)
    root = canonical_relators(trivial_presentation(rank).relators)
    ball = Ball(rank, max_total_length, max_depth)
    ball.members[root] = (0, None, None)
    root_total = sum(len(r) for r in root)
    queue: deque[tuple[BallKey, int, int]] = deque()
    if root_total < max_total_length:
        queue.append((root, 0, root_total))
    while queue:
        key, depth, total = queue.popleft()
        child_depth = depth + 1
        for m in moves:
            rels = list(key)
            new_total = total + apply_to_relators(rels, m)
            if new_total > max_total_length:
                continue
            i = m[1]
            rels[i] = canonical_rep(rels[i])
            child = tuple(sorted(rels, key=shortlex_key))
            if child in ball.members:
                continue
            ball.members[child] = (child_depth, key, m)
            if max_members is not None and len(ball.members) > max_members:
                raise BallCapacityError(ball, max_members)
            if child_depth < max_depth and new_total < max_total_length:
                queue.append((child, child_depth, new_total))
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
            f"cannot draw {count} distinct cases from a ball of {len(ball.members)}"
        )
    strata: dict[int, list[BallKey]] = {}
    for key, (depth, _, _) in ball.members.items():
        strata.setdefault(depth, []).append(key)
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


def _rotation_path(w: Word, target: Word, i: int) -> list[AcMove] | None:
    """Conjugation moves at relator i realizing a cyclic rotation w -> target."""
    if w == target:
        return []
    if not is_cyclically_reduced(w) or len(w) != len(target):
        return None
    doubled = w + w
    n = len(w)
    for k in range(1, n):
        if doubled[k : k + n] == target:
            # conjugating a cyclically reduced word by the inverse of its
            # first letter rotates it left by one
            return [(CONJUGATE, i, -w[j]) for j in range(k)]
    return None


def _moves_to_canonical(w: Word, i: int) -> list[AcMove]:
    """Moves at relator i carrying w to canonical_rep(w)."""
    target = canonical_rep(w)
    path = _rotation_path(w, target, i)
    if path is not None:
        return path
    path = _rotation_path(invert_word(w), target, i)
    if path is None:
        raise BallPathError("canonical representative unreachable by rotation")
    return [(INVERT, i, 0)] + path


def _invert_move_list(moves: list[AcMove]) -> list[AcMove]:
    out = []
    for kind, i, x in reversed(moves):
        out.append((kind, i, -x) if kind == CONJUGATE else (kind, i, x))
    return out


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
        moves += _invert_move_list(_moves_to_canonical(target[j], i))
        for m in moves:
            apply_to_relators(current, m)
            path.append(m)
        if current[i] != target[j]:
            raise BallPathError("relator alignment failed")
    return perm


def lookup(ball: Ball, p: Presentation) -> tuple[int, MoveSequence] | None:
    """Depth and an explicit move path from p to the trivial class, if p's
    canonical class is in the ball."""
    key = ball.key_of(p)
    info = ball.members.get(key)
    if info is None:
        return None
    depth = info[0]
    path: list[AcMove] = []
    current = list(p.relators)
    while True:
        _, parent, move = ball.members[key]
        if parent is None:
            break
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
    """Line-oriented dump in BFS order (atomic write-then-rename)."""
    index: dict[BallKey, int] = {}
    lines = [
        f"# actriv-ball rank={ball.rank} "
        f"max_total_length={ball.max_total_length} max_depth={ball.max_depth}"
    ]
    for pos, (key, (depth, parent, move)) in enumerate(ball.members.items()):
        index[key] = pos
        text = notation.format_presentation(Presentation(ball.rank, key))
        parent_idx = -1 if parent is None else index[parent]
        code = "-" if move is None else notation.format_move(move, ball.rank)
        lines.append(f"{text}\t{depth}\t{parent_idx}\t{code}")
    _atomic_write(path, "\n".join(lines) + "\n")


def load_ball(path: str) -> Ball:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        params = _parse_header(header, "actriv-ball", path)
        ball = Ball(
            rank=_header_int(params, "rank", path),
            max_total_length=_header_int(params, "max_total_length", path),
            max_depth=_header_int(params, "max_depth", path),
        )
        order: list[BallKey] = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            text, depth, parent_idx, code = _split_fields(line, 4, where)
            key = _located(where, notation.parse_presentation, text).relators
            if key != canonical_relators(key):
                raise ValueError(f"{where}: presentation not canonical")
            if key in ball.members:
                raise ValueError(f"{where}: duplicate presentation")
            depth = _parse_int(depth, "depth", where)
            if parent_idx == "-1":
                parent, parent_depth = None, -1
            else:
                idx = _parse_int(parent_idx, "parent index", where)
                if not 0 <= idx < len(order):
                    raise ValueError(
                        f"{where}: parent index {idx} is not an earlier member"
                    )
                parent = order[idx]
                parent_depth = ball.members[parent][0]
            if depth != parent_depth + 1:
                raise ValueError(f"{where}: depth {depth} is not parent depth + 1")
            move = (
                None
                if code == "-"
                else _located(where, notation.parse_move, code, ball.rank)
            )
            ball.members[key] = (depth, parent, move)
            order.append(key)
    if not ball.members:
        raise ValueError(f"{path}: empty ball file")
    return ball


def save_training(ts: TrainingSet, path: str) -> None:
    lines = [f"# actriv-training rank={ts.rank}"]
    for case in ts.cases:
        text = notation.format_presentation(case.presentation)
        lines.append(f"{text}\t{case.distance}")
    _atomic_write(path, "\n".join(lines) + "\n")


def load_training(path: str) -> TrainingSet:
    with open(path, encoding="utf-8") as fh:
        params = _parse_header(fh.readline(), "actriv-training", path)
        rank = _header_int(params, "rank", path)
        cases = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            text, distance = _split_fields(line, 2, where)
            cases.append(
                FitnessCase(
                    _located(where, notation.parse_presentation, text),
                    _parse_int(distance, "distance", where),
                )
            )
    return TrainingSet(rank, cases)


def _parse_header(line: str, tag: str, path: str) -> dict[str, str]:
    parts = line.strip().lstrip("#").split()
    if not parts or parts[0] != tag:
        raise ValueError(f"{path}: missing '{tag}' header")
    params = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"{path}: header field {part!r} is not key=value")
        params[key] = value
    return params


def _header_int(params: dict[str, str], key: str, path: str) -> int:
    if key not in params:
        raise ValueError(f"{path}: header has no '{key}'")
    return _parse_int(params[key], f"header {key}", path)


def _split_fields(line: str, count: int, where: str) -> list[str]:
    fields = line.split("\t")
    if len(fields) != count:
        raise ValueError(
            f"{where}: expected {count} tab-separated fields, got {len(fields)}"
        )
    return fields


def _parse_int(text: str, what: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: {what} {text!r} is not an integer") from None


def _located(where: str, parse, *args):
    """``parse(*args)``, with a notation error re-raised naming ``where``."""
    try:
        return parse(*args)
    except notation.NotationError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _atomic_write(path: str, content: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(content)
    os.replace(tmp, path)
