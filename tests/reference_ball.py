"""The ball loader before replay: it parses every presentation and checks
that it is canonical, but never that a member follows from its parent and
move.  It fills the ball's fields itself, from each line's parsed
presentation, depth, parent index and move, with no BFS-order check.
Differential tests compare ``actriv.ball.load_ball`` against it.

``save_ball`` is the saver that spells every member afresh with
``notation.format_presentation``; ``actriv.ball.save_ball`` must write the
same bytes.

``sample_cases`` is the depth-stratified sampler that groups the members
by their parent-hop depth, not by the census; ``actriv.ball.sample_cases``
must draw the same cases."""

import random

from actriv import formats, notation
from actriv.ball import Ball, BallKey, FitnessCase, TrainingSet
from actriv.presentations import Presentation, canonical_relators, enumerate_moves


def save_ball(ball: Ball, path: str) -> None:
    index: dict[BallKey, int] = {}
    records = []
    for pos, (key, depth, parent, move) in enumerate(ball.records()):
        index[key] = pos
        records.append(
            (
                notation.format_presentation(Presentation(ball.rank, key)),
                str(depth),
                "-1" if parent is None else str(index[parent]),
                "-" if move is None else notation.format_move(move, ball.rank),
            )
        )
    header = {
        "rank": ball.rank,
        "max_total_length": ball.max_total_length,
        "max_depth": ball.max_depth,
    }
    formats.write_file(path, "ball", header, records)


def load_ball(path: str) -> Ball:
    with formats.read_file(path, "ball", 4) as (header, records):
        ball = Ball(
            rank=header.int("rank"),
            max_total_length=header.int("max_total_length"),
            max_depth=header.int("max_depth"),
        )
        order: list[BallKey] = []
        depths: list[int] = []
        for where, (text, depth, parent_idx, code) in records:
            key = formats.parse_presentation(text, ball.rank, where).relators
            if key != canonical_relators(key):
                raise ValueError(f"{where}: presentation not canonical")
            if key in ball.members:
                raise ValueError(f"{where}: duplicate presentation")
            depth = formats.parse_int(depth, "depth", where)
            if parent_idx == "-1":
                parent, parent_depth = None, -1
            else:
                idx = formats.parse_int(parent_idx, "parent index", where)
                if not 0 <= idx < len(order):
                    raise ValueError(
                        f"{where}: parent index {idx} is not an earlier member"
                    )
                parent = order[idx]
                parent_depth = depths[idx]
            if depth != parent_depth + 1:
                raise ValueError(f"{where}: depth {depth} is not parent depth + 1")
            move = None if code == "-" else formats.parse_move(code, ball.rank, where)
            ball.members[key] = parent
            index = 0 if move is None else enumerate_moves(ball.rank).index(move)
            ball.moves.append(index)
            ball.census.extend([0] * (depth + 1 - len(ball.census)))
            ball.census[depth] += 1
            order.append(key)
            depths.append(depth)
    if not ball.members:
        raise ValueError(f"{path}: empty ball file")
    return ball


def sample_cases(ball: Ball, count: int, rng_seed: int) -> TrainingSet:
    strata: dict[int, list[BallKey]] = {}
    for key in ball.members:
        strata.setdefault(ball.depth(key), []).append(key)
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
