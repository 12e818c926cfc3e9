import random

import pytest

from actriv.ball import (
    Ball,
    BallCapacityError,
    BallPathError,
    build_ball,
    load_ball,
    load_training,
    lookup,
    sample_cases,
    save_ball,
    save_training,
)
from actriv.catalog import get_instance
from actriv.presentations import (
    Presentation,
    canonical_form,
    canonical_relators,
    enumerate_moves,
    trivial_presentation,
)
from reference_moves import reference_apply, reference_trace, total


def reference_bfs(rank, max_total_length, max_depth, seed=0):
    """Independent level-synchronous BFS with shuffled expansion order."""
    rng = random.Random(seed)
    moves = list(enumerate_moves(rank))
    root = canonical_form(trivial_presentation(rank))
    depths = {root.relators: 0}
    level = [root.relators]
    depth = 0
    while level and depth < max_depth:
        rng.shuffle(level)
        found = []
        for key in level:
            if sum(len(r) for r in key) >= max_total_length:
                continue
            shuffled = moves[:]
            rng.shuffle(shuffled)
            for m in shuffled:
                child = reference_apply(key, m)
                if total(child) > max_total_length:
                    continue
                ck = canonical_relators(child)
                if ck not in depths:
                    depths[ck] = depth + 1
                    found.append(ck)
        level = found
        depth += 1
    return depths


class TestBuildBall:
    def test_trivial_at_depth_zero(self):
        ball = build_ball(2, 4, 2)
        root = canonical_relators(trivial_presentation(2).relators)
        assert ball.members[root][0] == 0

    def test_depth_one_census(self):
        # brute force: distinct canonical non-trivial neighbors of length <= 4
        trivial = trivial_presentation(2).relators
        neighbors = set()
        for m in enumerate_moves(2):
            child = reference_apply(trivial, m)
            if total(child) <= 4:
                neighbors.add(canonical_relators(child))
        neighbors.discard(canonical_relators(trivial))
        ball = build_ball(2, 4, 1)
        assert len(ball) == 1 + len(neighbors)

    def test_depth_and_length_bounds(self):
        ball = build_ball(2, 6, 3)
        for key, (depth, _, _) in ball.members.items():
            assert depth <= 3
            assert sum(len(r) for r in key) <= 6

    def test_members_at_cap_not_expanded(self):
        # a cap-length member's children of equal length must not appear
        # unless reachable some other way: compare against a reference BFS
        # that enforces the same rule
        ball = build_ball(2, 4, 3)
        assert ball.members.keys() == reference_bfs(2, 4, 3).keys()

    def test_depths_match_reference_bfs(self):
        ball = build_ball(2, 8, 4)
        reference = reference_bfs(2, 8, 4, seed=42)
        assert ball.members.keys() == reference.keys()
        for key, (depth, _, _) in ball.members.items():
            assert depth == reference[key]

    def test_monotone_in_limits(self):
        small = build_ball(2, 6, 3)
        wider = build_ball(2, 8, 3)
        deeper = build_ball(2, 6, 5)
        for key, (depth, _, _) in small.members.items():
            assert wider.members[key][0] <= depth
            assert deeper.members[key][0] <= depth

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            build_ball(2, 0, 3)

    def test_capacity_error_carries_partial(self):
        with pytest.raises(BallCapacityError) as info:
            build_ball(2, 10, 6, max_members=50)
        partial = info.value.partial
        assert isinstance(partial, Ball)
        assert len(partial) == 51

    def test_parent_links_consistent(self):
        ball = build_ball(2, 8, 4)
        for key, (depth, parent, move) in ball.members.items():
            if parent is None:
                assert depth == 0
                continue
            assert ball.members[parent][0] == depth - 1
            assert canonical_relators(reference_apply(parent, move)) == key


class TestSampling:
    def test_distances_are_depths(self):
        ball = build_ball(2, 8, 4)
        training = sample_cases(ball, 50, rng_seed=1)
        for case in training.cases:
            assert ball.depth_of(case.presentation) == case.distance

    def test_deterministic(self):
        ball = build_ball(2, 8, 4)
        a = sample_cases(ball, 40, rng_seed=7)
        b = sample_cases(ball, 40, rng_seed=7)
        assert a.cases == b.cases
        c = sample_cases(ball, 40, rng_seed=8)
        assert a.cases != c.cases

    def test_covers_every_stratum(self):
        ball = build_ball(2, 8, 4)
        strata = set(depth for depth, _, _ in ball.members.values())
        training = sample_cases(ball, len(strata), rng_seed=3)
        assert set(training.distances()) == strata

    def test_no_duplicates(self):
        ball = build_ball(2, 6, 3)
        training = sample_cases(ball, len(ball), rng_seed=0)
        keys = [case.presentation.relators for case in training.cases]
        assert len(set(keys)) == len(keys)

    def test_count_too_large(self):
        ball = build_ball(2, 4, 2)
        with pytest.raises(ValueError):
            sample_cases(ball, len(ball) + 1, rng_seed=0)


def replayed_class(rels, path):
    return canonical_relators(list(reference_trace(rels, path))[-1])


TRIVIAL_CLASS = canonical_relators(trivial_presentation(2).relators)


class TestLookup:
    def test_trivial(self):
        ball = build_ball(2, 6, 3)
        depth, path = lookup(ball, trivial_presentation(2))
        assert depth == 0
        assert path == ()

    def test_depth_one_members(self):
        ball = build_ball(2, 6, 3)
        for key, (depth, _, _) in ball.members.items():
            if depth != 1:
                continue
            d, path = lookup(ball, Presentation(2, key))
            assert d == 1
            assert replayed_class(key, path) == TRIVIAL_CLASS

    def test_path_soundness_random_members(self):
        ball = build_ball(2, 10, 5)
        rng = random.Random(13)
        keys = rng.sample(list(ball.members), 60)
        for key in keys:
            _, path = lookup(ball, Presentation(2, key))
            assert replayed_class(key, path) == TRIVIAL_CLASS

    def test_path_soundness_noncanonical_representative(self):
        # lookup must work from any member of the class, not just the
        # canonical representative
        ball = build_ball(2, 8, 4)
        moves = enumerate_moves(2)
        p = reference_apply(trivial_presentation(2).relators, moves[5])
        q = reference_apply(p, moves[7])
        if Presentation(2, q) in ball:
            _, path = lookup(ball, Presentation(2, q))
            assert replayed_class(q, path) == TRIVIAL_CLASS

    def test_absent(self):
        ball = build_ball(2, 8, 4)
        assert lookup(ball, get_instance("AK3").presentation) is None

    def test_corrupt_parent_link_raises(self):
        ball = build_ball(2, 6, 3)
        key, (depth, _, move) = next(
            (k, info) for k, info in ball.members.items() if info[0] == 2
        )
        # the move from the trivial class lands at depth 1, never on key
        ball.members[key] = (depth, TRIVIAL_CLASS, move)
        with pytest.raises(BallPathError):
            lookup(ball, Presentation(2, key))


class TestPersistence:
    def test_ball_round_trip(self, tmp_path):
        ball = build_ball(2, 8, 4)
        path = str(tmp_path / "ball.tsv")
        save_ball(ball, path)
        loaded = load_ball(path)
        assert loaded.rank == 2
        assert loaded.max_total_length == 8
        assert loaded.max_depth == 4
        assert loaded.members == ball.members

    def test_training_round_trip(self, tmp_path):
        ball = build_ball(2, 8, 4)
        training = sample_cases(ball, 30, rng_seed=5)
        path = str(tmp_path / "train.tsv")
        save_training(training, path)
        loaded = load_training(path)
        assert loaded.rank == training.rank
        assert loaded.cases == training.cases

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (2, "-2", "parent index -2"),
            (2, "9999", "parent index 9999"),
            (2, "7", "parent index 7"),
            (2, "-1", "depth 2"),
            (2, "0", "depth 2"),
            (1, "3", "depth 3"),
        ],
    )
    def test_rejects_bad_parent_link(self, tmp_path, field, value, message):
        ball = build_ball(2, 6, 2)
        path = tmp_path / "ball.tsv"
        save_ball(ball, str(path))
        lines = path.read_text().splitlines()
        # lines[8] holds member 7, a depth-2 child of member 1
        cells = lines[8].split("\t")
        assert cells[1:3] == ["2", "1"]
        cells[field] = value
        lines[8] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"ball.tsv:9: {message}"):
            load_ball(str(path))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (1, "x", "depth 'x' is not an integer"),
            (2, "y", "parent index 'y' is not an integer"),
            (3, None, "expected 4 tab-separated fields, got 3"),
            (0, "<a,b|ab,c>", "unknown generator symbol"),
            (3, "mul:0:7", "bad move code 'mul:0:7'"),
        ],
    )
    def test_rejects_malformed_line(self, tmp_path, field, value, message):
        ball = build_ball(2, 6, 2)
        path = tmp_path / "ball.tsv"
        save_ball(ball, str(path))
        lines = path.read_text().splitlines()
        cells = lines[8].split("\t")
        if value is None:
            del cells[field]
        else:
            cells[field] = value
        lines[8] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"ball.tsv:9: {message}"):
            load_ball(str(path))

    @pytest.mark.parametrize(
        "header, message",
        [
            ("rank=2 max_depth=2", "header has no 'max_total_length'"),
            ("rank=2 max_total_length=6 depth2", "header field 'depth2' is not"),
            ("rank=two max_total_length=6 max_depth=2", "header rank 'two' is not"),
        ],
    )
    def test_rejects_malformed_header(self, tmp_path, header, message):
        path = tmp_path / "ball.tsv"
        path.write_text(f"# actriv-ball {header}\n<a,b|a,b>\t0\t-1\t-\n")
        with pytest.raises(ValueError, match=f"ball.tsv: {message}"):
            load_ball(str(path))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("<a,b|a,b>", "expected 2 tab-separated fields, got 1"),
            ("<a,b|a,b>\tnear", "distance 'near' is not an integer"),
            ("<a,b|a>\t0", "unbalanced"),
        ],
        ids=["fields", "distance", "presentation"],
    )
    def test_training_rejects_malformed_line(self, tmp_path, line, message):
        path = tmp_path / "train.tsv"
        path.write_text(f"# actriv-training rank=2\n<a,b|b,a>\t0\n\n{line}\n")
        with pytest.raises(ValueError, match=f"train.tsv:4: {message}"):
            load_training(str(path))

    def test_training_rejects_missing_rank(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("# actriv-training\n<a,b|a,b>\t0\n")
        with pytest.raises(ValueError, match="train.tsv: header has no 'rank'"):
            load_training(str(path))

    def test_rejects_duplicate_member(self, tmp_path):
        ball = build_ball(2, 6, 2)
        path = tmp_path / "ball.tsv"
        save_ball(ball, str(path))
        lines = path.read_text().splitlines()
        # a second line for member 2 (lines[3]), as a depth-2 child of member 1
        text = lines[3].split("\t")[0]
        lines.append("\t".join([text, "2", "1", "inv:0"]))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"ball.tsv:{len(lines)}: duplicate"):
            load_ball(str(path))

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# something-else rank=2\n")
        with pytest.raises(ValueError):
            load_ball(str(path))
