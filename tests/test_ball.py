import hashlib
import random

import pytest
from hypothesis import given, strategies as st

import actriv.ball
from actriv.ball import (
    Ball,
    BallCapacityError,
    BallPathError,
    _child,
    _move_from,
    _root,
    build_ball,
    load_ball,
    load_training,
    lookup,
    sample_cases,
    save_ball,
    save_training,
)
from actriv.catalog import get_instance
from actriv import notation
from actriv.notation import Spelling, format_move, format_presentation, format_word
from actriv.presentations import (
    MULTIPLY,
    Presentation,
    canonical_form,
    canonical_relators,
    enumerate_moves,
    trivial_presentation,
)
from actriv.words import free_reduce, invert_word, is_cyclically_reduced
from reference_moves import reference_apply, reference_trace, total
import reference_ball


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
        assert ball.depth(root) == 0

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
        for key, depth, _, _ in ball.records():
            assert depth <= 3
            assert sum(len(r) for r in key) <= 6

    def test_members_at_cap_not_expanded(self):
        # a cap-length member's children of equal length must not appear
        # unless reachable some other way: compare against a reference BFS
        # that enforces the same rule
        ball = build_ball(2, 4, 3)
        assert ball.members.keys() == reference_bfs(2, 4, 3).keys()

    def test_depths_match_reference_bfs(self):
        for limits in [(2, 8, 4), (3, 8, 3)]:
            ball = build_ball(*limits)
            reference = reference_bfs(*limits, seed=42)
            assert ball.members.keys() == reference.keys()
            for key, depth, _, _ in ball.records():
                assert depth == reference[key]

    def test_monotone_in_limits(self):
        small = build_ball(2, 6, 3)
        wider = build_ball(2, 8, 3)
        deeper = build_ball(2, 6, 5)
        for key, depth, _, _ in small.records():
            assert wider.depth(key) <= depth
            assert deeper.depth(key) <= depth

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            build_ball(2, 0, 3)

    @pytest.mark.parametrize(
        "limits, message",
        [
            ((0, 6, 2), "rank must be >= 1, got 0"),
            ((2, 6, 0), "max_depth must be >= 1"),
            ((3, 2, 2), "max_total_length 2 is below the trivial presentation's"),
        ],
    )
    def test_rejects_limits(self, limits, message):
        with pytest.raises(ValueError, match=message):
            build_ball(*limits)

    def test_census_counts_each_depth(self):
        ball = build_ball(2, 8, 4)
        depths = [ball.depth(key) for key in ball.members]
        assert depths == sorted(depths)
        assert ball.census == [depths.count(d) for d in range(max(depths) + 1)]
        assert ball.depth_census() == dict(enumerate(ball.census))
        assert len(ball.moves) == len(ball)

    def test_member_cap(self):
        members = len(build_ball(2, 10, 6))
        assert len(build_ball(2, 10, 6, max_members=members)) == members
        cap = members - 1
        with pytest.raises(
            BallCapacityError,
            match=rf"^ball exceeded {cap} members \(rank 2, cap 10, depth 6\)$",
        ):
            build_ball(2, 10, 6, max_members=cap)

    def test_parent_links_consistent(self):
        ball = build_ball(2, 8, 4)
        for key, depth, parent, move in ball.records():
            if parent is None:
                assert depth == 0
                continue
            assert ball.depth(parent) == depth - 1
            assert canonical_relators(reference_apply(parent, move)) == key


@st.composite
def random_keys(draw, rank, canonical=True):
    """The relators of a random presentation of ``rank``, as a canonical
    key unless ``canonical`` is false."""
    letters = st.sampled_from([s * g for g in range(1, rank + 1) for s in (1, -1)])
    rels = tuple(
        free_reduce(draw(st.lists(letters, max_size=10))) for _ in range(rank)
    )
    return canonical_relators(rels) if canonical else rels


# one memo per rank for every example, as one build or load shares its memo
SHARED_MEMOS = {rank: _root(rank)[1] for rank in (2, 3)}


def assert_words_shared(ball):
    """Equal relator words in the ball's keys are one object."""
    words = [w for key in ball.members for w in key]
    assert len({id(w) for w in words}) == len(set(words))


# canonical keys of ranks 1-3 with empty, one-letter, cyclically reduced
# and not cyclically reduced relators
EDGE_KEYS = [
    (1, [()]),
    (1, [(1,)]),
    (1, [(1, 1, 1)]),
    (2, [(), ()]),
    (2, [(), (-2,)]),
    (2, [(1,), (2,)]),
    (2, [(1, 2, -1), (2, 2)]),
    (2, [(1, 1, -2, -1), (1, 2, 1, -2)]),
    (3, [(), (3,), (1, -2, -1)]),
    (3, [(1, 2, 3), (-3, -2, 3), (2, 1, -2, -1)]),
]


def assert_answers_from_the_key(key, rank):
    """Against the reference, with ``apply_to_relators`` and
    ``canonical_rep`` counted: an inversion, or a conjugation that keeps
    the length, gives ``key`` itself and builds no word; a conjugation past
    the room gives None and builds no word."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("apply_to_relators", "canonical_rep"):

            def counted(*args, name=name, original=getattr(actriv.ball, name)):
                calls.append(name)
                return original(*args)

            mp.setattr(actriv.ball, name, counted)
        for move in enumerate_moves(rank):
            raw = reference_apply(key, move)
            delta = total(raw) - total(key)
            for room in (delta - 2, delta - 1, delta, 10):
                calls.clear()
                child, change = _child(key, move, room, _root(rank)[1])
                assert change == delta
                if move[0] == MULTIPLY:
                    assert child == (None if delta > room else canonical_relators(raw))
                elif delta > room:
                    assert child is None
                    assert calls == []
                elif delta == 0:
                    assert canonical_relators(raw) == key
                    assert child is key
                    assert calls == []
                else:
                    assert child == canonical_relators(raw)
                    assert calls.count("apply_to_relators") == 1


class TestChild:
    @given(rank=st.sampled_from([2, 3]), data=st.data())
    def test_matches_reference(self, rank, data):
        canon = SHARED_MEMOS[rank]
        key = data.draw(random_keys(rank))
        moves = st.sampled_from(enumerate_moves(rank))
        for move in data.draw(st.lists(moves, min_size=1, max_size=6)):
            room = data.draw(st.integers(-2, 10))
            child, delta = _child(key, move, room, canon)
            raw = reference_apply(key, move)
            assert delta == total(raw) - total(key)
            if delta > room:
                assert child is None
            else:
                assert child == canonical_relators(raw)
                key = child
        # every representative in the memo is interned: it maps to itself
        for rep in set(canon.values()):
            assert canon[rep] is rep

    @pytest.mark.parametrize("rank, rels", EDGE_KEYS)
    def test_answers_from_the_key(self, rank, rels):
        assert_answers_from_the_key(canonical_relators(rels), rank)

    @given(rank=st.sampled_from([1, 2, 3]), data=st.data())
    def test_answers_random_keys_from_the_key(self, rank, data):
        assert_answers_from_the_key(data.draw(random_keys(rank)), rank)

    @pytest.mark.parametrize("limits", [(2, 10, 5), (3, 7, 3)])
    def test_keys_share_equal_words(self, tmp_path, limits):
        built = build_ball(*limits)
        assert_words_shared(built)
        path = str(tmp_path / "ball.tsv")
        save_ball(built, path)
        assert_words_shared(load_ball(path))


class TestSpelling:
    SPELLINGS = {rank: Spelling(rank) for rank in (2, 3)}

    @given(rank=st.sampled_from([2, 3]), canonical=st.booleans(), data=st.data())
    def test_matches_format_presentation(self, rank, canonical, data):
        key = data.draw(random_keys(rank, canonical))
        text = self.SPELLINGS[rank].presentation(key)
        assert text == format_presentation(Presentation(rank, key))
        gens = ",".join("abc"[:rank])
        assert text == f"<{gens}|{','.join(format_word(w, rank) for w in key)}>"


class TestSampling:
    def test_distances_are_depths(self):
        ball = build_ball(2, 8, 4)
        training = sample_cases(ball, 50, rng_seed=1)
        for case in training.cases:
            assert ball.depth(ball.key_of(case.presentation)) == case.distance

    def test_deterministic(self):
        ball = build_ball(2, 8, 4)
        a = sample_cases(ball, 40, rng_seed=7)
        b = sample_cases(ball, 40, rng_seed=7)
        assert a.cases == b.cases
        c = sample_cases(ball, 40, rng_seed=8)
        assert a.cases != c.cases

    def test_covers_every_stratum(self):
        ball = build_ball(2, 8, 4)
        strata = set(depth for _, depth, _, _ in ball.records())
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

    @pytest.mark.parametrize("limits", [(2, 8, 4), (3, 8, 3)])
    def test_same_cases_as_reference(self, limits):
        ball = build_ball(*limits)
        for seed in (0, 1, 7, 55):
            for count in (5, 40, len(ball)):
                expected = reference_ball.sample_cases(ball, count, seed)
                assert sample_cases(ball, count, seed) == expected


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
        for key, depth, _, _ in ball.records():
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

    @pytest.mark.parametrize("limits", [(2, 8, 4), (3, 8, 3)])
    def test_recovers_the_recorded_move(self, limits):
        ball = build_ball(*limits)
        moves = enumerate_moves(ball.rank)
        canon = {}
        for pos, (key, parent) in enumerate(ball.members.items()):
            if parent is not None:
                assert _move_from(ball, parent, key, canon) == moves[ball.moves[pos]]

    def test_recovers_the_first_of_two_moves(self):
        # in the balls above each member is reached from its parent by one
        # move only; from <a,b|b,b>, outside any ball, mul:0:1 and mul:1:0
        # both reach <a,b|b,b^2>, and the BFS would record the first
        parent, key = ((2,), (2,)), ((2,), (2, 2))
        hits = [m for m in enumerate_moves(2) if _child(parent, m, 10, {})[0] == key]
        assert hits == [(MULTIPLY, 0, 1), (MULTIPLY, 1, 0)]
        assert _move_from(Ball(2, 10, 3), parent, key, {}) == hits[0]

    def test_corrupt_parent_link_raises(self):
        ball = build_ball(2, 6, 3)
        key = next(k for k, depth, _, _ in ball.records() if depth == 2)
        # a move from the trivial class lands at depth 1, never on key
        ball.members[key] = TRIVIAL_CLASS
        with pytest.raises(BallPathError):
            lookup(ball, Presentation(2, key))


def respell(w, turn, invert):
    """Another spelling of ``w``'s class: rotated when ``w`` is cyclically
    reduced, then inverted if ``invert``."""
    if w and is_cyclically_reduced(w):
        turn %= len(w)
        w = w[turn:] + w[:turn]
    return invert_word(w) if invert else w


@st.composite
def ball_queries(draw, members):
    """A presentation to ask a rank-2 ball about, and whether it must be a
    member: a member, a rotated, inverted and permuted spelling of one, any
    rank-2 presentation, or a rank-3 one."""
    kind = draw(st.sampled_from(["member", "spelling", "rank 2", "rank 3"]))
    if kind == "member":
        return Presentation(2, draw(st.sampled_from(members))), True
    if kind == "spelling":
        rels = [
            respell(w, draw(st.integers(0, 20)), draw(st.booleans()))
            for w in draw(st.sampled_from(members))
        ]
        return Presentation(2, tuple(draw(st.permutations(rels)))), True
    rank = int(kind[-1])
    letters = st.sampled_from([s * g for g in range(1, rank + 1) for s in (1, -1)])
    rels = tuple(
        free_reduce(draw(st.lists(letters, max_size=8))) for _ in range(rank)
    )
    return Presentation(rank, rels), False


@pytest.fixture(scope="module")
def query_ball():
    return build_ball(2, 8, 4)


class TestGoldenLookupPaths:
    """The sha256 of ``lookup``'s depth and path from scrambled spellings of
    every 7th member: each relator rotated when it is cyclically reduced,
    inverted by a coin flip, and the relators shuffled.  Recorded when
    ``lookup`` still searched for the canonical rotation by equality; the
    paths pin which rotation of a relator, or of its inverse, each
    alignment reaches."""

    @pytest.mark.parametrize(
        "limits, digest",
        [
            (
                (2, 14, 6),
                "fcf3ee034401fe007e9c33d807ee92a7947d8238c7df7a2d8fd77140cd9d8141",
            ),
            (
                (3, 10, 4),
                "28a15b6ce4e72f06da71c2f2c3ba5322c6b5f46394b48660a7c2ef462c1b3c65",
            ),
        ],
    )
    def test_same_paths(self, limits, digest):
        ball = build_ball(*limits)
        rng = random.Random(0)
        sha = hashlib.sha256()
        for key in list(ball.members)[::7]:
            rels = [respell(w, rng.randrange(20), rng.random() < 0.5) for w in key]
            rng.shuffle(rels)
            sha.update(repr(lookup(ball, Presentation(ball.rank, tuple(rels)))).encode())
        assert sha.hexdigest() == digest


class TestKeyOf:
    @given(data=st.data())
    def test_agrees_with_canonical_lookup(self, query_ball, data):
        p, must_be_member = data.draw(ball_queries(list(query_ball.members)))
        key = canonical_relators(p.relators)
        expected = key if key in query_ball.members else None
        assert query_ball.key_of(p) == expected
        assert (p in query_ball) == (expected is not None)
        if must_be_member:
            assert expected is not None


BAD_PARENT_LINKS = [
    (2, "-2", "parent index -2"),
    (2, "9999", "parent index 9999"),
    (2, "7", "parent index 7"),
    (2, "-1", "depth 2"),
    (2, "0", "depth 2"),
    (1, "3", "depth 3"),
]
MALFORMED_LINES = [
    (1, "x", "depth 'x' is not an integer"),
    (2, "y", "parent index 'y' is not an integer"),
    (3, None, "expected 4 tab-separated fields, got 3"),
    (0, "<a,b|ab,c>", "unknown generator symbol"),
    (3, "mul:0:7", "bad move code 'mul:0:7'"),
    (0, "<a,b,c|a,b,c>", "3 relators in a rank 2 file"),
]
# corruptions that a loader which only parses the text accepts
LINES_ONLY_REPLAY_REJECTS = [
    # the move of the next member: the text no longer follows from it
    (3, "mul:1:0", "presentation does not follow from its parent and move"),
]


def swap_texts(lines):
    # members 7 and 8, both children of member 1; each text stays canonical
    first, second = lines[8].split("\t"), lines[9].split("\t")
    first[0], second[0] = second[0], first[0]
    lines[8], lines[9] = "\t".join(first), "\t".join(second)


def add_second_root(lines):
    # the canonical form of T1, which is not in the ball
    lines.append("<a,b|a^2bAB,abAB^2>\t0\t-1\t-")


def give_the_root_a_move(lines):
    lines[1] = lines[1].removesuffix("\t-") + "\tinv:0"


def lower_max_total_length(lines):
    lines[0] = "# actriv-ball rank=2 max_total_length=5 max_depth=2"


def lower_max_depth(lines):
    lines[0] = "# actriv-ball rank=2 max_total_length=6 max_depth=1"


def move_member_after_its_parent(lines):
    # member 7 (line 9, depth 2) moves up to follow member 1, its parent,
    # ahead of the depth-1 members 2 to 6; parent indices follow the move
    order = list(range(len(lines) - 1))
    order.insert(2, order.pop(7))
    new_index = {old: new for new, old in enumerate(order)}
    records = [lines[1 + old].split("\t") for old in order]
    for cells in records:
        if cells[2] != "-1":
            cells[2] = str(new_index[int(cells[2])])
    lines[1:] = ["\t".join(cells) for cells in records]


# whole-file edits that a loader which only parses the text accepts:
# (edit, line of the error, message)
FILES_ONLY_REPLAY_REJECTS = [
    (swap_texts, 9, "presentation does not follow from its parent and move"),
    (add_second_root, 38, "a second root"),
    (give_the_root_a_move, 2, "root move 'inv:0' is not '-'"),
    (lower_max_total_length, 21, "total length 6 exceeds max_total_length 5"),
    (lower_max_depth, 9, "depth 2 exceeds max_depth 1"),
    (
        move_member_after_its_parent,
        5,
        "depth 1 follows depth 2; a ball file is in BFS order",
    ),
]
FILE_EDIT_IDS = [edit.__name__ for edit, _, _ in FILES_ONLY_REPLAY_REJECTS]


def edited_ball(tmp_path, edit):
    """The 6/2 ball saved, then its lines changed in place by ``edit``;
    returns the file's path."""
    path = tmp_path / "ball.tsv"
    save_ball(build_ball(2, 6, 2), str(path))
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def corrupted_ball(tmp_path, field, value):
    """The 6/2 ball saved with one field of line 9 replaced, or deleted
    when ``value`` is None; returns the file's path."""

    def edit(lines):
        # lines[8] holds member 7, a depth-2 child of member 1
        cells = lines[8].split("\t")
        assert cells[1:] == ["2", "1", "mul:0:1"]
        if value is None:
            del cells[field]
        else:
            cells[field] = value
        lines[8] = "\t".join(cells)

    return edited_ball(tmp_path, edit)


class TestPersistence:
    def test_ball_round_trip(self, tmp_path):
        ball = build_ball(2, 8, 4)
        path = str(tmp_path / "ball.tsv")
        save_ball(ball, path)
        loaded = load_ball(path)
        assert loaded.rank == 2
        assert loaded.max_total_length == 8
        assert loaded.max_depth == 4
        assert list(loaded.records()) == list(ball.records())

    def test_training_round_trip(self, tmp_path):
        ball = build_ball(2, 8, 4)
        training = sample_cases(ball, 30, rng_seed=5)
        path = str(tmp_path / "train.tsv")
        save_training(training, path)
        loaded = load_training(path)
        assert loaded.rank == training.rank
        assert loaded.cases == training.cases

    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ball.tsv"
        save_ball(build_ball(2, 8, 4), str(path))
        header, *lines = path.read_text().splitlines(keepends=True)
        commented = tmp_path / "commented.tsv"
        commented.write_text(
            header + "# note\n" + lines[0].rstrip("\n") + "\t# the root\n"
            + "\n  # depth 1\n" + "".join(lines[1:])
        )
        loaded = load_ball(str(commented))
        assert list(loaded.records()) == list(load_ball(str(path)).records())
        assert "#" not in "".join(lines)

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "ball.tsv"
        save_ball(build_ball(2, 4, 2), str(path))
        before = path.read_bytes()
        broken = build_ball(2, 6, 2)
        # a member whose parent is not in the ball cannot be written
        key = next(k for k, depth, _, _ in broken.records() if depth == 2)
        broken.members[key] = ((9,), (9,))
        with pytest.raises(KeyError):
            save_ball(broken, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ball.tsv"]

    def test_rank3_round_trip(self, tmp_path):
        ball = build_ball(3, 8, 3)
        save_ball(ball, str(tmp_path / "ball.tsv"))
        loaded = load_ball(str(tmp_path / "ball.tsv"))
        assert (loaded.rank, loaded.max_total_length, loaded.max_depth) == (3, 8, 3)
        assert list(loaded.records()) == list(ball.records())
        training = sample_cases(ball, 40, rng_seed=3)
        save_training(training, str(tmp_path / "train.tsv"))
        loaded = load_training(str(tmp_path / "train.tsv"))
        assert loaded.rank == 3
        assert loaded.cases == training.cases

    @pytest.mark.parametrize("field, value, message", BAD_PARENT_LINKS)
    def test_rejects_bad_parent_link(self, tmp_path, field, value, message):
        path = corrupted_ball(tmp_path, field, value)
        with pytest.raises(ValueError, match=f"ball.tsv:9: {message}"):
            load_ball(path)

    @pytest.mark.parametrize(
        "field, value, message", MALFORMED_LINES + LINES_ONLY_REPLAY_REJECTS
    )
    def test_rejects_malformed_line(self, tmp_path, field, value, message):
        path = corrupted_ball(tmp_path, field, value)
        with pytest.raises(ValueError, match=f"ball.tsv:9: {message}"):
            load_ball(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("rank=2 max_depth=2", "header has no 'max_total_length'"),
            ("rank=2 max_total_length=6 depth2", "header field 'depth2' is not"),
            ("rank=two max_total_length=6 max_depth=2", "header rank 'two' is not"),
            # limits that build_ball rejects
            ("rank=0 max_total_length=6 max_depth=2", "rank must be >= 1, got 0"),
            ("rank=2 max_total_length=0 max_depth=2", "max_total_length must be >= 1"),
            (
                "rank=2 max_total_length=1 max_depth=2",
                "max_total_length 1 is below the trivial presentation's total "
                "length 2$",
            ),
            ("rank=2 max_total_length=6 max_depth=0", "max_depth must be >= 1$"),
            (
                "rank=2 rank=3 max_total_length=6 max_depth=2",
                "header key 'rank' is given twice$",
            ),
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
            ("<a,b,c|a,b,c>\t1", "3 relators in a rank 2 file"),
            ("<a,b|a,b>\t-3", "distance -3 is negative"),
        ],
        ids=["fields", "distance", "presentation", "rank", "negative-distance"],
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

    def test_training_rejects_empty_file(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("# actriv-training rank=2\n\n")
        with pytest.raises(ValueError, match="train.tsv: no records$"):
            load_training(str(path))

    def test_training_rejects_repeated_header_key(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("# actriv-training rank=2 rank=2\n<a,b|a,b>\t0\n")
        with pytest.raises(
            ValueError, match="train.tsv: header key 'rank' is given twice$"
        ):
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

    @pytest.mark.parametrize(
        "edit, line, message", FILES_ONLY_REPLAY_REJECTS, ids=FILE_EDIT_IDS
    )
    def test_rejects_member_that_does_not_follow(self, tmp_path, edit, line, message):
        path = edited_ball(tmp_path, edit)
        with pytest.raises(ValueError, match=f"ball.tsv:{line}: {message}"):
            load_ball(path)

    @pytest.mark.parametrize(
        "text", ["<x0,x1|x0x1,x0x1^2>", "<a,b|ab,abb>", "<a, b | a b, ab^2>"]
    )
    def test_loads_other_spellings(self, tmp_path, text):
        # line 9 holds <a,b|ab,ab^2>, spelled another way
        path = corrupted_ball(tmp_path, 0, text)
        assert list(load_ball(path).records()) == list(build_ball(2, 6, 2).records())

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# something-else rank=2\n")
        with pytest.raises(ValueError):
            load_ball(str(path))


class TestSaveAgainstReference:
    """``save_ball`` spells each distinct relator once; the reference spells
    every member afresh.  Both write the same bytes."""

    @pytest.mark.parametrize("limits", [(2, 12, 5), (2, 14, 6), (3, 8, 3)])
    def test_same_bytes(self, tmp_path, limits):
        built = build_ball(*limits)
        reference_ball.save_ball(built, str(tmp_path / "reference.tsv"))
        expected = (tmp_path / "reference.tsv").read_bytes()
        save_ball(built, str(tmp_path / "built.tsv"))
        assert (tmp_path / "built.tsv").read_bytes() == expected
        save_ball(load_ball(str(tmp_path / "built.tsv")), str(tmp_path / "loaded.tsv"))
        assert (tmp_path / "loaded.tsv").read_bytes() == expected

    def test_spells_each_move_once(self, tmp_path, monkeypatch):
        built = build_ball(2, 12, 5)
        spelled = []

        def counting(move, rank):
            spelled.append(move)
            return format_move(move, rank)

        monkeypatch.setattr(notation, "format_move", counting)
        save_ball(built, str(tmp_path / "built.tsv"))
        moves = {move for _, _, _, move in built.records()} - {None}
        assert sorted(spelled) == sorted(moves)


class TestGoldenBallFiles:
    """The sha256 of saved balls, as the build before ``_child`` answered
    inversions and conjugations from the key wrote them.  Unlike the
    reference BFS, which checks members and depths, these also pin every
    parent index and move code."""

    @pytest.mark.parametrize(
        "limits, digest",
        [
            (
                (2, 14, 6),
                "5078606871adb59a39056f551cc4776f8d539c00b1607f03c5420fb92200c037",
            ),
            (
                (3, 10, 4),
                "c26329563d0e07f91f7d21a2f42a2b0ca968d671cc011679705af81d4d35aebd",
            ),
        ],
    )
    def test_same_bytes(self, tmp_path, limits, digest):
        path = tmp_path / "ball.tsv"
        save_ball(build_ball(*limits), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestLoadAgainstReference:
    """``load_ball`` replays each member; ``reference_ball.load_ball`` parses
    each text.  On a file that ``save_ball`` wrote they give the same ball."""

    @pytest.mark.parametrize("limits", [(2, 14, 6), (3, 8, 3)])
    def test_same_members(self, tmp_path, limits):
        path = str(tmp_path / "ball.tsv")
        save_ball(build_ball(*limits), path)
        replayed = load_ball(path)
        parsed = reference_ball.load_ball(path)
        assert list(replayed.records()) == list(parsed.records())

    @pytest.mark.parametrize(
        "field, value, message", BAD_PARENT_LINKS + MALFORMED_LINES
    )
    def test_both_reject(self, tmp_path, field, value, message):
        path = corrupted_ball(tmp_path, field, value)
        with pytest.raises(ValueError, match=message):
            reference_ball.load_ball(path)
        with pytest.raises(ValueError, match=message):
            load_ball(path)

    def test_reference_accepts_what_replay_rejects(self, tmp_path):
        # TestPersistence rejects these by replay alone
        for field, value, _ in LINES_ONLY_REPLAY_REJECTS:
            reference_ball.load_ball(corrupted_ball(tmp_path, field, value))
        for edit, _, _ in FILES_ONLY_REPLAY_REJECTS:
            reference_ball.load_ball(edited_ball(tmp_path, edit))
