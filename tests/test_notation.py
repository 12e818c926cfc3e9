import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from actriv import formats
from actriv.catalog import (
    auxiliary_catalog,
    catalog,
    get_instance,
    known_trivializations,
)
from actriv.notation import (
    MAX_WORD_LENGTH,
    NotationError,
    format_move,
    format_presentation,
    format_sequence,
    format_word,
    parse_move,
    parse_presentation,
    parse_sequence,
)
from actriv.presentations import (
    CONJUGATE,
    enumerate_moves,
    make_presentation,
    total_length,
    trivial_presentation,
)
from actriv.words import free_reduce
import reference_words


class TestParse:
    def test_akbulut_kirby(self):
        p = parse_presentation("<a,b| a^3B^4, abaBAB >")
        assert p.rank == 2
        assert total_length(p) == 13
        assert p.relators[0] == (1, 1, 1, -2, -2, -2, -2)

    def test_t1(self):
        assert parse_presentation("<a,b| a^2bAB, b^2aBA >") == get_instance(
            "T1"
        ).presentation

    def test_unbalanced(self):
        with pytest.raises(NotationError):
            parse_presentation("<a,b| aa >")

    @pytest.mark.parametrize("text", ["<a,b|a,b", "a,b|a,b>", " <a,b|a,b> >x"])
    def test_unmatched_bracket(self, text):
        with pytest.raises(NotationError, match="^unmatched bracket in presentation"):
            parse_presentation(text)

    def test_unknown_symbol(self):
        with pytest.raises(NotationError):
            parse_presentation("<a,b| ac, b >")

    def test_malformed_exponent(self):
        with pytest.raises(NotationError):
            parse_presentation("<a,b| a^, b >")
        with pytest.raises(NotationError):
            parse_presentation("<a,b| a^x, b >")

    def test_word_length_bound(self):
        assert MAX_WORD_LENGTH == 100_000
        p = parse_presentation(f"<a,b| ab^{MAX_WORD_LENGTH - 1}, b >")
        assert total_length(p) == MAX_WORD_LENGTH + 1
        for text in (
            f"<a,b| a^{MAX_WORD_LENGTH + 1}, b >",
            f"<a,b| a^2b^{MAX_WORD_LENGTH - 1}, b >",
            f"<a,b| a^-{MAX_WORD_LENGTH + 1}, b >",
        ):
            with pytest.raises(NotationError, match="longer than 100000 letters"):
                parse_presentation(text)

    def test_huge_exponent_fails_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(NotationError, match="longer than"):
                parse_presentation("<a,b|a^999999999,b>")
            with pytest.raises(NotationError, match="exponent too large"):
                parse_presentation("<a,b|a^" + "9" * 5000 + ",b>")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        with pytest.raises(ValueError, match=r"^ball\.txt:7: word longer than"):
            formats.parse_presentation("<a,b|a^999999999,b>", 2, "ball.txt:7")

    def test_x_style_generators(self):
        p = parse_presentation("<x0,x1| x0^2x1X0X1, x1^2x0X1X0 >")
        assert p == get_instance("T1").presentation

    def test_negative_exponent(self):
        assert parse_presentation("<a,b| a^-2, b >") == parse_presentation(
            "<a,b| A^2, b >"
        )

    def test_empty_relator(self):
        p = parse_presentation("<a,b|1,ab>")
        assert p.relators[0] == ()

    def test_reduces_input(self):
        p = parse_presentation("<a,b| aAb, a >")
        assert p.relators[0] == (2,)


class TestFormat:
    def test_trivial(self):
        assert format_presentation(trivial_presentation(2)) == "<a,b|a,b>"

    def test_empty_relator_as_one(self):
        p = make_presentation(2, [(), (1,)])
        assert format_presentation(p) == "<a,b|1,a>"

    def test_exponent_collapsing(self):
        assert format_word((2, -2), 2) == "bB"  # unreduced words never arise
        assert format_word((1, 1, 2, -1, -2), 2) == "a^2bAB"
        assert format_word((-2, -2, -2), 2) == "B^3"
        assert format_word((1, 1, -27, 3), 27) == "x0^2X26x2"

    @given(rank=st.sampled_from([1, 2, 3, 27]), data=st.data())
    def test_format_word_matches_reference(self, rank, data):
        # a few of the rank's letters, so that runs are common
        every = [s * g for g in range(1, rank + 1) for s in (1, -1)]
        letters = data.draw(st.lists(st.sampled_from(every), min_size=1, max_size=4))
        w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=24)))
        assert format_word(w, rank) == reference_words.format_word(w, rank)

    @pytest.mark.parametrize(
        "w, rank, letter",
        [((5, -3), 2, 5), ((1, -3), 2, -3), ((1, 0, 1), 2, 0), ((-28,), 27, -28)],
    )
    def test_format_word_rejects_a_letter_outside_the_rank(self, w, rank, letter):
        message = f"^letter {letter} out of range for rank {rank}$"
        with pytest.raises(ValueError, match=message):
            format_word(w, rank)

    def test_round_trip_catalog(self):
        for record in catalog() + auxiliary_catalog():
            text = format_presentation(record.presentation)
            assert parse_presentation(text) == record.presentation

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(100):
            relators = []
            for _ in range(2):
                raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 9))]
                relators.append(free_reduce(raw))
            p = make_presentation(2, relators)
            assert parse_presentation(format_presentation(p)) == p


class TestMoveCodes:
    @pytest.mark.parametrize("rank", [1, 2, 3, 27])
    def test_round_trip_every_move(self, rank):
        for m in enumerate_moves(rank):
            assert parse_move(format_move(m, rank), rank) == m

    def test_x_style_conjugators(self):
        assert parse_move("conj:0:x1", 2) == parse_move("conj:0:b", 2)
        assert parse_move("conj:0:X0", 2) == parse_move("conj:0:A", 2)
        assert parse_move("conj:1:X26", 27) == (CONJUGATE, 1, -27)

    def test_sequence_round_trip(self):
        seq = known_trivializations()["T13"]
        text = format_sequence(seq, 2)
        assert parse_sequence(text, 2) == seq

    def test_empty_sequence(self):
        assert format_sequence((), 2) == "-"
        assert parse_sequence("-", 2) == ()

    def test_bad_codes(self):
        for code in ("frob:1", "inv:9", "mul:0:0", "conj:0:q", "inv:x", "conj:0:x2",
                     "conj:0:x01"):
            with pytest.raises(NotationError):
                parse_move(code, 2)
        symbol = re.escape("bad move code 'conj:0:x2': unknown generator symbol 'x2'")
        with pytest.raises(NotationError, match=f"^{symbol}$"):
            parse_move("conj:0:x2", 2)


class TestCatalog:
    def test_size(self):
        assert len(catalog()) == 20

    def test_known_lengths(self):
        expected = {
            "T1": 6, "T5": 10, "T11": 14, "T13": 7, "T29": 21, "T31": 10,
            "T34": 10, "T35": 24, "T39": 10, "T56": 25, "T61": 14, "T63": 24,
            "T66": 14, "T67": 22, "T76": 10, "T81": 19, "T82": 10, "T84": 15,
            "T85": 24,
        }
        for name, length in expected.items():
            assert get_instance(name).known_length == length

    def test_t56(self):
        assert get_instance("T56").known_length == 25

    def test_ak3_unsolved(self):
        assert get_instance("AK3").known_length is None

    def test_all_balanced_rank2(self):
        for record in catalog() + auxiliary_catalog():
            p = record.presentation
            assert p.rank == 2
            assert len(p.relators) == 2
            assert all(free_reduce(r) == r for r in p.relators)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_instance("T999")

    def test_auxiliary_not_in_catalog(self):
        assert all(r.id != "T83" for r in catalog())
        assert get_instance("T83").known_length is None


def hamming(u, v):
    assert len(u) == len(v)
    return sum(1 for x, y in zip(u, v) if x != y)


class TestInstanceSimilarity:
    """First-relator Hamming observations across the catalog family."""

    def test_t81_t82(self):
        r81 = get_instance("T81").presentation.relators[0]
        r82 = get_instance("T82").presentation.relators[0]
        assert hamming(r81, r82) == 4

    def test_t81_t83(self):
        r81 = get_instance("T81").presentation.relators[0]
        r83 = get_instance("T83").presentation.relators[0]
        assert hamming(r81, r83) == 2

    def test_case_insensitive_distance_zero(self):
        r81 = get_instance("T81").presentation.relators[0]
        for other in ("T82", "T83"):
            r = get_instance(other).presentation.relators[0]
            assert hamming([abs(x) for x in r81], [abs(x) for x in r]) == 0


# Tokens of the notation: generator names in both spellings, exponents,
# separators and move codes, plus a few symbols the notation does not use.
NOTATION_TOKENS = list("abcdABCDxX0123456789^-,|<>: \t") + [
    "x0", "X2", "inv", "mul", "conj", "1", "-",
]
WORD_TOKENS = ["a", "b", "c", "A", "B", "C", "d", "x0", "X1", "^", "^2", "^-3",
               "^999", "1", " "]
FIELD_TOKENS = ["0", "1", "2", "3", "-1", "a", "b", "C", "x1", "X0", "q", "", " "]


def _text(tokens, max_size):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


def _joined(part, separator):
    return st.lists(part, max_size=4).map(separator.join)


def fuzz_text(near_valid):
    """Token soup over the whole alphabet, or text shaped like a valid
    input.  _parse_word expands a^N into N letters, so exponents stay at
    3 digits."""
    return st.one_of(_text(NOTATION_TOKENS, 30), near_valid).filter(
        lambda text: not re.search(r"\^-?\d{4}", text)
    )


MOVE_TEXT = st.builds(
    lambda kind, fields: ":".join([kind] + fields),
    st.sampled_from(["inv", "mul", "conj", "frob"]),
    st.lists(st.sampled_from(FIELD_TOKENS), max_size=3),
)
PRESENTATION_TEXT = st.builds(
    "<{}|{}>".format,
    _joined(_text(["a", "b", "c", "x0", "x1", "A", " "], 2), ","),
    _joined(_text(WORD_TOKENS, 8), ","),
)


def relator_strategy(rank):
    letters = [g for g in range(-rank, rank + 1) if g]
    return st.lists(st.sampled_from(letters), max_size=12).map(free_reduce)


@st.composite
def presentations(draw):
    rank = draw(st.integers(1, 3))
    relators = [draw(relator_strategy(rank)) for _ in range(rank)]
    return make_presentation(rank, relators)


@st.composite
def sequences(draw):
    rank = draw(st.integers(1, 3))
    moves = enumerate_moves(rank)
    return rank, tuple(draw(st.lists(st.sampled_from(moves), max_size=12)))


class TestFuzz:
    """Any text over the notation alphabet parses or raises NotationError;
    no other exception type leaks out of the parsers."""

    @given(fuzz_text(PRESENTATION_TEXT))
    def test_parse_presentation(self, text):
        try:
            p = parse_presentation(text)
        except NotationError:
            return
        assert parse_presentation(format_presentation(p)) == p

    @given(fuzz_text(MOVE_TEXT), st.integers(1, 3))
    def test_parse_move(self, text, rank):
        try:
            m = parse_move(text, rank)
        except NotationError:
            return
        assert parse_move(format_move(m, rank), rank) == m

    @given(fuzz_text(_joined(MOVE_TEXT, " ")), st.integers(1, 3))
    def test_parse_sequence(self, text, rank):
        try:
            seq = parse_sequence(text, rank)
        except NotationError:
            return
        assert parse_sequence(format_sequence(seq, rank), rank) == seq

    @given(presentations())
    def test_presentation_round_trip(self, p):
        assert parse_presentation(format_presentation(p)) == p

    @given(sequences())
    def test_sequence_round_trip(self, case):
        rank, seq = case
        assert parse_sequence(format_sequence(seq, rank), rank) == seq
