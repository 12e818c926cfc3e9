"""Text syntax for presentations, moves and move sequences.

Presentations are written ``<a,b|a^2bAB,b^2aBA>``: lowercase generators,
uppercase inverses, optional integer exponents, ``1`` for the empty
relator.  Generators may equally be declared in the ``x0,x1`` style
(``X0`` is then the inverse of ``x0``).  Formatting always uses the
``a,b,...`` alphabet, so ``parse(format(p)) == p``.

Moves are written ``inv:i``, ``mul:i:j`` and ``conj:i:c`` where ``c`` is
the conjugator letter in either style (``conj:1:a`` or ``conj:1:x0`` maps
relator 1 to ``a r A``).  A move sequence is whitespace-separated move
codes; the empty sequence is ``-``.
"""

from __future__ import annotations

from functools import lru_cache

from .presentations import (
    CONJUGATE,
    INVERT,
    MULTIPLY,
    AcMove,
    MoveSequence,
    Presentation,
    check_move,
    make_presentation,
)
from .words import Word, shortlex_key

_ASCII_GENS = "abcdefghijklmnopqrstuvwxyz"
# the longest word a text may spell out, so a large exponent fails before
# it allocates
MAX_WORD_LENGTH = 100_000


class NotationError(ValueError):
    pass


def generator_name(index: int, rank: int) -> str:
    if rank <= len(_ASCII_GENS):
        return _ASCII_GENS[index]
    return f"x{index}"


@lru_cache(maxsize=None)
def _letter_tokens(rank: int) -> dict[str, int]:
    """Name -> letter for each name of a letter at ``rank``: its ``x0``/``X0``
    name, then the name ``format_letter`` prints; one table per rank."""
    names = [generator_name(i, rank) for i in range(rank)]
    return {**_token_map([f"x{i}" for i in range(rank)]), **_token_map(names)}


@lru_cache(maxsize=None)
def _letter_names(rank: int) -> dict[int, str]:
    """Letter -> the name ``format_letter`` prints, the last of its names
    in ``_letter_tokens``."""
    return {letter: name for name, letter in _letter_tokens(rank).items()}


def _out_of_range(letter: int, rank: int) -> ValueError:
    return ValueError(f"letter {letter} out of range for rank {rank}")


def format_letter(letter: int, rank: int) -> str:
    try:
        return _letter_names(rank)[letter]
    except KeyError:
        raise _out_of_range(letter, rank) from None


def format_word(w: Word, rank: int) -> str:
    """Word with runs collapsed to exponents, e.g. (1,1,2,-1,-2) -> 'a^2bAB'.
    Each letter is spelled from the rank's letter table, in one pass; a
    letter outside the rank is a ValueError."""
    if not w:
        return "1"
    names = _letter_names(rank)
    out = []
    run_letter, run_len = w[0], 0
    try:
        for x in w:
            if x == run_letter:
                run_len += 1
            else:
                name = names[run_letter]
                out.append(name if run_len == 1 else f"{name}^{run_len}")
                run_letter, run_len = x, 1
        name = names[run_letter]
    except KeyError as exc:
        raise _out_of_range(exc.args[0], rank) from None
    out.append(name if run_len == 1 else f"{name}^{run_len}")
    return "".join(out)


class Spelling(dict):
    """A cache from word to its ``format_word`` text at one rank, so that a
    caller writing many presentations spells each distinct relator once."""

    def __init__(self, rank: int):
        super().__init__()
        self.rank = rank
        self.generators = ",".join(generator_name(i, rank) for i in range(rank))

    def __missing__(self, w: Word) -> str:
        text = self[w] = format_word(w, self.rank)
        return text

    def presentation(self, relators) -> str:
        """The ``<gens|rels>`` text of these relators, in their order."""
        return f"<{self.generators}|{','.join(map(self.__getitem__, relators))}>"


def format_presentation(p: Presentation, sorted_relators: bool = False) -> str:
    """Textual form; with sorted_relators the relators are shown in shortlex
    (C1) order without touching the presentation itself."""
    relators = p.relators
    if sorted_relators:
        relators = tuple(sorted(relators, key=shortlex_key))
    return Spelling(p.rank).presentation(relators)


def _token_map(names: list[str]) -> dict[str, int]:
    tokens: dict[str, int] = {}
    for idx, name in enumerate(names):
        inverse = name[0].upper() + name[1:]
        if name in tokens or inverse in tokens or name == inverse:
            raise NotationError(f"ambiguous generator name {name!r}")
        tokens[name] = idx + 1
        tokens[inverse] = -(idx + 1)
    return tokens


def _parse_word(text: str, tokens: dict[str, int], max_len: int) -> list[int]:
    text = text.strip()
    if text == "1" or text == "":
        return []
    letters: list[int] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        match = None
        for width in range(min(max_len, n - pos), 0, -1):
            candidate = text[pos : pos + width]
            if candidate in tokens:
                match = candidate
                break
        if match is None:
            raise NotationError(f"unknown generator symbol at {text[pos:]!r}")
        letter = tokens[match]
        pos += len(match)
        count = 1
        if pos < n and text[pos] == "^":
            pos += 1
            start = pos
            if pos < n and text[pos] == "-":
                pos += 1
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == start or text[start:pos] == "-":
                raise NotationError(f"malformed exponent in {text!r}")
            try:
                count = int(text[start:pos])
            except ValueError as exc:  # more digits than int() accepts
                raise NotationError(f"exponent too large in {text!r}") from exc
        if count < 0:
            letter, count = -letter, -count
        if len(letters) + count > MAX_WORD_LENGTH:
            raise NotationError(
                f"word longer than {MAX_WORD_LENGTH} letters in {text!r}"
            )
        letters.extend([letter] * count)
    return letters


def parse_presentation(text: str) -> Presentation:
    """Parse `< g1,...,gn | w1,...,wn >` into a freely reduced Presentation."""
    body = text.strip()
    if body.startswith("<") != body.endswith(">"):
        raise NotationError(f"unmatched bracket in presentation {text!r}")
    if body.startswith("<"):
        body = body[1:-1]
    if "|" not in body:
        raise NotationError(f"missing '|' in presentation {text!r}")
    gen_part, rel_part = body.split("|", 1)
    names = [g.strip() for g in gen_part.split(",") if g.strip()]
    if not names:
        raise NotationError(f"no generators declared in {text!r}")
    tokens = _token_map(names)
    max_len = max(len(t) for t in tokens)
    relators = [
        _parse_word(chunk, tokens, max_len) for chunk in rel_part.split(",")
    ]
    try:
        return make_presentation(len(names), relators)
    except ValueError as exc:
        raise NotationError(str(exc)) from exc


def format_move(m: AcMove, rank: int) -> str:
    kind, i, x = m
    if kind == INVERT:
        return f"inv:{i}"
    if kind == MULTIPLY:
        return f"mul:{i}:{x}"
    return f"conj:{i}:{format_letter(x, rank)}"


def parse_move(code: str, rank: int) -> AcMove:
    parts = code.strip().split(":")
    try:
        if parts[0] == "inv" and len(parts) == 2:
            move = (INVERT, int(parts[1]), 0)
        elif parts[0] == "mul" and len(parts) == 3:
            move = (MULTIPLY, int(parts[1]), int(parts[2]))
        elif parts[0] == "conj" and len(parts) == 3:
            move = (CONJUGATE, int(parts[1]), _letter_tokens(rank)[parts[2]])
        else:
            raise NotationError(f"unknown move code {code!r}")
    except KeyError as exc:  # a conjugator name; str(exc) is its repr
        raise NotationError(f"bad move code {code!r}: unknown generator symbol {exc}")
    except ValueError as exc:
        raise NotationError(f"bad move code {code!r}: {exc}") from exc
    try:
        check_move(move, rank)
    except ValueError as exc:
        raise NotationError(f"bad move code {code!r}: {exc}") from exc
    return move


def format_sequence(moves, rank: int) -> str:
    codes = [format_move(m, rank) for m in moves]
    return " ".join(codes) if codes else "-"


def parse_sequence(text: str, rank: int) -> MoveSequence:
    text = text.strip()
    if text == "-" or not text:
        return ()
    return tuple(parse_move(code, rank) for code in text.split())
