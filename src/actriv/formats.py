"""The text layer under every actriv file.

An actriv file starts with a header line ``# actriv-<kind> key=value ...``
and holds one record per line after it, as tab-separated fields; every
file holds at least one record.  In every file read here, user-written
ones included, text after ``#`` is a comment and a line holding nothing
else is skipped; a written file holds no comment but its header.
This module reads and writes that layer: the header, the records, the
field parsers, and the one writer, which writes to a temporary file and
renames it over the target so a reader never sees a partial file.  Every
read error is a ``ValueError`` that names ``path`` or ``path:line``; a
write error is an ``OSError`` that names the target, not the temporary file.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from itertools import chain
from typing import Iterable

from . import notation
from .presentations import AcMove, MoveSequence, Presentation

_PREFIX = "actriv-"


class Header:
    """The ``key=value`` fields of a file's header line."""

    def __init__(self, path: str, fields: dict[str, str]):
        self.path = path
        self.fields = fields

    def _get(self, key: str) -> str:
        if key not in self.fields:
            raise ValueError(f"{self.path}: header has no '{key}'")
        return self.fields[key]

    def int(self, key: str) -> int:
        return parse_int(self._get(key), f"header {key}", self.path)

    def float(self, key: str) -> float:
        return parse_float(self._get(key), f"header {key}", self.path)


@contextmanager
def open_text(path: str):
    """``path`` as UTF-8 text; bytes that do not decode are a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def kind_of(path: str) -> str | None:
    """The ``<kind>`` of the file's ``# actriv-<kind>`` header, if it has one."""
    with open_text(path) as fh:
        parts = fh.readline().lstrip("#").split()
    if parts and parts[0].startswith(_PREFIX):
        return parts[0][len(_PREFIX) :]
    return None


def _parse_header(line: str, kind: str, path: str) -> Header:
    parts = line.strip().lstrip("#").split()
    if not parts or parts[0] != _PREFIX + kind:
        raise ValueError(f"{path}: missing '{_PREFIX}{kind}' header")
    fields = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"{path}: header field {part!r} is not key=value")
        if key in fields:
            raise ValueError(f"{path}: header key '{key}' is given twice")
        fields[key] = value
    return Header(path, fields)


def _lines(fh, path: str, start: int):
    """``(path:line, text)`` of each line of ``fh`` from line ``start`` on,
    cut at ``#`` and stripped; a line left empty is skipped."""
    for line_no, line in enumerate(fh, start):
        text = line.partition("#")[0].strip()
        if text:
            yield f"{path}:{line_no}", text


def read_lines(path: str) -> list[tuple[str, str]]:
    """``(path:line, text)`` of each line of a file with no header."""
    with open_text(path) as fh:
        return list(_lines(fh, path, 1))


def _records(lines, path: str, count: int):
    where = None
    for where, line in lines:
        fields = line.split("\t")
        if len(fields) != count:
            raise ValueError(
                f"{where}: expected {count} tab-separated fields, got {len(fields)}"
            )
        yield where, fields
    if where is None:
        raise ValueError(f"{path}: no records")


@contextmanager
def read_file(path: str, kind: str, count: int):
    """Open the ``kind`` file at ``path``; gives its ``Header`` and an
    iterator of ``(path:line, fields)``, one per record of ``count``
    fields.  Lines are read as the iterator advances, never all at once;
    a file with no record raises when the iterator ends."""
    with open_text(path) as fh:
        header = _parse_header(fh.readline(), kind, path)
        yield header, _records(_lines(fh, path, 2), path, count)


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated ``chunks`` to ``path`` through a temporary
    file renamed over it.  If producing a chunk raises, ``path`` is left
    as it was and the temporary file is removed."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_file(
    path: str, kind: str, header: dict, records: Iterable[Iterable[str]]
) -> None:
    """Write a ``kind`` file: the header with the ``header`` fields in
    order, then one line of tab-separated fields per record."""
    fields = "".join(f" {key}={value}" for key, value in header.items())
    lines = ("\t".join(record) + "\n" for record in records)
    write_atomic(path, chain([f"# {_PREFIX}{kind}{fields}\n"], lines))


def parse_int(text: str, what: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: {what} {text!r} is not an integer") from None


def parse_float(text: str, what: str, where: str) -> float:
    """A finite float; ``nan`` and the infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where}: {what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: {what} {text!r} is not finite")
    return value


def _located(where: str, parse, *args):
    """``parse(*args)``, with a notation error re-raised naming ``where``."""
    try:
        return parse(*args)
    except notation.NotationError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def parse_presentation(text: str, rank: int, where: str) -> Presentation:
    """A presentation field of a file whose header declares ``rank``."""
    p = _located(where, notation.parse_presentation, text)
    if p.rank != rank:
        raise ValueError(f"{where}: {p.rank} relators in a rank {rank} file")
    return p


def parse_move(text: str, rank: int, where: str) -> AcMove:
    return _located(where, notation.parse_move, text, rank)


def parse_sequence(text: str, rank: int, where: str) -> MoveSequence:
    return _located(where, notation.parse_sequence, text, rank)
