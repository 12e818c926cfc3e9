"""Slow reference for AC-moves, independent of the library's move kernel.

Each move is spelled out as raw letter concatenation followed by one
``free_reduce``; nothing here calls ``invert_word``, ``concat_reduce`` or
``apply_to_relators``.  Tests compare the fast paths against it.
"""

from actriv.presentations import CONJUGATE, INVERT, MULTIPLY
from actriv.words import free_reduce


def reference_apply(rels, m):
    """Relators after move m, as a new tuple; rels is not modified."""
    kind, i, x = m
    w = tuple(rels[i])
    if kind == INVERT:
        new = free_reduce(tuple(-t for t in w[::-1]))
    elif kind == MULTIPLY:
        new = free_reduce(w + tuple(rels[x]))
    elif kind == CONJUGATE:
        new = free_reduce((x,) + w + (-x,))
    else:
        raise ValueError(f"unknown move kind {kind}")
    return tuple(rels[:i]) + (new,) + tuple(rels[i + 1 :])


def reference_trace(rels, moves):
    """Yield the relator tuples of the trace, the start included.  Lazy, so
    a caller can stop before a run of products blows the lengths up."""
    rels = tuple(rels)
    yield rels
    for m in moves:
        rels = reference_apply(rels, m)
        yield rels


def total(rels):
    return sum(len(r) for r in rels)
