"""Search engine and verifier for AC-trivializations of balanced
group presentations."""

from .words import (
    Word,
    canonical_rep,
    concat_reduce,
    free_reduce,
    invert_word,
    shortlex_cmp,
)
from .presentations import (
    AcMove,
    MoveSequence,
    Presentation,
    apply_move,
    canonical_form,
    conjugate_move,
    enumerate_moves,
    invert_move,
    multiply_move,
    total_length,
    trivial_presentation,
)
from .ball import Ball, FitnessCase, TrainingSet, build_ball, lookup, sample_cases
from .catalog import InstanceRecord, get_instance, known_trivializations
from .notation import format_presentation, parse_presentation

__version__ = "0.1.0"
