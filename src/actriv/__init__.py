"""Search engine and verifier for AC-trivializations of balanced
group presentations."""

__version__ = "0.1.0"
