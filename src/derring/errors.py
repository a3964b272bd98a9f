"""Shared exception types.

A ``MathRejection`` means the input was well formed but the requested
object does not exist (a map that is not multiplicative, a relator image
that does not vanish, a dependent generating subset, ...).  The CLI maps
these to exit code 1, as opposed to malformed input which exits 2 and
any other exception, an internal error, which exits 3.
"""

from __future__ import annotations


class MathRejection(Exception):
    """Well-formed input rejected on mathematical grounds."""


class HomomorphismRejected(MathRejection):
    """A generator-image map does not extend to a group endomorphism."""

    def __init__(self, message, relator=None, pair=None):
        super().__init__(message)
        self.relator = relator
        self.pair = pair


class DerivationRejected(MathRejection):
    """A candidate map does not extend to a twisted derivation."""

    def __init__(self, message, relator=None, value=None, pair=None):
        super().__init__(message)
        self.relator = relator
        self.value = value
        self.pair = pair


class DependentSubset(MathRejection):
    """The chosen image rows are linearly dependent."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
