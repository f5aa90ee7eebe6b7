"""Exception types shared across the package.

Every domain error carries a stable ``kind`` string (its class name) so the
CLI can report structured errors without string matching.
"""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def kind(self) -> str:
        return type(self).__name__


# ring construction / arithmetic

class InvalidTables(WorkbenchError):
    """An operation table violates a ring axiom."""

    def __init__(self, law: str, witness=None, detail: str = ""):
        self.law = law
        self.witness = witness
        msg = f"ring axiom violated: {law}"
        if witness is not None:
            msg += f" at {witness}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SizeCapExceeded(WorkbenchError):
    pass


class NotSquare(WorkbenchError):
    pass


class BadShape(WorkbenchError):
    pass


# Wedderburn pipeline

class NotSemisimple(WorkbenchError):
    pass


class DecompositionFailed(WorkbenchError):
    pass


class NotIdempotent(WorkbenchError):
    pass


class NoConvergence(WorkbenchError):
    pass


class ConjugatorNotFound(WorkbenchError):
    pass


class RecoverOutsideImage(WorkbenchError):
    pass


# morphism calculus

class InvalidMorphism(WorkbenchError):
    pass


class NotSurjective(WorkbenchError):
    pass


class RankMismatch(WorkbenchError):
    pass


class NoSolution(WorkbenchError):
    pass


class NotColumnAdapted(WorkbenchError):
    pass


# orderings

class SourceMismatch(WorkbenchError):
    pass


class InvalidMove(WorkbenchError):
    pass


class SearchBudgetExceeded(WorkbenchError):
    """The move search ran out of nodes; the answer is unknown, not 'no'."""


class InvalidChain(WorkbenchError):
    pass


# module engine

class BudgetExceeded(WorkbenchError):
    pass


class DegreeMismatch(WorkbenchError):
    pass


class FieldMismatch(WorkbenchError):
    """An element's coefficient field is not the one of the span it meets."""


class ZeroElement(WorkbenchError):
    pass


class HorizonExceeded(WorkbenchError):
    pass


class CounterexampleFound(WorkbenchError):
    pass


# CLI

class UsageError(WorkbenchError):
    pass
