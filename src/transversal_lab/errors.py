"""Exception types shared across the toolkit."""

from __future__ import annotations


class TransversalLabError(Exception):
    """Base class for all toolkit errors."""


class BudgetExceeded(TransversalLabError):
    """A search hit its node or wall-clock budget before exhausting its
    space; graphs.Budget records which limit and how many nodes."""


class CapExceeded(TransversalLabError):
    """A generator would exceed its vertex or size cap."""


class MalformedInput(TransversalLabError):
    """Unparseable graph6/digraph6 text or invalid structured input."""


class VerificationError(TransversalLabError):
    """A result failed its re-verification predicate before emission."""


class NotACounterexample(VerificationError):
    """A digraph offered as a counterexample contains a forbidden structure.

    ``kind`` is "transitive" or "independent"; ``witness`` is the offending
    vertex tuple (ordered for transitive sets, sorted for independent sets).
    A search that checks its own candidate fails verification with it.
    """

    def __init__(self, kind: str, witness: tuple):
        article = "an" if kind == "independent" else "a"
        super().__init__(f"digraph contains {article} {kind} witness {witness}")
        self.kind = kind
        self.witness = witness
