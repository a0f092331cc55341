"""Verdicts with replayable witnesses.

Every checker in this package reports through one type.  A failed check
always carries at least one failure.  Its witness is a concrete
instantiation of the failed axiom's quantifiers, named as in the axiom, so
the failure can be replayed against the axiom predicate directly.  Checkers evaluate every axiom and
list each failed one with its canonically smallest witness; the first entry
is the primary failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class AxiomFailure:
    """One failed axiom plus the witness instantiating its quantifiers."""

    axiom: str
    witness: Mapping[str, Any]
    note: str = ""


@dataclass(frozen=True)
class CheckReport:
    """One verdict: it passes exactly when it lists no failure."""

    check: str
    failures: tuple[AxiomFailure, ...] = ()
    notes: str = ""
    details: Mapping[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failed_axiom(self) -> str | None:
        return self.failures[0].axiom if self.failures else None

    @property
    def witness(self) -> Mapping[str, Any] | None:
        return self.failures[0].witness if self.failures else None

    def failure_for(self, axiom: str) -> AxiomFailure | None:
        for f in self.failures:
            if f.axiom == axiom:
                return f
        return None
