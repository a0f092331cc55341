"""Verdicts with replayable witnesses.

Every checker in this package reports through one type.  A failed check
always carries at least one failure.  Its witness is a concrete
instantiation of the failed axiom's quantifiers, named as in the axiom, so
the failure can be replayed against the axiom predicate directly.  Checkers evaluate every axiom and
list each failed one with its canonically smallest witness; the first entry
is the primary failure.
"""

from __future__ import annotations

from typing import Any, Mapping

from .core import Immutable


class AxiomFailure(Immutable):
    """One failed axiom plus the witness instantiating its quantifiers."""

    _fields = ("axiom", "witness", "note")

    def __init__(self, axiom: str, witness: Mapping[str, Any], note: str = ""):
        self.__dict__.update(axiom=axiom, witness=witness, note=note)


class CheckReport(Immutable):
    """One verdict: it passes exactly when it lists no failure."""

    _fields = ("check", "failures", "notes", "details")

    def __init__(
        self,
        check: str,
        failures: tuple[AxiomFailure, ...] = (),
        notes: str = "",
        details: Mapping[str, Any] | None = None,
    ):
        self.__dict__.update(check=check, failures=failures, notes=notes, details=details or {})

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
