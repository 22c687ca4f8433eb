"""Verification reports shared by the structural verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a structural check.

    ``failures`` holds (kind, witness) pairs and the report is ok exactly
    when that list is empty.  ``element_count`` and ``chain_count`` record
    how much was examined, so callers can audit coverage claims instead of
    trusting a bare boolean.
    """

    element_count: int
    chain_count: int
    failures: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "element_count": self.element_count,
            "chain_count": self.chain_count,
            "failures": [list(item) for item in self.failures],
        }


def report(element_count: int, chain_count: int,
           failures: Iterable[tuple[str, str]]) -> VerificationReport:
    return VerificationReport(element_count, chain_count, tuple(failures))
