"""Verification reports shared by the structural verifiers."""

from __future__ import annotations

from dataclasses import dataclass

# A per-element scan spells out at most this many failures of a kind and
# then one ``(kind, "<N> more")``, so an empty payload cannot make a report
# as large as the lattice.
_WITNESS_CAP = 1000


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
