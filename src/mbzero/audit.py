"""Audit ledger primitives.

An AuditReport records one numerically evaluated identity: both sides,
the discrepancy, and a verdict.  Audits inform, they never gate: several
of the identities under test are expected to fail or diverge, and the
ledger's job is the honest measurement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

VERDICTS = ("pass", "fail", "divergent", "inconclusive")


@dataclass(frozen=True)
class AuditReport:
    lhs: complex
    rhs: complex
    abs_discrepancy: float
    rel_discrepancy: float
    verdict: str
    notes: str = ""
    extra: dict = field(default_factory=dict)
    claim_id: str = ""  # its claims.REGISTRY key, set by claims.run_claim

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict {self.verdict!r} not in {VERDICTS}")

    def to_json_dict(self) -> dict:
        out = {
            "claim_id": self.claim_id,
            "lhs": _jsonable(complex(self.lhs)),
            "rhs": _jsonable(complex(self.rhs)),
            "abs_discrepancy": _jsonable(self.abs_discrepancy),
            "rel_discrepancy": _jsonable(self.rel_discrepancy),
            "verdict": self.verdict,
            "notes": self.notes,
        }
        if self.extra:
            out["extra"] = {k: _jsonable(v) for k, v in sorted(self.extra.items())}
        return out


def _jsonable(v):
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(v, complex):
        return {"re": _jsonable(v.real), "im": _jsonable(v.imag)}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in sorted(v.items())}
    return v


def ledger_json(reports: list) -> str:
    """Serialize reports as the deterministic audit ledger (sorted keys)."""
    payload = {
        "format": "mbzero-audit-ledger v1",
        "claims": [r.to_json_dict() for r in
                   sorted(reports, key=lambda r: r.claim_id)],
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
