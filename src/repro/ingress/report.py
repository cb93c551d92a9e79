"""Canonical run report of one ingress-plane run.

Same contract as the chaos :class:`~repro.chaos.report.RunReport`: every
field is simulated-time only, the JSON encoding is canonical (sorted
keys, fixed separators), and :meth:`IngressReport.digest` over it is the
byte-determinism check — two same-seed runs must produce identical
digests *and* identical event-log digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from ..canonical import canonical_json, sha256_hex

#: v2: the report embeds the assembled trace-plane digest and the
#: per-stage critical-path latency attribution.
REPORT_SCHEMA = "repro.ingress_report/v2"


@dataclass
class IngressReport:
    """Everything one ingress run observed, in canonical form.

    Attributes:
        seed: stream + world seed.
        duration_s: stream horizon in virtual seconds.
        config: the run's sizing knobs (for reproduction).
        totals: dispatcher/worker counters (offered, enqueued, coalesced,
            shed, dropped, delayed, decisions, idle refreshes).
        decisions_by_source: decision counts per serve source.
        decisions: every committed decision, in order: time, meeting,
            cid, trigger, source, batch size, solution digest, latency.
        latency: virtual decision-latency quantiles (p50/p95/max).
        checks: invariant evaluation counts.
        violations: failed invariant evaluations (empty on a healthy run).
        meetings: per-meeting closing summary (decisions, mailbox stats).
        events_total: structured events emitted during the run.
        event_digest: SHA-256 of the run's canonical event-log JSONL.
        trace_digest: SHA-256 of the trace plane assembled from the
            event log (``repro.obs.tracing``).
        stages: per-stage critical-path attribution — span count and
            total attributed virtual seconds per stage name.
    """

    seed: int
    duration_s: float
    config: Dict[str, Union[int, float, str, bool]] = field(
        default_factory=dict
    )
    totals: Dict[str, int] = field(default_factory=dict)
    decisions_by_source: Dict[str, int] = field(default_factory=dict)
    decisions: List[dict] = field(default_factory=list)
    latency: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, int] = field(default_factory=dict)
    violations: List[dict] = field(default_factory=list)
    meetings: Dict[str, dict] = field(default_factory=dict)
    events_total: int = 0
    event_digest: str = ""
    trace_digest: str = ""
    stages: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def to_dict(self) -> dict:
        """The full canonical encoding."""
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "config": dict(sorted(self.config.items())),
            "totals": dict(sorted(self.totals.items())),
            "decisions_by_source": dict(
                sorted(self.decisions_by_source.items())
            ),
            "decisions": self.decisions,
            "latency": {k: self.latency[k] for k in sorted(self.latency)},
            "checks": dict(sorted(self.checks.items())),
            "violations": self.violations,
            "meetings": {k: self.meetings[k] for k in sorted(self.meetings)},
            "events_total": self.events_total,
            "event_digest": self.event_digest,
            "trace_digest": self.trace_digest,
            "stages": {k: self.stages[k] for k in sorted(self.stages)},
            "ok": self.ok,
        }

    def to_json(self) -> str:
        """Canonical JSON: the byte string the digest is computed over."""
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """SHA-256 over the canonical JSON encoding."""
        return sha256_hex(self.to_json())

    def summary(self) -> str:
        """Human-readable one-screen summary."""
        totals = dict(sorted(self.totals.items()))
        lines = [
            f"ingress run: seed={self.seed} duration={self.duration_s:g}s "
            f"-> {'OK' if self.ok else 'VIOLATIONS'}",
            f"  events offered: {totals.get('offered', 0)} "
            f"(dropped {totals.get('dropped', 0)}, "
            f"delayed {totals.get('delayed', 0)})",
            f"  decisions: {totals.get('decisions', 0)} "
            f"{self.decisions_by_source} "
            f"(coalesced {totals.get('coalesced', 0)}, "
            f"shed {totals.get('shed', 0)})",
            f"  latency (virtual): p50={self.latency.get('p50_s', 0.0):.3f}s "
            f"p95={self.latency.get('p95_s', 0.0):.3f}s "
            f"max={self.latency.get('max_s', 0.0):.3f}s",
            f"  invariant checks: {dict(sorted(self.checks.items()))}",
        ]
        if self.events_total:
            lines.append(
                f"  events: {self.events_total} "
                f"digest={self.event_digest[:12]}…"
            )
        if self.trace_digest:
            shares = " ".join(
                f"{stage}={info.get('total_s', 0.0):.3f}s"
                for stage, info in sorted(self.stages.items())
            )
            lines.append(
                f"  traces: digest={self.trace_digest[:12]}… {shares}"
            )
        if self.violations:
            lines.append(f"  VIOLATIONS: {len(self.violations)}")
            for violation in self.violations[:5]:
                lines.append(
                    f"    [{violation.get('at_s', 0)}s] "
                    f"{violation.get('meeting', '?')}: "
                    f"{violation.get('invariant', '?')} — "
                    f"{violation.get('detail', '')}"
                )
        return "\n".join(lines)
