"""Fleet-scale ingress streams: 10^5-user event loads for the plane.

:mod:`repro.deploy.vectorfleet` answers "how many solves per second can
the fleet sustain" analytically; this module asks the *event-driven*
question: how many stream events per second can one ingress plane
dispatch, coalesce and decide while virtual p95 decision latency stays
interactive.  The fleet workload sampler provides the meeting mix; a
:class:`ModeledBackend` replaces the real solver with the same
``SEC_PER_COST`` analytic service-time model the placement frontier
uses, so a 20k-meeting stream runs in seconds of wall clock while the
plane machinery (mailboxes, windows, executor slots) is exercised for
real.

Everything is seeded and virtual-time only: the canonical result dict
is byte-identical across double runs, and wall-clock throughput is
reported separately (never digested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..canonical import canonical_json, sha256_hex
from ..cluster.scheduler import SolveScheduler
from ..obs.tracing import STAGE_SOLVE, LatencyProfile
from ..ingress.aio import SimRuntime
from ..ingress.events import SembReport, StreamEvent
from ..ingress.plane import (
    BackendDecision,
    IngressBackend,
    IngressConfig,
    IngressPlane,
)
from .vectorfleet import SEC_PER_COST, FleetWorkload, sample_fleet


@dataclass
class FleetStreamConfig:
    """Sizing of one fleet-scale ingress run.

    The envelope is deliberately tighter than the Fig. 12 meeting
    envelope: at fleet scale the plane paces *dispatch*, not per-meeting
    solve cadence, and the benchmark's latency gate is interactive
    (p95 <= 0.25 s).
    """

    duration_s: float = 2.0
    report_interval_s: float = 1.0
    min_interval_s: float = 0.05
    max_interval_s: float = 0.25
    mailbox_capacity: int = 4
    solve_slots: int = 128
    max_in_flight: int = 512
    sec_per_cost: float = SEC_PER_COST
    service_floor_s: float = 1e-4
    #: "analytic" (SEC_PER_COST closed form, the default) or "measured"
    #: (sample solve service times from a recorded latency profile).
    service_mode: str = "analytic"
    #: Seed for the measured mode's per-decision profile draws.
    profile_seed: int = 0

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "report_interval_s": self.report_interval_s,
            "min_interval_s": self.min_interval_s,
            "max_interval_s": self.max_interval_s,
            "mailbox_capacity": self.mailbox_capacity,
            "solve_slots": self.solve_slots,
            "max_in_flight": self.max_in_flight,
            "sec_per_cost": self.sec_per_cost,
            "service_floor_s": self.service_floor_s,
            "service_mode": self.service_mode,
            "profile_seed": self.profile_seed,
        }


class ModeledBackend(IngressBackend):
    """Modeled decision engine over a sampled fleet workload.

    Payloads are solve costs; decisions are content-free but
    deterministically tagged (per-meeting counters), so double runs
    produce identical decision streams.  Service times come from one of
    two models:

    * **analytic** (default) — the placement frontier's ``SEC_PER_COST``
      closed form (an M/M/1-style cost-proportional service time);
    * **measured** — seeded draws from a recorded
      ``repro.latency_profile/v1`` solve-stage distribution
      (``repro.obs.tracing.LatencyProfile``), closing the loop between
      the real cluster solve path's observed latency and the modeled fleet.
      Draws are keyed by ``(meeting, nth service)`` so they are
      independent of scheduling order — the byte-determinism contract
      survives executor interleaving.
    """

    def __init__(
        self,
        workload: FleetWorkload,
        config: FleetStreamConfig,
        profile: Optional["LatencyProfile"] = None,
    ) -> None:
        if config.service_mode not in ("analytic", "measured"):
            raise ValueError(
                f"unknown service_mode {config.service_mode!r}"
            )
        if config.service_mode == "measured" and profile is None:
            raise ValueError("measured service_mode requires a profile")
        self.workload = workload
        self.config = config
        self.profile = profile
        self.min_interval_s = config.min_interval_s
        self.max_interval_s = config.max_interval_s
        self._pacer = SolveScheduler(
            min_interval_s=config.min_interval_s,
            max_interval_s=config.max_interval_s,
        )
        self._decisions: Dict[str, int] = {}
        self._draws: Dict[str, int] = {}
        self.sheds = 0

    def apply_event(self, event: StreamEvent) -> None:
        return  # fleet SEMB reports carry load, not state mutations

    def payload(self, meeting: str) -> float:
        return float(self.workload.costs[int(meeting.split("-", 1)[1])])

    def service_s(self, meeting: str, payload: object) -> float:
        if self.config.service_mode == "measured":
            n = self._draws.get(meeting, 0) + 1
            self._draws[meeting] = n
            assert self.profile is not None
            drawn = self.profile.sample(
                STAGE_SOLVE,
                key=f"{meeting}#{n}",
                seed=self.config.profile_seed,
            )
            return max(self.config.service_floor_s, drawn)
        return max(
            self.config.service_floor_s,
            float(payload) * self.config.sec_per_cost,
        )

    def backpressure_window_s(
        self, meeting: str, depth: int, capacity: int
    ) -> float:
        return self._pacer.backpressure_window_s(depth, capacity)

    def over_budget(self, meeting: str, in_flight: int) -> bool:
        return in_flight >= self.config.max_in_flight

    def _tag(self, meeting: str) -> str:
        n = self._decisions.get(meeting, 0) + 1
        self._decisions[meeting] = n
        return f"{meeting}#{n}"

    def decide(self, meeting, payload, now_s, trigger, cid):
        return BackendDecision(source="solve", digest=self._tag(meeting))

    def shed(self, meeting, payload, now_s, trigger, cid):
        self.sheds += 1
        return BackendDecision(source="shed", digest=self._tag(meeting))


def generate_fleet_stream(
    seed: int,
    workload: FleetWorkload,
    config: Optional[FleetStreamConfig] = None,
) -> List[StreamEvent]:
    """One seeded SEMB round per meeting per report interval, vectorized.

    Each meeting reports at a random phase inside every interval, so
    arrivals spread uniformly instead of thundering at round boundaries.
    Events are sorted by ``(time, meeting index)`` and numbered — the
    stable offer order the plane's determinism contract needs.
    """
    cfg = config or FleetStreamConfig()
    meetings = workload.meetings
    rounds = max(1, int(cfg.duration_s / cfg.report_interval_s))
    rng = np.random.default_rng(seed)
    # One phase draw per meeting per round: shape (rounds, meetings).
    phases = rng.random((rounds, meetings)) * cfg.report_interval_s
    base = (
        np.arange(rounds, dtype=np.float64)[:, None] * cfg.report_interval_s
    )
    times = np.round((base + phases).ravel(), 6)
    meeting_idx = np.tile(np.arange(meetings), rounds)
    order = np.lexsort((meeting_idx, times))
    return [
        SembReport(
            at_s=float(times[i]),
            meeting=workload.meeting_id(int(meeting_idx[i])),
            seq=int(seq),
        )
        for seq, i in enumerate(order)
    ]


def run_fleet_ingress(
    seed: int,
    users: int = 100_000,
    config: Optional[FleetStreamConfig] = None,
    workload: Optional[FleetWorkload] = None,
    profile: Optional[LatencyProfile] = None,
) -> dict:
    """Drive a fleet-scale SEMB stream through one ingress plane.

    Returns a result dict with two sections: ``canonical`` (virtual-time
    only; byte-identical across same-seed runs — compare
    :func:`canonical_digest` for the determinism gate) and ``wall``
    (host timing: dispatch throughput in events per wall second).

    ``profile`` supplies the measured solve-latency distribution when
    ``config.service_mode == "measured"``.
    """
    cfg = config or FleetStreamConfig()
    fleet = workload if workload is not None else sample_fleet(seed, users)
    stream = generate_fleet_stream(seed, fleet, cfg)
    runtime = SimRuntime()
    backend = ModeledBackend(fleet, cfg, profile=profile)
    plane = IngressPlane(
        runtime,
        backend,
        IngressConfig(
            mailbox_capacity=cfg.mailbox_capacity,
            solve_slots=cfg.solve_slots,
            service_s_per_cost=cfg.sec_per_cost,
            service_floor_s=cfg.service_floor_s,
            idle_refresh=False,
            drain_s=cfg.max_interval_s + 1.0,
        ),
    )
    start = time.perf_counter()
    plane.run_stream(stream, duration_s=cfg.duration_s)
    elapsed = time.perf_counter() - start
    stats = plane.stats
    canonical = {
        "schema": "repro.fleet_ingress/v1",
        "seed": seed,
        "users": fleet.users,
        "meetings": fleet.meetings,
        "config": cfg.to_dict(),
        "profile_digest": profile.digest() if profile is not None else "",
        "events": len(stream),
        "offered": stats.offered,
        "decisions": stats.decisions,
        "coalesced": stats.coalesced,
        "shed": stats.shed,
        "evicted": stats.evicted,
        "max_mailbox_depth": stats.max_mailbox_depth,
        "latency": {
            "p50_s": round(plane.latency_percentile_s(0.50), 6),
            "p95_s": round(plane.latency_percentile_s(0.95), 6),
            "max_s": round(
                max((d.latency_s for d in plane.decisions), default=0.0), 6
            ),
        },
    }
    return {
        "canonical": canonical,
        "wall": {
            "elapsed_s": elapsed,
            "events_per_sec": (len(stream) / elapsed) if elapsed > 0 else 0.0,
            "decisions_per_sec": (
                (stats.decisions / elapsed) if elapsed > 0 else 0.0
            ),
        },
    }


def canonical_digest(result: dict) -> str:
    """SHA-256 over the canonical (virtual-time) half of one result."""
    return sha256_hex(canonical_json(result["canonical"]))


def measured_service_times(
    workload: FleetWorkload,
    profile: LatencyProfile,
    seed: int = 0,
) -> np.ndarray:
    """Per-meeting solve service times drawn from a measured profile.

    One seeded draw per meeting (keyed by meeting id), suitable as the
    ``service_s`` override of
    :func:`repro.deploy.vectorfleet.sustainable_rate`.
    """
    return np.array(
        [
            profile.sample(
                STAGE_SOLVE, key=workload.meeting_id(i), seed=seed
            )
            for i in range(workload.meetings)
        ],
        dtype=np.float64,
    )


def sustainable_rate_report(
    seed: int,
    users: int = 100_000,
    shards: int = 16,
    slo_p95_s: float = 0.25,
    profile: Optional[LatencyProfile] = None,
) -> dict:
    """Analytic vs measured sustainable-rate comparison for one fleet.

    Computes the max sustainable fleet-wide solve rate under the p95
    SLO twice: with the analytic ``SEC_PER_COST`` service model, and —
    when ``profile`` is given — with per-meeting service times drawn
    from the measured solve-stage distribution.  Byte-deterministic for
    a given (seed, users, shards, profile).
    """
    from .vectorfleet import place_fleet, sustainable_rate

    fleet = sample_fleet(seed, users)
    placement = place_fleet(fleet, shards=shards)
    report: dict = {
        "schema": "repro.sustainable_rate/v1",
        "seed": seed,
        "users": fleet.users,
        "meetings": fleet.meetings,
        "shards": shards,
        "slo_p95_s": slo_p95_s,
        "analytic": {
            "rate_per_s": round(
                sustainable_rate(fleet, placement, slo_p95_s=slo_p95_s), 6
            ),
        },
    }
    if profile is not None:
        service = measured_service_times(fleet, profile, seed=seed)
        report["measured"] = {
            "profile_digest": profile.digest(),
            "service_p50_s": round(float(np.percentile(service, 50)), 6),
            "service_p95_s": round(float(np.percentile(service, 95)), 6),
            "rate_per_s": round(
                sustainable_rate(
                    fleet,
                    placement,
                    slo_p95_s=slo_p95_s,
                    service_s=service,
                ),
                6,
            ),
        }
    return report
