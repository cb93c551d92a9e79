"""The chaos runner: one seeded, fault-injected cluster run.

``ChaosRunner`` wires the three existing layers together and torments
them on a virtual clock:

* the discrete-event :class:`~repro.net.simulator.Simulator` provides
  deterministic time — meeting reports, scheduler ticks and faults are
  all simulator events;
* the :class:`~repro.cluster.ControllerCluster` is the system under
  test — the real sharded scheduler, cache, admission control and
  failover paths run unmodified, prodded only through the public
  injection hooks (``solve_interceptor``, ``defer_meeting``,
  ``drop_pending``, ``kill_shard``/``add_shard``);
* the :class:`~repro.chaos.world.ChaosWorld` supplies the meeting
  population and mutates it under bandwidth/membership faults;
* the :class:`~repro.chaos.invariants.InvariantChecker` judges every
  configuration the cluster delivers.

The output is a canonical :class:`~repro.chaos.report.RunReport` whose
digest is byte-identical across runs of the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..cluster import ClusterConfig, ControllerCluster
from ..cluster.cluster import (
    SOURCE_FALLBACK,
    SOURCE_SHED,
    ServedSolution,
)
from ..core.engine import default_mckp_cache
from ..core.solution import Solution
from ..core.solver import SolverConfig
from ..net.simulator import PeriodicTask, Simulator
from ..obs import events as obs_events
from ..obs import names as obs_names
from ..obs.events import EventLog
from ..obs.registry import get_registry
from ..obs.slo import SloContext, SloEngine, SloVerdict, stage_budget_slos
from ..obs.spans import span
from ..obs.tracing import assemble_trees
from ..obs.timeseries import active_store
from ..placement.migration import HotShardDetector
from . import faults as F
from .faults import Fault, FaultSchedule
from .invariants import InvariantChecker, kmr_iteration_bound
from .report import RunReport, solution_digest
from .world import ChaosWorld

#: Reports land a quarter-interval before each tick so demand is always
#: pending when the scheduler rounds run.
REPORT_PHASE = 0.25
#: Ticks run half an interval into each period.
TICK_PHASE = 0.5


class InjectedSolverFault(RuntimeError):
    """Raised by the solve interceptor for a poisoned meeting."""


def _assignment_changes(
    previous: Optional[Solution], current: Solution
) -> List[str]:
    """Sorted human-readable diff of (subscriber <- publisher) streams.

    ``previous is None`` (the bootstrap single-stream default) diffs as
    all-added, so the first delivered configuration is itself a
    subscription change — matching what clients experience.
    """

    def stream_map(solution: Solution) -> Dict[tuple, tuple]:
        out: Dict[tuple, tuple] = {}
        for sub in solution.assignments:
            for pub, stream in solution.assignments[sub].items():
                out[(sub, pub)] = (stream.resolution.value, stream.bitrate_kbps)
        return out

    before = {} if previous is None else stream_map(previous)
    after = stream_map(current)
    changes: List[str] = []
    for key in sorted(set(before) | set(after)):
        sub, pub = key
        old = before.get(key)
        new = after.get(key)
        if old == new:
            continue
        if old is None:
            changes.append(f"{sub}<-{pub}:+{new[0]}")
        elif new is None:
            changes.append(f"{sub}<-{pub}:-{old[0]}")
        else:
            changes.append(f"{sub}<-{pub}:{old[0]}->{new[0]}")
    return changes


@dataclass
class ChaosConfig:
    """Sizing knobs of one chaos run."""

    seed: int = 1
    meetings: int = 4
    duration_s: float = 10.0
    #: Scheduler-round cadence (also the cluster's Fig. 12 min interval).
    tick_interval_s: float = 1.0
    #: SEMB/global-picture report cadence per meeting.
    report_interval_s: float = 1.0
    shards: int = 2
    cache_capacity: int = 256
    max_solves_per_round: int = 64
    mean_size: float = 4.0
    #: Placement policy homing meetings onto shards (see repro.placement).
    placement: str = "hash"
    #: Per-shard cost budget; > 0 arms the hot-shard detector every tick
    #: and the shard_budget invariant at run end.
    shard_cost_budget: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.tick_interval_s <= 0 or self.report_interval_s <= 0:
            raise ValueError("intervals must be positive")
        if self.meetings < 1:
            raise ValueError("need at least one meeting")

    def to_dict(self) -> dict:
        """JSON-friendly encoding (embedded in run reports)."""
        return {
            "seed": self.seed,
            "meetings": self.meetings,
            "duration_s": self.duration_s,
            "tick_interval_s": self.tick_interval_s,
            "report_interval_s": self.report_interval_s,
            "shards": self.shards,
            "cache_capacity": self.cache_capacity,
            "max_solves_per_round": self.max_solves_per_round,
            "mean_size": self.mean_size,
            "placement": self.placement,
            "shard_cost_budget": self.shard_cost_budget,
        }


class ChaosRunner:
    """Runs one fault schedule against a fresh cluster; see module docs."""

    def __init__(
        self,
        config: ChaosConfig,
        schedule: Optional[FaultSchedule] = None,
        scenario: str = "custom",
        slo_engine: Optional[SloEngine] = None,
    ) -> None:
        self.config = config
        self.schedule = schedule or FaultSchedule()
        self.scenario = scenario
        self.slo_engine = slo_engine or SloEngine()
        #: The run's structured event log (populated by :meth:`run`; kept
        #: on the runner so CLIs can render timelines afterwards).
        self.events: EventLog = EventLog()
        #: The full SLO verdict objects from the last run (the report only
        #: keeps their dict encodings, split deterministic/informational).
        self.slo_verdicts: List[SloVerdict] = []
        #: The trace plane assembled from the last run's event log
        #: (populated by :meth:`run`; kept for waterfalls and profiles).
        self.traces = assemble_trees(())

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def run(self) -> RunReport:
        """Execute the run and return its canonical report."""
        cfg = self.config
        # Seeded runs must be hermetic: drop the process-wide MCKP
        # instance cache so a double run replays the identical hit/miss
        # pattern (the determinism invariant compares metric samples too).
        default_mckp_cache().clear()
        self.sim = Simulator()
        self.world = ChaosWorld(
            seed=cfg.seed, meetings=cfg.meetings, mean_size=cfg.mean_size
        )
        self.cluster = ControllerCluster(
            ClusterConfig(
                shards=cfg.shards,
                min_interval_s=cfg.tick_interval_s,
                max_interval_s=3.0 * cfg.tick_interval_s,
                cache_capacity=cfg.cache_capacity,
                max_solves_per_round=cfg.max_solves_per_round,
                placement=cfg.placement,
                shard_cost_budget=cfg.shard_cost_budget,
                solver=SolverConfig(granularity_kbps=25),
            )
        )
        self.detector: Optional[HotShardDetector] = (
            HotShardDetector(cfg.shard_cost_budget)
            if cfg.shard_cost_budget > 0
            else None
        )
        self.checker = InvariantChecker()
        self.report = RunReport(
            scenario=self.scenario,
            seed=cfg.seed,
            duration_s=cfg.duration_s,
            config=self.config.to_dict(),
        )
        # Fault state the runner maintains between events.
        self._poisoned: Set[str] = set()
        self._drop_reports: Dict[str, int] = {}
        self._delay_next_report: Dict[str, float] = {}
        self._lose_next_tmmbr: Set[str] = set()
        self._applied: Dict[str, dict] = {}
        self._applied_solution: Dict[str, Optional[Solution]] = {}
        self._ever_served: Set[str] = set()
        self._fallback_since: Dict[str, int] = {}
        self._meeting_counters: Dict[str, Dict[str, int]] = {}
        self._tick_index = 0
        self._max_iteration_ratio = 0.0
        self.events = EventLog()
        self.slo_verdicts = []
        self.traces = assemble_trees(())

        self.cluster.solve_interceptor = self._intercept
        try:
            with span(obs_names.SPAN_CHAOS_RUN), \
                    obs_events.record_events(self.events):
                self._bootstrap()
                self.sim.run_until(cfg.duration_s)
                self._finalize()
        finally:
            self.cluster.close()
        return self.report

    def _bootstrap(self) -> None:
        """Register meetings, start the report/tick clocks, arm faults."""
        cfg = self.config
        for meeting_id in self.world.meeting_ids:
            self.cluster.register(meeting_id)
            # Clients boot in a safe single-stream default until the
            # first TMMBR push arrives (Sec. 7's floor configuration).
            self._applied[meeting_id] = {
                "source": "bootstrap",
                "t": 0.0,
                "digest": "",
            }
            self._applied_solution[meeting_id] = None
            self._meeting_counters[meeting_id] = {
                "reports_dropped": 0,
                "tmmbr_lost": 0,
                "fallback_recoveries": 0,
            }
            PeriodicTask(
                self.sim,
                cfg.report_interval_s,
                lambda mid=meeting_id: self._report(mid),
                start_offset=REPORT_PHASE * cfg.report_interval_s,
            )
        PeriodicTask(
            self.sim,
            cfg.tick_interval_s,
            self._tick,
            start_offset=TICK_PHASE * cfg.tick_interval_s,
        )
        for fault in self.schedule.until(cfg.duration_s):
            self.sim.schedule_at(
                fault.at_s, lambda f=fault: self._apply_fault(f)
            )

    def _finalize(self) -> None:
        """Closing availability check + per-meeting summaries."""
        self._check_availability()
        if self.detector is not None:
            live = self.cluster.live_shards
            self.checker.check_shard_budget(
                self.cluster.load_model.loads(live),
                self.detector.budget,
                {
                    shard: self.detector.drainable(self.cluster, shard)
                    for shard in live
                },
                self.sim.now,
            )
        for meeting_id in self.world.meeting_ids:
            record = self.cluster.meeting(meeting_id)
            state = self.world.meeting(meeting_id)
            applied = self._applied[meeting_id]
            self.report.meetings[meeting_id] = {
                "size": state.size,
                "picture_version": state.version,
                "solves": record.solves,
                "cache_hits": record.cache_hits,
                "fallbacks": record.fallbacks,
                "rehomes": record.rehomes,
                "applied_source": applied["source"],
                "applied_digest": applied["digest"],
                **self._meeting_counters[meeting_id],
            }
        self.report.checks = dict(self.checker.checks)
        self.report.violations = [
            v.to_dict() for v in self.checker.violations
        ]
        reg = get_registry()
        if reg.enabled:
            verdict = "pass" if self.report.ok else "fail"
            reg.counter(obs_names.CHAOS_RUNS, verdict=verdict).inc()
        # Assemble the trace plane before SLO evaluation so stage-budget
        # objectives can draw on the critical-path attribution.
        self.traces = assemble_trees(self.events.events)
        self._evaluate_slos()
        self.report.events_total = self.events.emitted
        self.report.event_digest = self.events.digest()
        self.report.trace_digest = self.traces.digest()

    def _evaluate_slos(self) -> None:
        """Attach SLO verdicts: deterministic ones enter the digested
        report; wall-clock ones (solve latency) stay informational."""
        ctx = SloContext(
            serves=self.report.serves,
            duration_s=self.config.duration_s,
            tick_interval_s=self.config.tick_interval_s,
            stats={"kmr_iteration_ratio_max": self._max_iteration_ratio},
            registry=get_registry(),
            stage_latencies=self.traces.stage_latencies(),
        )
        self.slo_verdicts = list(self.slo_engine.evaluate(ctx))
        self.slo_verdicts.extend(
            SloEngine(stage_budget_slos()).evaluate(ctx)
        )
        for verdict in self.slo_verdicts:
            row = verdict.to_dict()
            if verdict.deterministic:
                self.report.slo.append(row)
            else:
                self.report.slo_informational.append(row)

    # ------------------------------------------------------------------ #
    # Event callbacks
    # ------------------------------------------------------------------ #

    def _intercept(self, meeting_id: str, problem) -> None:
        """The cluster-side injection hook: poisoned meetings crash."""
        if meeting_id in self._poisoned:
            raise InjectedSolverFault(
                f"injected solver fault for {meeting_id}"
            )

    def _report(self, meeting_id: str) -> None:
        """One meeting's periodic SEMB/global-picture report."""
        remaining = self._drop_reports.get(meeting_id, 0)
        if remaining > 0:
            self._drop_reports[meeting_id] = remaining - 1
            self._meeting_counters[meeting_id]["reports_dropped"] += 1
            return
        delay = self._delay_next_report.pop(meeting_id, 0.0)
        if delay > 0:
            self.sim.schedule(
                delay, lambda: self._submit_current(meeting_id)
            )
        else:
            self._submit_current(meeting_id)

    def _submit_current(self, meeting_id: str) -> None:
        self.cluster.submit(
            meeting_id,
            self.world.current_problem(meeting_id),
            now_s=self.sim.now,
        )

    def _tick(self) -> None:
        """One scheduler round plus invariant checks on its deliveries."""
        self._tick_index += 1
        with span(obs_names.SPAN_CHAOS_TICK):
            for served in self.cluster.tick(self.sim.now):
                self._deliver(served)
            if self.detector is not None:
                # Drain over-budget shards; the degraded fallbacks served
                # mid-move are delivered like any other configuration.
                rebalance = self.detector.rebalance(
                    self.cluster, self.sim.now
                )
                for served in rebalance.served:
                    self._deliver(served)
            self._check_availability()
        store = active_store()
        if store is not None:
            store.sample_registry(get_registry(), self.sim.now)

    def _deliver(self, served: ServedSolution) -> None:
        """Judge and apply one configuration pushed by the cluster."""
        meeting_id = served.meeting_id
        record = self.cluster.meeting(meeting_id)
        assert record.last_problem is not None
        self.checker.check_solution(
            meeting_id, record.last_problem, served.solution, self.sim.now
        )
        bound = kmr_iteration_bound(record.last_problem)
        self._max_iteration_ratio = max(
            self._max_iteration_ratio, served.solution.iterations / bound
        )
        digest = solution_digest(served.solution)
        delivered = True
        if meeting_id in self._lose_next_tmmbr:
            # The TMMBR push is lost in flight: the configuration was
            # computed but the clients keep their previous one.  The next
            # delivery (the scheduler re-solves every tick) heals it.
            self._lose_next_tmmbr.discard(meeting_id)
            self._meeting_counters[meeting_id]["tmmbr_lost"] += 1
            delivered = False
        self.report.serves.append(
            {
                "t": self.sim.now,
                "tick": self._tick_index,
                "meeting": meeting_id,
                "cid": served.correlation_id,
                "source": served.source,
                "trigger": served.trigger,
                "solution": digest,
                "delivered": delivered,
            }
        )
        self._ever_served.add(meeting_id)
        self.events.emit(
            obs_events.TMMBR_PUSH if delivered else obs_events.TMMBR_LOST,
            t=self.sim.now,
            meeting=meeting_id,
            cid=served.correlation_id,
            shard=served.shard,
            publishers=len(served.solution.policies),
        )
        if delivered:
            previous = self._applied_solution.get(meeting_id)
            changes = _assignment_changes(previous, served.solution)
            if changes:
                self.events.emit(
                    obs_events.SUBSCRIPTION_CHANGE,
                    t=self.sim.now,
                    meeting=meeting_id,
                    cid=served.correlation_id,
                    shard=served.shard,
                    changed=len(changes),
                    changes=",".join(changes[:3]),
                )
            self._applied[meeting_id] = {
                "source": served.source,
                "t": self.sim.now,
                "digest": digest,
            }
            self._applied_solution[meeting_id] = served.solution
        self._track_recovery(meeting_id, served.source)

    def _track_recovery(self, meeting_id: str, source: str) -> None:
        """Measure how long meetings stay degraded on the fallback."""
        if source in (SOURCE_FALLBACK, SOURCE_SHED):
            self._fallback_since.setdefault(meeting_id, self._tick_index)
            return
        since = self._fallback_since.pop(meeting_id, None)
        if since is None:
            return
        self._meeting_counters[meeting_id]["fallback_recoveries"] += 1
        reg = get_registry()
        if reg.enabled:
            reg.histogram(obs_names.CHAOS_RECOVERY_TICKS).observe(
                self._tick_index - since
            )

    def _check_availability(self) -> None:
        """Fallback-availability invariant over every served meeting."""
        holds = {
            meeting_id: (
                self.cluster.meeting(meeting_id).last_solution is not None
                and self._applied.get(meeting_id) is not None
            )
            for meeting_id in self._ever_served
        }
        self.checker.check_availability(
            sorted(self._ever_served), holds, self.sim.now
        )

    # ------------------------------------------------------------------ #
    # Fault application
    # ------------------------------------------------------------------ #

    def _meeting_target(self, fault: Fault) -> str:
        return fault.target or self.world.meeting_ids[0]

    def _apply_fault(self, fault: Fault) -> None:
        """Dispatch one fault; records the outcome in the report."""
        outcome = "applied"
        detail: Dict[str, object] = {}
        kind = fault.kind
        # Emitted before dispatch so the fault precedes its effects
        # (handover fallbacks, re-homes) in the causal timeline.
        self.events.emit(
            obs_events.FAULT_INJECTED,
            t=self.sim.now,
            meeting=(
                fault.target
                if fault.target in self.world.meeting_ids
                else ""
            ),
            fault=kind,
            target=fault.target,
        )

        if kind == F.KILL_SHARD:
            live = self.cluster.live_shards
            target = fault.target or live[0]
            if len(live) <= 1 or target not in live:
                outcome = "skipped"
            else:
                handover = self.cluster.kill_shard(target, self.sim.now)
                for served in handover:
                    self._deliver(served)
                detail = {"shard": target, "rehomed": len(handover)}
        elif kind == F.RESTART_SHARD:
            dead = sorted(
                set(self.cluster.stats()["shards"])
                - set(self.cluster.live_shards)
            )
            target = fault.target or (dead[0] if dead else "")
            if not target or target in self.cluster.live_shards:
                outcome = "skipped"
            else:
                self.cluster.add_shard(target, self.sim.now)
                detail = {"shard": target}
        elif kind == F.ADD_SHARD:
            target = fault.target or None
            if target is not None and target in self.cluster.live_shards:
                outcome = "skipped"
            else:
                name = self.cluster.add_shard(target, self.sim.now)
                detail = {"shard": name}
        elif kind == F.OVERLOAD_SHARD:
            live = self.cluster.live_shards
            target = fault.target if fault.target in live else ""
            if not target:
                # Pick the busiest live shard by assigned cost.
                loads = self.cluster.load_model.loads(live)
                target = max(live, key=lambda s: (loads[s], s))
            joins = int(fault.factor) if fault.factor >= 1 else 2
            grown = 0
            for mid, _cost in self.cluster.load_model.meetings_on(target):
                if mid not in self.world.meeting_ids:
                    continue
                for _ in range(joins):
                    self.world.add_client(mid)
                self._submit_current(mid)
                grown += 1
            if not grown:
                outcome = "skipped"
            else:
                detail = {
                    "shard": target,
                    "meetings_grown": grown,
                    "joined_each": joins,
                }
        elif kind == F.DROP_REPORT:
            meeting_id = self._meeting_target(fault)
            dropped_pending = self.cluster.drop_pending(meeting_id)
            count = max(1, int(fault.factor))
            self._drop_reports[meeting_id] = (
                self._drop_reports.get(meeting_id, 0) + count
            )
            detail = {
                "meeting": meeting_id,
                "dropped_pending": dropped_pending,
                "suppressed": count,
            }
        elif kind == F.DELAY_REPORT:
            meeting_id = self._meeting_target(fault)
            deferred = self.cluster.defer_meeting(meeting_id, fault.factor)
            self._delay_next_report[meeting_id] = fault.factor
            detail = {"meeting": meeting_id, "deferred_pending": deferred}
        elif kind == F.LOSE_TMMBR:
            meeting_id = self._meeting_target(fault)
            self._lose_next_tmmbr.add(meeting_id)
            detail = {"meeting": meeting_id}
        elif kind in (F.DOWNLINK_COLLAPSE, F.UPLINK_COLLAPSE):
            meeting_id = self._meeting_target(fault)
            scales = (
                {"down_scale": fault.factor}
                if kind == F.DOWNLINK_COLLAPSE
                else {"up_scale": fault.factor}
            )
            client = self.world.scale_bandwidth(
                meeting_id, fault.client, **scales
            )
            self._submit_current(meeting_id)
            detail = {"meeting": meeting_id, "client": client}
        elif kind == F.BANDWIDTH_RECOVER:
            meeting_id = self._meeting_target(fault)
            client = self.world.scale_bandwidth(
                meeting_id, fault.client, up_scale=1.0, down_scale=1.0
            )
            self._submit_current(meeting_id)
            detail = {"meeting": meeting_id, "client": client}
        elif kind == F.PUBLISHER_LEAVE:
            meeting_id = self._meeting_target(fault)
            client = self.world.remove_client(meeting_id, fault.client)
            if not client:
                outcome = "skipped"
            else:
                self._submit_current(meeting_id)
                detail = {"meeting": meeting_id, "client": client}
        elif kind == F.PUBLISHER_JOIN:
            meeting_id = self._meeting_target(fault)
            client = self.world.add_client(meeting_id)
            self._submit_current(meeting_id)
            detail = {"meeting": meeting_id, "client": client}
        elif kind == F.STALE_SNAPSHOT:
            meeting_id = self._meeting_target(fault)
            version, problem = self.world.stale_problem(
                meeting_id, int(fault.factor)
            )
            self.cluster.submit(meeting_id, problem, now_s=self.sim.now)
            detail = {"meeting": meeting_id, "stale_version": version}
        elif kind == F.SOLVER_FAULT:
            meeting_id = self._meeting_target(fault)
            self._poisoned.add(meeting_id)
            detail = {"meeting": meeting_id}
        elif kind == F.CLEAR_SOLVER_FAULT:
            meeting_id = self._meeting_target(fault)
            if meeting_id in self._poisoned:
                self._poisoned.discard(meeting_id)
                detail = {"meeting": meeting_id}
            else:
                outcome = "skipped"
        else:  # pragma: no cover - Fault.__post_init__ rejects these
            outcome = "skipped"

        if outcome == "applied":
            reg = get_registry()
            if reg.enabled:
                reg.counter(obs_names.CHAOS_FAULTS, kind=kind).inc()
        self.report.faults.append(
            {**fault.to_dict(), "outcome": outcome, **detail}
        )
