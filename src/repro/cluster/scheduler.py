"""Per-shard solve scheduler: coalescing event triggers into the Fig. 12
call-interval envelope.

The single-meeting runtime (:mod:`repro.control.gso_controller`) already
implements the paper's trigger policy — solve at least every
``max_interval_s``, at most every ``min_interval_s``.  A shard hosting
thousands of meetings additionally needs *demand shaping*: bandwidth
reports and membership churn raise solve requests far faster than the
solver should run, so requests are **coalesced** — one pending slot per
meeting, newest snapshot wins — and **debounced** to the min-interval
envelope.  A meeting whose picture changed five times in a second still
costs one solve, computed from the freshest snapshot.

The scheduler is virtual-time driven (callers pass ``now_s``), so fleet
simulations and tests stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.constraints import Problem
from ..obs import events as obs_events
from ..obs import names as obs_names
from ..obs.registry import get_registry

#: Solve-request triggers (the ``trigger`` label of
#: ``repro_cluster_solve_requests_total``).
TRIGGER_EVENT = "event"
TRIGGER_TIME = "time"
TRIGGER_REHOME = "rehome"
TRIGGER_SYNC = "sync"


@dataclass
class SolveRequest:
    """One scheduled solve: the freshest snapshot of one meeting."""

    meeting_id: str
    problem: Problem
    trigger: str = TRIGGER_EVENT
    submitted_at_s: float = 0.0
    due_at_s: float = 0.0
    #: How many event submissions were folded into this request.
    coalesced: int = 0
    #: Correlation id minted at ingress (when an event log is active);
    #: travels with the request through admission, cache, solve and
    #: delivery so the whole causal chain shares one id.
    correlation_id: str = ""


@dataclass
class SchedulerStats:
    """Demand-shaping accounting of one shard scheduler."""

    submitted: int = 0
    coalesced: int = 0
    time_triggered: int = 0


class SolveScheduler:
    """Coalescing/debouncing solve queue of one shard worker.

    Args:
        min_interval_s: floor between two solves of one meeting (Fig. 12's
            1 s minimum call interval).
        max_interval_s: ceiling — an idle meeting is still re-solved this
            often from its last snapshot (Fig. 12's 3 s maximum).
    """

    def __init__(
        self,
        min_interval_s: float = 1.0,
        max_interval_s: float = 3.0,
        shard: str = "",
    ) -> None:
        if not 0 < min_interval_s <= max_interval_s:
            raise ValueError("need 0 < min_interval <= max_interval")
        self.min_interval_s = min_interval_s
        self.max_interval_s = max_interval_s
        #: Shard name stamped onto ingress events ("" outside a cluster).
        self.shard = shard
        self._pending: Dict[str, SolveRequest] = {}
        self._last_solve_s: Dict[str, float] = {}
        self._last_problem: Dict[str, Problem] = {}
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------ #
    # Demand side
    # ------------------------------------------------------------------ #

    @property
    def queue_depth(self) -> int:
        """Currently pending (not yet executed) solve requests."""
        return len(self._pending)

    @property
    def meetings(self) -> List[str]:
        """Meetings with scheduler state on this shard, sorted."""
        return sorted(set(self._last_problem) | set(self._pending))

    def submit(
        self,
        meeting_id: str,
        problem: Problem,
        now_s: float,
        trigger: str = TRIGGER_EVENT,
    ) -> SolveRequest:
        """File (or refresh) a solve request for one meeting.

        A meeting has at most one pending request; re-submitting replaces
        its snapshot (newest wins) without changing its place in time.
        """
        self.stats.submitted += 1
        reg = get_registry()
        if reg.enabled:
            reg.counter(
                obs_names.CLUSTER_SOLVE_REQUESTS, trigger=trigger
            ).inc()
        log = obs_events.active_event_log()
        pending = self._pending.get(meeting_id)
        if pending is not None:
            pending.problem = problem
            pending.coalesced += 1
            self.stats.coalesced += 1
            if reg.enabled:
                reg.counter(obs_names.CLUSTER_COALESCED).inc()
            if log is not None:
                log.emit(
                    obs_events.REPORT_COALESCED,
                    t=now_s,
                    meeting=meeting_id,
                    cid=pending.correlation_id,
                    shard=self.shard,
                    trigger=trigger,
                    coalesced=pending.coalesced,
                )
            return pending
        last = self._last_solve_s.get(meeting_id)
        due = now_s if last is None else max(now_s, last + self.min_interval_s)
        request = SolveRequest(
            meeting_id=meeting_id,
            problem=problem,
            trigger=trigger,
            submitted_at_s=now_s,
            due_at_s=due,
            correlation_id=log.mint(meeting_id) if log is not None else "",
        )
        self._pending[meeting_id] = request
        if log is not None:
            log.emit(
                obs_events.SEMB_REPORT,
                t=now_s,
                meeting=meeting_id,
                cid=request.correlation_id,
                shard=self.shard,
                trigger=trigger,
                due_at_s=round(due, 6),
            )
        return request

    # ------------------------------------------------------------------ #
    # Supply side
    # ------------------------------------------------------------------ #

    def due(self, now_s: float) -> List[SolveRequest]:
        """Pop every request that may run at ``now_s``.

        Returns pending requests whose debounce window has passed, plus
        synthesized ``time``-trigger refreshes for meetings idle past
        ``max_interval_s`` — ordered by due time then meeting id.  The
        caller owns the returned requests (solve or shed each one).
        """
        ready: List[SolveRequest] = []
        for meeting_id in list(self._pending):
            if self._pending[meeting_id].due_at_s <= now_s + 1e-9:
                ready.append(self._pending.pop(meeting_id))
        for meeting_id, last in self._last_solve_s.items():
            if meeting_id in self._pending:
                continue
            if any(r.meeting_id == meeting_id for r in ready):
                continue
            problem = self._last_problem.get(meeting_id)
            if problem is None:
                continue
            if now_s - last + 1e-9 >= self.max_interval_s:
                self.stats.time_triggered += 1
                reg = get_registry()
                if reg.enabled:
                    reg.counter(
                        obs_names.CLUSTER_SOLVE_REQUESTS, trigger=TRIGGER_TIME
                    ).inc()
                log = obs_events.active_event_log()
                # Predecessor cid first: the refresh chain links back to
                # the decision whose staleness triggered it.
                parent = (
                    log.last_cid(meeting_id) if log is not None else ""
                )
                cid = log.mint(meeting_id) if log is not None else ""
                if log is not None:
                    attrs = {"parent_cid": parent} if parent else {}
                    log.emit(
                        obs_events.TIME_TRIGGER,
                        t=now_s,
                        meeting=meeting_id,
                        cid=cid,
                        shard=self.shard,
                        idle_s=round(now_s - last, 6),
                        **attrs,
                    )
                ready.append(
                    SolveRequest(
                        meeting_id=meeting_id,
                        problem=problem,
                        trigger=TRIGGER_TIME,
                        submitted_at_s=now_s,
                        due_at_s=now_s,
                        correlation_id=cid,
                    )
                )
        ready.sort(key=lambda r: (r.due_at_s, r.meeting_id))
        return ready

    def backpressure_window_s(self, depth: int, capacity: int) -> float:
        """The coalesce window for a mailbox at ``depth`` of ``capacity``.

        The event-driven ingress reuses this scheduler's Fig. 12 envelope
        as its backpressure policy: an empty mailbox debounces at the
        ``min_interval_s`` floor, and the window widens linearly with
        queue depth up to the ``max_interval_s`` ceiling — a falling-
        behind meeting coalesces more reports per solve instead of
        queueing further behind.
        """
        if depth <= 1 or capacity <= 1:
            return self.min_interval_s
        frac = min(1.0, (depth - 1) / (capacity - 1))
        return self.min_interval_s + frac * (
            self.max_interval_s - self.min_interval_s
        )

    def mark_solved(self, meeting_id: str, problem: Problem, now_s: float) -> None:
        """Record a served solve (or fallback): resets both trigger clocks."""
        self._last_solve_s[meeting_id] = now_s
        self._last_problem[meeting_id] = problem

    def requeue(self, request: SolveRequest) -> None:
        """Put a popped request back (admission deferred it).

        Keeps the original due time so the request does not lose its queue
        position; a newer submit still wins the snapshot.
        """
        existing = self._pending.get(request.meeting_id)
        if existing is None:
            self._pending[request.meeting_id] = request
        else:
            existing.coalesced += request.coalesced

    # ------------------------------------------------------------------ #
    # Fault-injection hook points (repro.chaos)
    # ------------------------------------------------------------------ #

    def defer(self, meeting_id: str, delay_s: float) -> bool:
        """Push a pending request's due time back by ``delay_s``.

        Models a delayed SEMB report / control-channel congestion: the
        demand is still there, but the shard acts on it later.  Used by
        the chaos subsystem's ``delay_report`` fault.

        Returns:
            True if a pending request was deferred.
        """
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        pending = self._pending.get(meeting_id)
        if pending is None:
            return False
        pending.due_at_s += delay_s
        return True

    def drop_pending(self, meeting_id: str) -> Optional[SolveRequest]:
        """Drop (and return) a meeting's pending request, if any.

        Models a lost SEMB report: the solve demand evaporates without
        touching the last-solve clocks, so the ``max_interval_s`` time
        trigger still guarantees an eventual refresh.  Used by the chaos
        subsystem's ``drop_report`` fault.
        """
        return self._pending.pop(meeting_id, None)

    def forget(self, meeting_id: str) -> Optional[Problem]:
        """Drop all state for a meeting (it re-homed away).

        Returns the last known snapshot, for handover to the new shard.
        """
        pending = self._pending.pop(meeting_id, None)
        self._last_solve_s.pop(meeting_id, None)
        last = self._last_problem.pop(meeting_id, None)
        return pending.problem if pending is not None else last
