"""The four benchmark workloads: seeded inputs and one measured round each.

Every workload builds its inputs from the seed alone and hands the
program only those inputs.  One *round* is one complete pass over the
inputs: a fresh set-up (timed as ``setup_s``), the timed section, then
the collection of per-decision records that the checks and the metrics
read.  Rounds of one run replay identical work, so their timings can be
pooled and their outputs compared with each other.

* ``steady_reports`` - many meetings send periodic SEMB reports and the
  world never changes: after each meeting's first solve, nearly every
  decision is served from the fingerprint cache.
* ``churn_mutations`` - fewer meetings under dense link-estimate,
  subscription, join and leave events: most decisions run KMR.
* ``large_meetings`` - Fig. 6c-shaped meetings sent straight to
  ``ControllerCluster.solve_request`` while a share of the clients'
  bandwidths drift before every request.
* ``slowlink_media`` - the packet-level ``MeetingRunner`` in ``gso`` mode
  over a fixed subset of the Table 2 slow-link cases.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Tuple

from repro.chaos.invariants import InvariantChecker
from repro.chaos.report import solution_digest
from repro.chaos.world import ChaosWorld
from repro.cluster import ClusterConfig, ControllerCluster
from repro.conference.metrics import vmaf_proxy
from repro.conference.runner import MeetingRunner
from repro.conference.scenarios import (
    affected_views,
    slow_link_cases,
    slow_link_meeting,
)
from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.engine import default_mckp_cache
from repro.core.ladder import make_ladder
from repro.core.solution import Solution
from repro.core.solver import SolverConfig
from repro.core.types import Resolution
from repro.ingress.aio import SimRuntime
from repro.ingress.events import StreamConfig, generate_stream
from repro.ingress.plane import ClusterBackend, IngressConfig, IngressPlane
from repro.obs import events as obs_events
from repro.obs import tracing as obs_tracing

from layers import ROOT

#: The mean meeting size ``ChaosWorld`` really samples.  Its constructor
#: takes ``mean_size`` but builds its ``FleetSampler`` without it, so
#: every world draws sizes at the sampler's default (mean 4, cap 30).
#: Passing the size actually used keeps the inputs unchanged once the
#: world honours its argument.
SAMPLER_MEAN_SIZE = 4.0

#: SEMB report interval of the streams and the solver grid of the
#: cluster (the ``run_ingress`` defaults).
REPORT_INTERVAL_S = 1.0
GRANULARITY_KBPS = 25

#: Fig. 6c's (publishers, subscribers, bitrate levels) tuples.
FIG6C_TUPLES = (
    (10, 50, 9),
    (10, 50, 18),
    (10, 100, 18),
    (20, 100, 18),
    (10, 200, 18),
    (10, 400, 18),
)

#: The slow-link subset: the healthy baseline, an uplink bandwidth cap
#: and a lossy downlink (whose loss process the seed drives).
SLOWLINK_CASES = ("normal", "up-0.5M", "down-30%")

#: Simulated length of one slow-link meeting (Sec. 5's setup, as in
#: ``slow_link_meeting``) and the share of it excluded as ramp-up.
SLOWLINK_DURATION_S = 35.0
SLOWLINK_WARMUP_SHARE = 12.0 / 35.0


@dataclass
class DecisionRecord:
    """One decision as the benchmark saw it."""

    meeting: str
    source: str
    #: Main-thread CPU seconds of the decision call
    #: (``ClusterBackend.decide``, ``solve_request`` or the media
    #: controller's solve).
    busy_s: float
    #: Virtual seconds from event offer to TMMBR push (0 when the
    #: workload has no event path).
    latency_s: float
    digest: str
    problem: Problem
    solution: Solution


@dataclass
class RoundResult:
    """Everything one round measured and produced."""

    #: Main-thread CPU seconds of the timed sections (see SectionTimer).
    busy_s: float
    #: Operations processed in the timed section (stream events, solve
    #: requests, or simulator events).
    events: int
    decisions: List[DecisionRecord]
    #: Virtual seconds covered by the round (0 when none).
    virtual_s: float = 0.0
    #: Conservation identities the round must satisfy: name -> (lhs, rhs).
    ledgers: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Workload-specific figures (framerate, quality, counters).
    extra: Dict[str, object] = field(default_factory=dict)
    #: Set-up seconds at the reference speed (filled in by the runner).
    setup_s: float = 0.0
    #: Reference-speed seconds per wall second of the timed sections
    #: (filled in by the runner; see ``speed.py``).
    scale: float = 1.0


#: The timed part of a prepared round.
Execute = Callable[["SectionTimer"], RoundResult]


class SectionTimer:
    """Times the timed sections of one round.

    Sections are timed on the main thread's CPU clock, which leaves out
    the speed probe's slices (the process is otherwise never
    descheduled, so it equals wall time), and scaled to the reference
    speed by the :class:`~speed.SpeedProbe` samples taken meanwhile
    (``probe=None`` leaves them unscaled).  With a
    :class:`~layers.LayerTracer`, each section is also the tracer's root
    span and the only stretch in which its wrappers record.
    """

    def __init__(self, tracer=None, probe=None) -> None:
        self.tracer = tracer
        self.probe = probe
        #: Main-thread CPU seconds of the sections.
        self.busy_s = 0.0
        #: The same at the reference speed.
        self.scaled_s = 0.0

    @property
    def factor(self) -> float:
        """Reference-speed seconds per busy second over the round."""
        return self.scaled_s / self.busy_s if self.busy_s else 1.0

    @contextmanager
    def __call__(self, label: str = "") -> Iterator[None]:
        mark = self.probe.mark() if self.probe else 0
        tracer = self.tracer
        if tracer is not None:
            tracer.default_meeting = label
            tracer.active = True
        start = time.thread_time()
        try:
            if tracer is None:
                yield
            else:
                with tracer.span(ROOT):
                    yield
        finally:
            busy = time.thread_time() - start
            if tracer is not None:
                tracer.active = False
            self.busy_s += busy
            self.scaled_s += busy * (
                self.probe.scale(mark) if self.probe else 1.0
            )


# --------------------------------------------------------------------- #
# Per-edge quality of a committed configuration
# --------------------------------------------------------------------- #


def edge_scores(problem: Problem, solution: Solution) -> Tuple[float, float]:
    """``(qoe_per_edge, quality_per_edge)`` of one configuration.

    QoE is the solver's own utility; quality is the VMAF proxy of the
    stream each subscription edge receives (0 for an edge left dark).
    """
    edges = problem.subscriptions
    if not edges:
        return 0.0, 0.0
    quality = 0.0
    for edge in edges:
        stream = solution.assignments.get(edge.subscriber, {}).get(
            edge.publisher
        )
        if stream is not None:
            quality += vmaf_proxy(stream.resolution, stream.bitrate_kbps)
    return solution.total_qoe() / len(edges), quality / len(edges)


# --------------------------------------------------------------------- #
# Control workloads on the ingress plane
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class IngressSpec:
    """Sizing of one ingress-driven control workload."""

    meetings: int
    duration_s: float
    mutations_per_meeting: float
    #: Meetings start reporting at seeded times spread over this many
    #: seconds (0: all start in the first report interval), so their
    #: first solves spread over the run instead of bunching at its start.
    start_spread_s: float = 0.0
    #: ``(clients, meetings)`` pairs: the streamed meetings are the first
    #: meetings of the world (in id order) of each initial size, this
    #: many per size.  The seed then changes bandwidths, profiles and
    #: event timing but not the size mix, so a run's cost does not hinge
    #: on which giant meetings a seed happens to draw.
    mix: Tuple[Tuple[int, int], ...] = ()


def new_cluster() -> ControllerCluster:
    """The cluster every control workload drives: two shards, the Fig. 12
    envelope (1-3 s), the fingerprint cache on, the process pool off."""
    return ControllerCluster(
        ClusterConfig(
            shards=2,
            pool_workers=0,
            solver=SolverConfig(granularity_kbps=GRANULARITY_KBPS),
        )
    )


class TimedBackend(ClusterBackend):
    """``ClusterBackend`` that times every decision it serves."""

    def __init__(self, cluster, world) -> None:
        super().__init__(cluster, world)
        self.walls: List[float] = []

    def decide(self, meeting, payload, now_s, trigger, cid):
        start = time.thread_time()
        result = super().decide(meeting, payload, now_s, trigger, cid)
        self.walls.append(time.thread_time() - start)
        return result

    def shed(self, meeting, payload, now_s, trigger, cid):
        self.walls.append(0.0)
        return super().shed(meeting, payload, now_s, trigger, cid)


def shaped(stream, seed: int, spec: IngressSpec, world: ChaosWorld):
    """Keep the events of the meetings the size mix selects, each from
    its seeded start time on."""
    kept = []
    starts: Dict[str, float] = {}
    wanted = dict(spec.mix)
    for meeting_id in world.meeting_ids:
        size = world.meeting(meeting_id).size
        if wanted.get(size, 0) <= 0:
            continue
        wanted[size] -= 1
        rng = random.Random(f"perfbench-start:{seed}:{meeting_id}")
        starts[meeting_id] = rng.uniform(0.0, spec.start_spread_s)
    for event in stream:
        start = starts.get(event.meeting)
        if start is not None and event.at_s >= start:
            kept.append(event)
    return [replace(e, seq=i) for i, e in enumerate(kept)]


def prepare_ingress(spec: IngressSpec, seed: int) -> Execute:
    """Build the world, stream and cluster; return the round to run.

    The round sends the stream through ``IngressPlane`` on the cluster,
    then runs what ``run_ingress`` runs after it: the invariant checks
    over every decision, trace assembly and the event and trace digests.
    """
    log = obs_events.EventLog()
    # Hermetic rounds: every round starts from an empty MCKP cache, as
    # ``run_ingress`` does, so all rounds replay the same hits and misses.
    default_mckp_cache().clear()
    world = ChaosWorld(
        seed=seed, meetings=spec.meetings, mean_size=SAMPLER_MEAN_SIZE
    )
    stream = shaped(
        generate_stream(
            seed,
            world,
            StreamConfig(
                duration_s=spec.duration_s,
                report_interval_s=REPORT_INTERVAL_S,
                mutations_per_meeting=spec.mutations_per_meeting,
            ),
        ),
        seed,
        spec,
        world,
    )
    cluster = new_cluster()
    with obs_events.record_events(log):
        for meeting_id in sorted({event.meeting for event in stream}):
            cluster.register(meeting_id)
    backend = TimedBackend(cluster, world)
    plane = IngressPlane(SimRuntime(), backend, IngressConfig())

    def execute(timer: SectionTimer) -> RoundResult:
        with obs_events.record_events(log), timer():
            try:
                plane.run_stream(stream, duration_s=spec.duration_s)
            finally:
                cluster.close()
            checker = InvariantChecker()
            for decision in plane.decisions:
                checker.check_solution(
                    decision.meeting,
                    decision.payload,
                    decision.solution,
                    decision.decided_at_s,
                )
            traces = obs_tracing.assemble_trees(log.events)
            digests = (log.digest(), traces.digest())
        return _ingress_result(
            spec, stream, world, plane, backend, checker, traces, log,
            digests, timer.busy_s,
        )

    return execute


def _ingress_result(
    spec, stream, world, plane, backend, checker, traces, log, digests,
    busy_s,
) -> RoundResult:
    if len(backend.walls) != len(plane.decisions):
        raise RuntimeError("decision timings do not match the decisions")
    decisions = [
        DecisionRecord(
            meeting=d.meeting,
            source=d.source,
            busy_s=wall,
            latency_s=d.latency_s,
            digest=d.digest,
            problem=d.payload,
            solution=d.solution,
        )
        for d, wall in zip(plane.decisions, backend.walls)
    ]
    stats = plane.stats
    boxes = plane._mailboxes.values()
    enqueued = sum(box.stats.enqueued for box in boxes)
    trace_ledger = traces.counters()
    ledgers = {
        "stream events == offered": (len(stream), stats.offered),
        "offered == enqueued + dropped": (
            stats.offered,
            stats.enqueued + stats.dropped,
        ),
        "plane enqueued == mailbox enqueued": (stats.enqueued, enqueued),
        "mailbox enqueued == dequeued + evicted + depth": (
            enqueued,
            sum(
                box.stats.dequeued + box.stats.evicted + box.depth
                for box in boxes
            ),
        ),
        "trace assembled == exported + evicted + live": (
            trace_ledger["assembled"],
            trace_ledger["exported"]
            + trace_ledger["evicted"]
            + trace_ledger["live"],
        ),
        "invariant violations == 0": (len(checker.violations), 0),
    }
    return RoundResult(
        busy_s=busy_s,
        events=len(stream),
        decisions=decisions,
        virtual_s=spec.duration_s,
        ledgers=ledgers,
        extra={
            "digests": digests,
            "coalesced": stats.coalesced,
            "max_mailbox_depth": stats.max_mailbox_depth,
            "events_emitted": log.emitted,
        },
    )


# --------------------------------------------------------------------- #
# large_meetings: Fig. 6c meetings straight to solve_request
# --------------------------------------------------------------------- #

#: Requests per meeting in one round, the share of clients whose
#: bandwidth drifts before each request, and the virtual spacing of one
#: meeting's requests (the Fig. 12 minimum interval).
LARGE_REQUESTS_PER_MEETING = 3
LARGE_DRIFT_SHARE = 0.1
LARGE_INTERVAL_S = 1.0


def _large_problem(
    pubs: int, subs: int, levels: int, bandwidth: Dict[str, Bandwidth]
) -> Problem:
    ladder = make_ladder(levels_per_resolution=levels // 3)
    publishers = [f"P{k}" for k in range(pubs)]
    subscribers = [f"S{k}" for k in range(subs)]
    return Problem(
        {p: ladder for p in publishers},
        dict(bandwidth),
        [
            Subscription(s, p, Resolution.P720)
            for s in subscribers
            for p in publishers
        ],
    )


def large_requests(
    seed: int, requests_per_meeting: int = LARGE_REQUESTS_PER_MEETING
) -> List[Tuple[str, float, Problem]]:
    """The seeded request sequence: ``(meeting, now_s, problem)``.

    Publisher uplinks are tight enough that several publishers cannot
    carry their top rung (multi-iteration KMR); subscriber downlinks come
    from a few plan tiers.  Before each request a seeded share of the
    meeting's clients drift their bandwidth by up to +-20%, so every
    request carries a new picture.
    """
    meetings = []
    for index, (pubs, subs, levels) in enumerate(FIG6C_TUPLES):
        rng = random.Random(f"perfbench-large:{seed}:{index}")
        bandwidth = {}
        for k in range(pubs):
            bandwidth[f"P{k}"] = Bandwidth(rng.choice([700, 850, 1100]), 500)
        for k in range(subs):
            bandwidth[f"S{k}"] = Bandwidth(
                500, rng.choice([8_000, 16_000, 24_000, 40_000])
            )
        meetings.append((f"large-{index}", (pubs, subs, levels), bandwidth, rng))
    requests = []
    for step in range(requests_per_meeting):
        for meeting_id, shape, bandwidth, rng in meetings:
            if step:
                clients = sorted(bandwidth)
                for client in rng.sample(
                    clients, max(1, int(LARGE_DRIFT_SHARE * len(clients)))
                ):
                    old = bandwidth[client]
                    bandwidth[client] = Bandwidth(
                        max(100, int(old.uplink_kbps * rng.uniform(0.8, 1.2))),
                        max(100, int(old.downlink_kbps * rng.uniform(0.8, 1.2))),
                    )
            requests.append(
                (
                    meeting_id,
                    step * LARGE_INTERVAL_S,
                    _large_problem(*shape, bandwidth),
                )
            )
    return requests


def prepare_large(seed: int, requests_per_meeting: int) -> Execute:
    """Build the seeded requests and a fresh cluster."""
    default_mckp_cache().clear()
    requests = large_requests(seed, requests_per_meeting)
    cluster = new_cluster()
    for meeting_id in sorted({r[0] for r in requests}):
        cluster.register(meeting_id)

    def execute(timer: SectionTimer) -> RoundResult:
        walls: List[float] = []
        served = []
        with timer():
            try:
                for meeting_id, now_s, problem in requests:
                    start = time.thread_time()
                    served.append(
                        cluster.solve_request(meeting_id, problem, now_s)
                    )
                    walls.append(time.thread_time() - start)
            finally:
                cluster.close()
        decisions = [
            DecisionRecord(
                meeting=meeting_id,
                source=result.source,
                busy_s=wall,
                latency_s=0.0,
                digest=solution_digest(result.solution),
                problem=problem,
                solution=result.solution,
            )
            for (meeting_id, _, problem), result, wall in zip(
                requests, served, walls
            )
        ]
        return RoundResult(
            busy_s=timer.busy_s,
            events=len(requests),
            decisions=decisions,
            virtual_s=requests_per_meeting * LARGE_INTERVAL_S,
        )

    return execute


# --------------------------------------------------------------------- #
# slowlink_media: packet-level meetings over Table 2 cases
# --------------------------------------------------------------------- #


def slowlink_specs(seed: int, duration_s: float = SLOWLINK_DURATION_S):
    """``(case, spec)`` per case of the subset, seeded per case."""
    by_name = {case.name: case for case in slow_link_cases()}
    return [
        (
            by_name[name],
            slow_link_meeting(
                by_name[name],
                "gso",
                duration_s=duration_s,
                warmup_s=duration_s * SLOWLINK_WARMUP_SHARE,
                seed=random.Random(f"perfbench-slowlink:{seed}:{name}")
                .randrange(1, 2**31),
            ),
        )
        for name in SLOWLINK_CASES
    ]


def _hook_controller(runner: MeetingRunner, sink: List[tuple]) -> None:
    """Record ``(problem, solution, busy_s, fallback)`` per controller
    decision: the snapshot the controller solved and what it committed."""
    controller = runner.controller
    conference = runner.conference
    seen: Dict[str, Problem] = {}
    snapshot = conference.snapshot
    solve = controller._solve

    def recording_snapshot(*args, **kwargs):
        seen["problem"] = snapshot(*args, **kwargs)
        return seen["problem"]

    def timed_solve(now):
        fallbacks = controller.fallbacks_engaged
        start = time.thread_time()
        solution = solve(now)
        wall = time.thread_time() - start
        sink.append(
            (
                seen["problem"],
                solution,
                wall,
                controller.fallbacks_engaged != fallbacks,
            )
        )
        return solution

    conference.snapshot = recording_snapshot
    controller._solve = timed_solve


def prepare_slowlink(seed: int, duration_s: float) -> Execute:
    """Build one ``MeetingRunner`` per case, hooked to record decisions."""
    default_mckp_cache().clear()
    runners = []
    for case, spec in slowlink_specs(seed, duration_s):
        runner = MeetingRunner(spec)
        sink: List[tuple] = []
        _hook_controller(runner, sink)
        runners.append((case, spec, runner, sink))

    def execute(timer: SectionTimer) -> RoundResult:
        reports = []
        for case, _spec, runner, _sink in runners:
            with timer(case.name):
                reports.append(runner.run())
        decisions: List[DecisionRecord] = []
        sim_events = 0
        views = {}
        for (case, spec, runner, sink), report in zip(runners, reports):
            sim = runner.sim
            # Events dispatched = events scheduled - events still queued.
            sim_events += next(sim._seq) - sim.pending_events
            for problem, solution, wall, fallback in sink:
                decisions.append(
                    DecisionRecord(
                        meeting=case.name,
                        source="fallback" if fallback else "solve",
                        busy_s=wall,
                        latency_s=0.0,
                        digest=solution_digest(solution),
                        problem=problem,
                        solution=solution,
                    )
                )
            hit = affected_views(case)
            views[case.name] = [
                (v.subscriber, v.publisher, v.framerate, v.quality_score,
                 v.stall_rate)
                for v in report.views
                if hit(v.subscriber, v.publisher)
            ]
        return RoundResult(
            busy_s=timer.busy_s,
            events=sim_events,
            decisions=decisions,
            virtual_s=sum(spec.duration_s for _, spec, _, _ in runners),
            extra={"views": views},
        )

    return execute


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

#: The control-plane sizings.  The size mixes follow the sampler's
#: expected distribution (2 + a geometric tail of mean 2), cut where a
#: world of ``meetings`` still holds enough meetings of each size.
STEADY = IngressSpec(
    meetings=1000,
    duration_s=20.0,
    mutations_per_meeting=0.0,
    start_spread_s=10.0,
    mix=((2, 150), (3, 92), (4, 56), (5, 34), (6, 21), (7, 12), (8, 8),
         (9, 5), (10, 3)),
)
CHURN = IngressSpec(
    meetings=900,
    duration_s=12.0,
    mutations_per_meeting=10.0,
    mix=((4, 100),),
)


def workloads(scale: float = 1.0) -> Dict[str, Callable[[int], Execute]]:
    """Workload name -> ``prepare(seed)``.  ``scale`` < 1 shrinks every
    workload (the smoke tests run them small)."""
    steady, churn = _scaled(STEADY, scale), _scaled(CHURN, scale)
    requests = max(1, int(LARGE_REQUESTS_PER_MEETING * scale))
    duration_s = SLOWLINK_DURATION_S * min(1.0, max(0.3, scale))
    return {
        "steady_reports": lambda seed: prepare_ingress(steady, seed),
        "churn_mutations": lambda seed: prepare_ingress(churn, seed),
        "large_meetings": lambda seed: prepare_large(seed, requests),
        "slowlink_media": lambda seed: prepare_slowlink(seed, duration_s),
    }


def _scaled(spec: IngressSpec, scale: float) -> IngressSpec:
    return replace(
        spec,
        meetings=max(2, int(spec.meetings * scale)),
        mix=tuple((size, max(1, int(n * scale))) for size, n in spec.mix),
    )
