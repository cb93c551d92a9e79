"""Independent correctness checks of what the workloads produced.

Every check here is a computation made apart from the hot path, or a
property the method must have; none compares against a stored copy of
earlier output.

* Every decision satisfies ``Solution.validate(problem)``.
* A seeded sample of decisions -- cache-served ones included -- is
  re-solved by the pure-Python oracle (``kernel="python"``,
  ``incremental=False``, no cache in play) and must reproduce the served
  ``solution_digest``.  That checks the numpy kernel, the incremental
  engine and the fingerprint cache together.
* On sampled meetings of at most six clients, the KMR QoE stays at or
  below the joint MILP optimum (``core.milp.solve_joint_milp``).
* Conservation ledgers (mailboxes, plane accounting, trace assembly)
  balance, and every round of a run replays the first one exactly.
* On ``slowlink_media``, the healthy ``normal`` case plays at the source
  framerate with no stall.
* :func:`self_test` plants a wrong solution, a wrong digest and an
  unbalanced ledger, and fails unless each is caught.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.chaos.report import solution_digest
from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import make_ladder
from repro.core.milp import solve_joint_milp
from repro.core.solver import GsoSolver, SolverConfig
from repro.core.types import Resolution
from repro.media.source import SourceConfig

from workloads import GRANULARITY_KBPS, DecisionRecord, RoundResult

#: The oracle: the cluster's solver grid, the pure-Python DP kernel and
#: the non-incremental KMR loop (which consults no MCKP cache).
ORACLE_CONFIG = SolverConfig(
    granularity_kbps=GRANULARITY_KBPS, kernel="python", incremental=False
)

#: Decisions re-solved by the oracle per run, and the largest meeting
#: sampled (the Python kernel is ~100x slower than numpy).
ORACLE_SAMPLE = 8
ORACLE_MAX_CLIENTS = 12

#: Meetings compared against the MILP optimum per run, and their size cap.
MILP_SAMPLE = 3
MILP_MAX_CLIENTS = 6

#: Relative slack of the KMR <= MILP comparison (the MILP's own
#: feasibility tolerance).
MILP_TOLERANCE = 1e-6

#: The healthy case must render at least this share of the source fps.
NORMAL_FPS_SHARE = 0.95

#: Decision sources that count as failed operations.
FAILED_SOURCES = ("fallback", "shed")


def invalid_decisions(decisions: Sequence[DecisionRecord]) -> List[str]:
    """One message per decision whose solution violates its problem."""
    failures = []
    for index, decision in enumerate(decisions):
        try:
            decision.solution.validate(decision.problem)
        except AssertionError as exc:
            failures.append(
                f"decision {index} ({decision.meeting}) invalid: {exc}"
            )
    return failures


def _clients(decision: DecisionRecord) -> int:
    return len(decision.problem.clients)


def oracle_sample(
    decisions: Sequence[DecisionRecord], rng: random.Random
) -> List[DecisionRecord]:
    """A seeded sample: half cache-served, half solved, when both exist."""
    eligible = [d for d in decisions if _clients(d) <= ORACLE_MAX_CLIENTS]
    cached = [d for d in eligible if d.source == "cache"]
    solved = [d for d in eligible if d.source == "solve"]
    take_cached = min(len(cached), ORACLE_SAMPLE // 2)
    take_solved = min(len(solved), ORACLE_SAMPLE - take_cached)
    return rng.sample(cached, take_cached) + rng.sample(solved, take_solved)


def oracle_mismatches(sample: Sequence[DecisionRecord]) -> List[str]:
    """Re-solve each decision with the oracle; digests must agree."""
    oracle = GsoSolver(ORACLE_CONFIG)
    failures = []
    for decision in sample:
        digest = solution_digest(oracle.solve(decision.problem))
        if digest != decision.digest:
            failures.append(
                f"{decision.meeting} ({decision.source}): served digest "
                f"{decision.digest} != oracle digest {digest}"
            )
    return failures


def milp_gaps(
    decisions: Sequence[DecisionRecord], rng: random.Random
) -> Tuple[List[str], List[float]]:
    """KMR QoE must not exceed the MILP optimum on small meetings.

    Returns ``(failures, kmr_over_milp_ratios)``.
    """
    distinct: Dict[str, DecisionRecord] = {}
    for decision in decisions:
        if 2 <= _clients(decision) <= MILP_MAX_CLIENTS:
            distinct.setdefault(
                decision.problem.fingerprint(), decision
            )
    keys = sorted(distinct)
    failures, ratios = [], []
    for key in rng.sample(keys, min(MILP_SAMPLE, len(keys))):
        decision = distinct[key]
        optimum = solve_joint_milp(decision.problem).total_qoe()
        kmr = decision.solution.total_qoe()
        if kmr > optimum * (1 + MILP_TOLERANCE) + MILP_TOLERANCE:
            failures.append(
                f"{decision.meeting}: KMR QoE {kmr:.6f} exceeds the MILP "
                f"optimum {optimum:.6f}"
            )
        if optimum > 0:
            ratios.append(kmr / optimum)
    return failures, ratios


def ledger_failures(result: RoundResult) -> List[str]:
    """Conservation identities that do not balance."""
    return [
        f"ledger {name}: {lhs} != {rhs}"
        for name, (lhs, rhs) in result.ledgers.items()
        if lhs != rhs
    ]


def replay_failures(reference: RoundResult, result: RoundResult) -> List[str]:
    """A round must replay the reference round's decisions exactly."""
    ours = [(d.meeting, d.source, d.digest) for d in result.decisions]
    theirs = [(d.meeting, d.source, d.digest) for d in reference.decisions]
    if ours != theirs:
        return ["a round's decisions differ from the first round's"]
    if result.extra.get("digests") != reference.extra.get("digests"):
        return ["a round's event or trace digest differs from the first"]
    if result.extra.get("views") != reference.extra.get("views"):
        return ["a round's media views differ from the first round's"]
    return []


def normal_case_failures(result: RoundResult) -> List[str]:
    """The healthy case plays at source framerate with no stall."""
    views = result.extra.get("views", {}).get("normal")
    if not views:
        return ["no views measured for the normal case"]
    floor = NORMAL_FPS_SHARE * SourceConfig().fps
    return [
        f"normal {sub}<-{pub}: {fps:.2f} fps, stall {stall:.3f}"
        for sub, pub, fps, _quality, stall in views
        if fps < floor or stall > 0
    ]


def failed_operations(decisions: Sequence[DecisionRecord]) -> int:
    """Fallbacks and sheds: decisions that degraded instead of solving."""
    return sum(1 for d in decisions if d.source in FAILED_SOURCES)


# --------------------------------------------------------------------- #
# Self-test: planted faults must be caught
# --------------------------------------------------------------------- #


def _planted_problem(downlink_kbps: int) -> Problem:
    ladder = make_ladder(levels_per_resolution=3)
    clients = ["a", "b", "c"]
    return Problem(
        {c: ladder for c in clients},
        {c: Bandwidth(3000, downlink_kbps) for c in clients},
        [
            Subscription(s, p, Resolution.P720)
            for s in clients
            for p in clients
            if s != p
        ],
    )


def self_test() -> List[str]:
    """Plant one fault per check; return the faults that went unseen."""
    problem = _planted_problem(4000)
    solution = GsoSolver(
        SolverConfig(granularity_kbps=GRANULARITY_KBPS)
    ).solve(problem)
    good = DecisionRecord(
        meeting="planted",
        source="solve",
        busy_s=0.0,
        latency_s=0.0,
        digest=solution_digest(solution),
        problem=problem,
        solution=solution,
    )
    missed = []
    if invalid_decisions([good]) or oracle_mismatches([good]):
        missed.append("the planted correct decision was flagged")
    # A solution served against a picture whose downlinks it overruns.
    starved = DecisionRecord(**{**vars(good), "problem": _planted_problem(200)})
    if not invalid_decisions([starved]):
        missed.append("a solution overrunning the downlinks passed")
    wrong_digest = DecisionRecord(**{**vars(good), "digest": "0" * 16})
    if not oracle_mismatches([wrong_digest]):
        missed.append("a wrong solution digest passed the oracle")
    unbalanced = RoundResult(
        setup_s=0.0, busy_s=0.0, events=0, decisions=[],
        ledgers={"planted": (3, 2)},
    )
    if not ledger_failures(unbalanced):
        missed.append("an unbalanced ledger passed")
    return missed
