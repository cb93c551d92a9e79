"""Perf-regression gate: three fixed workloads vs a committed baseline.

Runs the same deterministic workloads every time:

1. **solver_mesh** — solve-latency distribution (p50/p95) over a fixed
   set of full-mesh problems (the Fig. 6 workload shape);
2. **cluster_cache** — the fingerprint-cache hit rate of a repeated
   submit/tick workload through the controller cluster (deterministic);
3. **chaos_events** — a full chaos run (``bandwidth_collapse`` seed 1)
   with the telemetry pipeline enabled; writes the sample event log to
   ``benchmarks/out/sample_events.jsonl`` and records the event digest.

Results are written canonically to ``benchmarks/out/BENCH_PR4.json`` and
compared against the committed baseline in
``benchmarks/baselines/BENCH_PR4.json``:

* solve-latency p95 may not regress more than 15 % (after normalizing by
  the calibration workload, so a slower CI machine does not false-fail);
* the cache hit rate may not drop more than 15 % relative;
* the event digest is compared informationally (it changes whenever the
  event vocabulary or the runner's schedule changes — regenerate the
  baseline alongside such changes).

Outside CI the comparison only prints; the hard failure is armed by
``REPRO_PERF_GATE=1`` (set in the dedicated ``perf-gate`` CI job).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List

from _harness import OUT_DIR, emit
from _problems import mesh_meeting

from repro.chaos import ChaosConfig, ChaosRunner, get_scenario
from repro.cluster import ClusterConfig, ControllerCluster
from repro.core.solver import GsoSolver, SolverConfig
from repro.obs import enabled_registry, record_timeseries
from repro.obs.tracing import assemble_trees

#: v2: chaos_events carries the trace digest and per-stage critical-path
#: latency attribution (p95 per stage), used for the failure diff.
BENCH_SCHEMA = "repro.bench_pr4/v2"
BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_PR4.json"
RESULT_PATH = OUT_DIR / "BENCH_PR4.json"
SAMPLE_EVENTS_PATH = OUT_DIR / "sample_events.jsonl"

#: Maximum tolerated relative regression on the gated measures.
REGRESSION_BUDGET = 0.15

#: Calibration ratios outside this band are treated as measurement noise.
CALIBRATION_CLAMP = (0.25, 4.0)


def _percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (same rule as the obs histograms)."""
    ordered = sorted(values)
    rank = max(1, int(round(p / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def _calibrate(rounds: int = 5, iterations: int = 200_000) -> float:
    """Best-of wall time of a fixed pure-Python workload.

    The committed baseline carries the recording machine's calibration;
    the gate scales latency budgets by the ratio so a slower (or faster)
    CI machine is judged fairly.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for k in range(iterations):
            acc += k * k % 7
        best = min(best, time.perf_counter() - start)
    return best


def _solver_mesh() -> Dict[str, object]:
    """Workload 1: solve-latency p50/p95 over fixed mesh problems.

    Each problem's latency is its best-of-rounds wall time — scheduler
    noise only ever adds time, so the minimum is the stable estimate of
    the solve cost, while an algorithmic regression moves every round.
    The percentiles are then taken across the problem sizes.
    """
    solver = GsoSolver(SolverConfig(granularity_kbps=10))
    sizes = (6, 8, 10, 12, 14, 16)
    problems = [mesh_meeting(n, 9, seed=3) for n in sizes]
    for problem in problems:  # warmup: numpy + allocator caches
        solver.solve(problem)
    rounds = 5
    samples: List[float] = []
    for problem in problems:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            solver.solve(problem)
            best = min(best, time.perf_counter() - start)
        samples.append(best)
    return {
        "solves": len(problems) * rounds,
        "p50_ms": round(_percentile(samples, 50.0) * 1000, 4),
        "p95_ms": round(_percentile(samples, 95.0) * 1000, 4),
    }


def _cluster_cache() -> Dict[str, object]:
    """Workload 2: fingerprint-cache hit rate (fully deterministic)."""
    cluster = ControllerCluster(
        ClusterConfig(shards=2, cache_capacity=1024)
    )
    try:
        # Eight meetings sharing four distinct pictures: resubmissions of
        # an already-solved picture must come back from the cache.
        meetings = [
            (f"bench-{k}", mesh_meeting(6, 6, seed=10 + k % 4))
            for k in range(8)
        ]
        for meeting_id, _ in meetings:
            cluster.register(meeting_id)
        serves = 0
        for tick in range(12):
            now = float(tick)
            for meeting_id, problem in meetings:
                cluster.submit(meeting_id, problem, now)
            serves += len(cluster.tick(now))
        stats = cluster.stats()["cache"]
    finally:
        cluster.close()
    return {
        "serves": serves,
        "hits": stats["hits"],
        "misses": stats["misses"],
        "hit_rate": round(stats["hit_rate"], 6),
    }


def _chaos_events() -> Dict[str, object]:
    """Workload 3: full chaos run with the telemetry pipeline enabled.

    Also assembles the trace plane and records per-stage critical-path
    p95 latencies (virtual clock) — the attribution the gate's failure
    output diffs against the baseline.  Attribution exactness (stage
    durations sum to each decision's end-to-end latency) is asserted
    unconditionally here, on the fixed gate workload.
    """
    config = ChaosConfig(seed=1, meetings=4, duration_s=10.0, shards=2)
    scenario = get_scenario("bandwidth_collapse")
    runner = ChaosRunner(
        config, scenario.build(1, config), scenario=scenario.name
    )
    start = time.perf_counter()
    with enabled_registry(), record_timeseries():
        report = runner.run()
    wall_s = time.perf_counter() - start
    runner.events.write_jsonl(SAMPLE_EVENTS_PATH)

    traces = assemble_trees(runner.events.events)
    for tree in traces.trees():
        attributed = sum(tree.stage_durations().values())
        assert abs(attributed - tree.latency_s) < 1e-9, (
            f"critical-path attribution not exact for {tree.cid}: "
            f"stages sum to {attributed} but latency is {tree.latency_s}"
        )
    stages: Dict[str, Dict[str, float]] = {}
    for stage, samples in traces.stage_latencies().items():
        durations = sorted(d for (_, d) in samples)
        stages[stage] = {
            "count": len(durations),
            "p95_ms": round(_percentile(durations, 95.0) * 1000, 4),
        }
    return {
        "events": runner.events.emitted,
        "event_digest": runner.events.digest(),
        "trace_digest": traces.digest(),
        "stages": stages,
        "slo_ok": report.slo_ok,
        "ok": report.ok,
        "wall_s": round(wall_s, 4),
    }


def _stage_diff(result: dict, baseline: dict) -> str:
    """Per-stage attribution diff vs the baseline, worst regression first.

    Names the stage whose p95 grew the most — the gate's failure output
    points at *where* the time went instead of a bare end-to-end number.
    """
    current = result["workloads"]["chaos_events"].get("stages", {})
    base = baseline["workloads"]["chaos_events"].get("stages", {})
    if not current or not base:
        return "stage attribution unavailable (regenerate the baseline)"
    rows = []
    for stage in sorted(set(current) | set(base)):
        cur_p95 = float(current.get(stage, {}).get("p95_ms", 0.0))
        base_p95 = float(base.get(stage, {}).get("p95_ms", 0.0))
        delta = cur_p95 - base_p95
        rows.append((delta, stage, base_p95, cur_p95))
    rows.sort(reverse=True)
    worst_delta, worst_stage, _, _ = rows[0]
    parts = [
        f"{stage}: {base_p95:.3f} -> {cur_p95:.3f} ms ({delta:+.3f})"
        for delta, stage, base_p95, cur_p95 in rows
    ]
    verdict = (
        f"worst-regressed stage: {worst_stage} ({worst_delta:+.3f} ms p95)"
        if worst_delta > 0
        else "no stage regressed (end-to-end change is outside the "
             "traced pipeline)"
    )
    return verdict + "; " + "; ".join(parts)


def _compare(result: dict, baseline: dict) -> List[str]:
    """Gate comparisons; returns a list of failure descriptions."""
    failures: List[str] = []
    lo, hi = CALIBRATION_CLAMP
    ratio = result["calibration_s"] / baseline["calibration_s"]
    ratio = min(max(ratio, lo), hi)

    base_p95 = baseline["workloads"]["solver_mesh"]["p95_ms"]
    allowed_p95 = base_p95 * ratio * (1.0 + REGRESSION_BUDGET)
    current_p95 = result["workloads"]["solver_mesh"]["p95_ms"]
    if current_p95 > allowed_p95:
        failures.append(
            f"solver_mesh p95 {current_p95:.3f} ms > allowed "
            f"{allowed_p95:.3f} ms (baseline {base_p95:.3f} ms, "
            f"calibration ratio {ratio:.2f}); "
            f"stage attribution: {_stage_diff(result, baseline)}"
        )

    base_hit = baseline["workloads"]["cluster_cache"]["hit_rate"]
    floor_hit = base_hit * (1.0 - REGRESSION_BUDGET)
    current_hit = result["workloads"]["cluster_cache"]["hit_rate"]
    if current_hit < floor_hit:
        failures.append(
            f"cluster_cache hit_rate {current_hit:.4f} < floor "
            f"{floor_hit:.4f} (baseline {base_hit:.4f})"
        )
    return failures


def test_perf_gate():
    calibration_s = _calibrate()
    result = {
        "schema": BENCH_SCHEMA,
        "calibration_s": round(calibration_s, 6),
        "workloads": {
            "solver_mesh": _solver_mesh(),
            "cluster_cache": _cluster_cache(),
            "chaos_events": _chaos_events(),
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    RESULT_PATH.write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )

    solver = result["workloads"]["solver_mesh"]
    cache = result["workloads"]["cluster_cache"]
    chaos = result["workloads"]["chaos_events"]
    lines = [
        f"calibration        : {calibration_s * 1000:8.3f} ms "
        "(fixed pure-Python workload, best of 5)",
        f"solver_mesh        : p50={solver['p50_ms']:.3f} ms  "
        f"p95={solver['p95_ms']:.3f} ms  ({solver['solves']} solves)",
        f"cluster_cache      : hit_rate={cache['hit_rate']:.4f}  "
        f"({cache['hits']} hits / {cache['misses']} misses, "
        f"{cache['serves']} serves)",
        f"chaos_events       : {chaos['events']} events  "
        f"digest={chaos['event_digest'][:16]}  wall={chaos['wall_s']:.3f} s",
        "stage p95 (virtual): " + "  ".join(
            f"{stage}={info['p95_ms']:.1f}ms"
            for stage, info in sorted(chaos["stages"].items())
        ) + f"  trace_digest={chaos['trace_digest'][:16]}",
        f"wrote {RESULT_PATH.relative_to(OUT_DIR.parent)} and "
        f"{SAMPLE_EVENTS_PATH.relative_to(OUT_DIR.parent)}",
    ]

    if not BASELINE_PATH.exists():
        lines.append("no committed baseline — comparison skipped")
        emit("perf_gate", lines)
        return

    baseline = json.loads(BASELINE_PATH.read_text())
    failures = _compare(result, baseline)
    base_digest = baseline["workloads"]["chaos_events"]["event_digest"]
    if chaos["event_digest"] != base_digest:
        lines.append(
            "NOTE: event digest differs from baseline "
            f"({base_digest[:16]} -> {chaos['event_digest'][:16]}) — "
            "regenerate benchmarks/baselines/BENCH_PR4.json if the event "
            "vocabulary or runner schedule changed intentionally"
        )
    lines.append(
        "gate: " + ("FAIL — " + "; ".join(failures) if failures else "PASS")
    )
    emit("perf_gate", lines)

    if failures and os.environ.get("REPRO_PERF_GATE") == "1":
        raise AssertionError("perf gate failed: " + "; ".join(failures))
