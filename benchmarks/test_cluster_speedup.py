"""Controller-cluster solve service: fingerprint-cache speedup.

The cluster re-solves every hosted meeting each 1–3 s (Fig. 12), and most
rounds see an unchanged global picture — exactly the workload the
fingerprint cache targets.  This benchmark pushes a repeated-structure
workload (M distinct meetings × T control rounds) through
``ControllerCluster.solve_conference`` twice — cache off, then cache on —
verifies both runs return byte-identical solutions, and reports the
speedup (budget: >= 1.3x).

Writes ``benchmarks/out/cluster_speedup.txt``.
"""

from __future__ import annotations

import pickle
import time

from _harness import emit
from _problems import mesh_meeting

from repro.cluster import ClusterConfig, ControllerCluster

#: Workload: distinct small meshes (different seeds), re-solved over
#: several control rounds — per-round repetition is what production's
#: periodic re-solve loop produces.
N_MEETINGS = 12
N_CLIENTS = 8
LEVELS = 9
ROUNDS = 6

#: Speedup budget for the cached run over the uncached run.
MIN_SPEEDUP = 1.3


def _workload():
    return [
        (f"meeting-{i}", mesh_meeting(N_CLIENTS, LEVELS, seed=100 + i))
        for i in range(N_MEETINGS)
    ]


def _run(config: ClusterConfig):
    """Solve the full workload; returns (seconds, solutions, cluster stats)."""
    problems = _workload()
    outputs = []
    with ControllerCluster(config) as cluster:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            for meeting_id, problem in problems:
                outputs.append(cluster.solve_conference(meeting_id, problem))
        elapsed = time.perf_counter() - start
        stats = cluster.stats()
    return elapsed, outputs, stats


def test_cluster_cache_speedup():
    base_s, base_out, _ = _run(ClusterConfig(shards=4, cache_capacity=0))
    cached_s, cached_out, cached_stats = _run(ClusterConfig(shards=4))

    # Caching must not change a single byte of any solution.
    assert [pickle.dumps(s) for s in base_out] == [
        pickle.dumps(s) for s in cached_out
    ]

    cache = cached_stats["cache"]
    assert cache["misses"] == N_MEETINGS  # one solve per distinct structure
    assert cache["hits"] == N_MEETINGS * (ROUNDS - 1)

    speedup = base_s / cached_s
    solves = N_MEETINGS * ROUNDS
    lines = [
        f"workload: {N_MEETINGS} meetings x {ROUNDS} rounds "
        f"({N_CLIENTS}-client meshes, {LEVELS} bitrate levels, "
        f"granularity 25 kbps)",
        "",
        f"cache off           : {base_s * 1000:9.1f} ms  "
        f"({base_s * 1000 / solves:6.2f} ms/solve)",
        f"cache on            : {cached_s * 1000:9.1f} ms  "
        f"({cached_s * 1000 / solves:6.2f} ms/solve, "
        f"hit rate {cache['hit_rate']:.0%})",
        "",
        f"cache speedup       : {speedup:9.2f}x  (budget: >= {MIN_SPEEDUP}x)",
        "",
        "both runs returned byte-identical solutions for every",
        "(meeting, round); the cache's fingerprint key is exactly as",
        "coarse as the solver's own granularity blindness, so a hit is a",
        "legal replay, not an approximation.",
    ]
    emit("cluster_speedup", lines)
    assert speedup >= MIN_SPEEDUP, (
        f"cache speedup {speedup:.2f}x under budget {MIN_SPEEDUP}x"
    )
