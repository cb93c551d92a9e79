#!/usr/bin/env python3
"""The pipeline benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steady_reports --seed 1 \\
        --seconds 20 --trace 0

The command drives the real program in this one process (the
multiprocessing solve pool is off).  After a small untimed warm-up
round it prepares and runs full rounds of the chosen workload until
``--seconds`` have passed (at least two).  The first full round's
outputs go through every check; later rounds must replay it exactly.
With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced rounds and reports the
per-layer metrics, writes the spans as Chrome trace-event JSON to
``perfbench/out/trace_<workload>.json`` and prints each per-layer metric
on its own line.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``attempted`` counts decisions; a fallback or a shed counts as failed.
The exit code is 1 when any check fails, 2 when the program cannot be
found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Size of the untimed warm-up round, as a ``--scale``.
WARMUP_SCALE = 0.1

#: End-to-end metrics: name -> unit.  See README.md for each workload's
#: reading of ``events_per_s``.
END_TO_END = {
    "events_per_s": "events/s",
    "decide_p50_ms": "ms",
    "solve_p90_ms": "ms",
    "qoe_per_edge": "utility",
    "quality_score": "score",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "ingress.offers": "count",
    "ingress.decisions": "count",
    "ingress.coalesced": "count",
    "ingress.max_mailbox_depth": "count",
    "ingress.offer_ms": "ms",
    "ingress.runtime_ms": "ms",
    "ingress.reaction_p95_s": "s",
    "world.rebuilds": "count",
    "world.apply_ms": "ms",
    "cluster.requests": "count",
    "cluster.cache_hits": "count",
    "cluster.cache_misses": "count",
    "cluster.cache_hit_ratio": "ratio",
    "cluster.request_ms": "ms",
    "cluster.switches_per_edge_min": "1/min",
    "core.fingerprint_ms": "ms",
    "core.solves": "count",
    "core.kmr_iterations": "count",
    "core.solve_ms": "ms",
    "core.knapsack_ms": "ms",
    "core.mckp_ms": "ms",
    "core.merge_ms": "ms",
    "core.reduction_ms": "ms",
    "core.mckp_instances": "count",
    "core.mckp_cache_hit_ratio": "ratio",
    "invariants.checks": "count",
    "invariants.check_ms": "ms",
    "obs.events": "count",
    "obs.trace_ms": "ms",
    "obs.digest_ms": "ms",
    "obs.solution_digest_ms": "ms",
    "net.sim_events": "count",
    "net.packets": "count",
    "net.link_ms": "ms",
    "rtp.parse_ms": "ms",
    "rtp.serialize_ms": "ms",
    "rtp.nack_ms": "ms",
    "media.sfu_ms": "ms",
    "media.jitter_ms": "ms",
    "media.framerate_fps": "fps",
    "media.sim_speed": "s/s",
    "client.ms": "ms",
    "cc.gcc_ms": "ms",
    "cc.twcc_ms": "ms",
    "control.solves": "count",
    "control.solve_ms": "ms",
    "control.feedback_ms": "ms",
    "trace.wall_s": "s",
    "trace.other_ms": "ms",
    "trace.overhead": "ratio",
}

#: Layer -> the per-layer metric that reports its self time.
SELF_TIME_METRIC = {
    "ingress.runtime": "ingress.runtime_ms",
    "ingress.offer": "ingress.offer_ms",
    "world.apply": "world.apply_ms",
    "cluster.request": "cluster.request_ms",
    "core.fingerprint": "core.fingerprint_ms",
    "core.solve": "core.solve_ms",
    "core.knapsack": "core.knapsack_ms",
    "core.mckp": "core.mckp_ms",
    "core.merge": "core.merge_ms",
    "core.reduction": "core.reduction_ms",
    "invariants.check": "invariants.check_ms",
    "obs.trace": "obs.trace_ms",
    "obs.digest": "obs.digest_ms",
    "obs.solution_digest": "obs.solution_digest_ms",
    "net.link": "net.link_ms",
    "rtp.parse": "rtp.parse_ms",
    "rtp.serialize": "rtp.serialize_ms",
    "rtp.nack": "rtp.nack_ms",
    "media.sfu": "media.sfu_ms",
    "media.jitter": "media.jitter_ms",
    "client": "client.ms",
    "cc.gcc": "cc.gcc_ms",
    "cc.twcc": "cc.twcc_ms",
    "control.solve": "control.solve_ms",
    "control.feedback": "control.feedback_ms",
}

#: Layer -> the per-layer metric that reports its call count.
CALL_COUNT_METRIC = {
    "ingress.offer": "ingress.offers",
    "world.rebuilds": "world.rebuilds",
    "cluster.request": "cluster.requests",
    "core.solve": "core.solves",
    "invariants.check": "invariants.checks",
    "net.link": "net.packets",
    "control.solve": "control.solves",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink the workload (smoke tests); 1 is the benchmark size",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("--seconds must be > 0 and --scale in (0, 1]")
    return args


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


# --------------------------------------------------------------------- #
# Rounds
# --------------------------------------------------------------------- #


class Run:
    """The rounds of one benchmark run, checked as they complete."""

    def __init__(self, name: str, prepare, seed: int, probe) -> None:
        self.name = name
        self.prepare = prepare
        self.seed = seed
        self.probe = probe
        self.setups = []
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def round(self, tracer=None):
        """Prepare and execute one round; check it against the first.

        Set-up and timed sections are timed on the main thread's CPU
        clock and scaled to the reference speed by the speed probe.
        """
        import checks
        from workloads import SectionTimer

        gc.collect()
        mark = self.probe.mark()
        start = time.thread_time()
        execute = self.prepare(self.seed)
        self.setups.append((time.thread_time() - start) * self.probe.scale(mark))
        timer = SectionTimer(tracer, self.probe)
        gc.collect()
        result = execute(timer)
        result.setup_s = self.setups[-1]
        result.scale = timer.factor
        self.attempted += len(result.decisions)
        self.failed += checks.failed_operations(result.decisions)
        self.failures += checks.ledger_failures(result)
        if self.reference is None:
            self.reference = result
            self.failures += checks.invalid_decisions(result.decisions)
        else:
            # A replay of the first round (checked in full) is as valid
            # as it; the program's own invariant checker has validated
            # every decision of every round (see the ledgers).
            self.failures += checks.replay_failures(self.reference, result)
            # Later rounds keep only their timings, so memory stays flat
            # however many rounds a run makes.
            for decision in result.decisions:
                decision.problem = decision.solution = None
        return result

    def deep_checks(self, result):
        """The costly checks, once per run, on the first round.

        They run after the measurements: the MILP can take tens of MB
        that must not show in ``peak_rss_mb``.
        """
        import checks

        rng = random.Random(f"perfbench-checks:{self.seed}")
        failures = []
        if self.name == "slowlink_media":
            return checks.normal_case_failures(result)
        sample = checks.oracle_sample(result.decisions, rng)
        if self.name == "large_meetings":
            # The Python kernel needs seconds per large meeting: re-solve
            # one seeded request of the smallest Fig. 6c meeting instead.
            smallest = [d for d in result.decisions if d.meeting == "large-0"]
            sample = [rng.choice(smallest)]
        if not sample:
            failures.append("no decision eligible for the oracle")
        failures += checks.oracle_mismatches(sample)
        gaps, ratios = checks.milp_gaps(result.decisions, rng)
        failures += gaps
        if ratios:
            print(
                "KMR/MILP QoE on sampled small meetings: "
                + ", ".join(f"{r:.4f}" for r in ratios),
                file=sys.stderr,
            )
        return failures


def traced_round(run: Run, tracer) -> dict:
    """One round with every layer wrapped; its totals at reference speed."""
    from repro.core.engine import default_mckp_cache

    tracer.reset_totals()
    lookups = default_mckp_cache().stats
    hits, looked = lookups.hits, lookups.lookups
    with tracer.installed():
        result = run.round(tracer)
    hits, looked = lookups.hits - hits, lookups.lookups - looked
    return {
        "self_s": {
            layer: seconds * result.scale
            for layer, seconds in tracer.self_s.items()
        },
        "root_s": tracer.root_s * result.scale,
        "counts": {
            "calls": dict(tracer.calls),
            "sources": dict(tracer.cache_sources),
            "kmr_iterations": tracer.kmr_iterations,
            "mckp_instances": tracer.mckp_instances,
            "mckp_hit_ratio": hits / looked if looked else 0.0,
        },
    }


def end_to_end(run: Run, rounds) -> dict:
    """The end-to-end metrics of the untraced rounds."""
    from workloads import edge_scores

    reference, timed = rounds[0], rounds
    walls = [d.busy_s * r.scale for r in timed for d in r.decisions]
    solves = [d.busy_s * r.scale for r in timed for d in r.decisions
              if d.source == "solve"]
    scores = [edge_scores(d.problem, d.solution) for d in reference.decisions]
    views = reference.extra.get("views")
    if views:
        quality = statistics.fmean(
            statistics.fmean(v[3] for v in case) for case in views.values()
        )
    else:
        quality = statistics.fmean(s[1] for s in scores)
    return {
        "events_per_s": statistics.median(
            r.events / (r.busy_s * r.scale) for r in timed
        ),
        "decide_p50_ms": statistics.median(walls) * 1e3,
        "solve_p90_ms": percentile(solves, 0.90) * 1e3,
        "qoe_per_edge": statistics.fmean(s[0] for s in scores),
        "quality_score": quality,
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def switches_per_edge_min(result) -> float:
    """Resolution switches per subscription edge per virtual minute."""
    last = {}
    edges = {}
    switches = 0
    for d in result.decisions:
        now = {
            (sub, pub): stream.resolution
            for sub, per_pub in d.solution.assignments.items()
            for pub, stream in per_pub.items()
        }
        edges.setdefault(d.meeting, len(d.problem.subscriptions))
        before = last.get(d.meeting)
        if before is not None:
            switches += sum(
                1 for edge, res in now.items()
                if edge in before and before[edge] != res
            )
        last[d.meeting] = now
    edge_minutes = sum(edges.values()) * result.virtual_s / 60.0
    return switches / edge_minutes if edge_minutes else 0.0


def per_layer(traced, plain_rounds, reference) -> dict:
    """Per-layer metrics: means over the traced rounds, plus totals."""
    from layers import ROOT

    metrics = {name: 0.0 for name in PER_LAYER}
    counts = traced[0]["counts"]
    for layer, metric in SELF_TIME_METRIC.items():
        metrics[metric] = statistics.fmean(
            t["self_s"].get(layer, 0.0) for t in traced
        ) * 1e3
    for layer, metric in CALL_COUNT_METRIC.items():
        metrics[metric] = counts["calls"].get(layer, 0)
    sources = counts["sources"]
    hits, misses = sources.get("cache", 0), sources.get("solve", 0)
    metrics["cluster.cache_hits"] = hits
    metrics["cluster.cache_misses"] = misses
    metrics["cluster.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    metrics["core.kmr_iterations"] = counts["kmr_iterations"]
    metrics["core.mckp_instances"] = counts["mckp_instances"]
    metrics["core.mckp_cache_hit_ratio"] = counts["mckp_hit_ratio"]
    wall = statistics.fmean(t["root_s"] for t in traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.other_ms"] = statistics.fmean(
        t["self_s"].get(ROOT, 0.0) for t in traced
    ) * 1e3
    plain = statistics.median(r.busy_s * r.scale for r in plain_rounds)
    metrics["trace.overhead"] = wall / plain - 1.0

    extra = reference.extra
    if "coalesced" in extra:
        metrics["ingress.decisions"] = len(reference.decisions)
        metrics["ingress.coalesced"] = extra["coalesced"]
        metrics["ingress.max_mailbox_depth"] = extra["max_mailbox_depth"]
        metrics["ingress.reaction_p95_s"] = percentile(
            [d.latency_s for d in reference.decisions], 0.95
        )
        metrics["obs.events"] = extra["events_emitted"]
    metrics["cluster.switches_per_edge_min"] = switches_per_edge_min(
        reference
    )
    if "views" in extra:
        metrics["net.sim_events"] = reference.events
        metrics["media.framerate_fps"] = statistics.fmean(
            statistics.fmean(v[2] for v in case)
            for case in extra["views"].values()
        )
        simulated = reference.virtual_s * len(extra["views"])
        metrics["media.sim_speed"] = statistics.median(
            simulated / (r.busy_s * r.scale) for r in plain_rounds
        )
    return metrics


def self_time_identity(metrics: dict) -> float:
    """|sum of self times + remainder - traced wall| in ms."""
    total = sum(metrics[m] for m in SELF_TIME_METRIC.values())
    return abs(total + metrics["trace.other_ms"] - metrics["trace.wall_s"] * 1e3)


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks
    from layers import LayerTracer
    from speed import SpeedProbe
    from workloads import SectionTimer, workloads

    catalog = workloads(args.scale)
    if args.workload not in catalog:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: "
            f"{', '.join(catalog)}",
            file=sys.stderr,
        )
        return 2
    deadline = time.perf_counter() + args.seconds
    tracer = LayerTracer() if args.trace else None
    traced = []
    with SpeedProbe() as probe:
        run = Run(args.workload, catalog[args.workload], args.seed, probe)
        missed = checks.self_test()
        run.failures += [f"self-test: {m}" for m in missed]
        # Warm-up: the first pass in a process runs ~20% slower.  A small
        # round of the same workload warms it without costing a full one.
        workloads(WARMUP_SCALE)[args.workload](args.seed)(SectionTimer())
        plain = [run.round()]
        while not (len(plain) > 1 and time.perf_counter() >= deadline):
            if tracer is not None:
                traced.append(traced_round(run, tracer))
            plain.append(run.round())

    if tracer is not None:
        metrics = per_layer(traced, plain, run.reference)
        if len({json.dumps(t["counts"], sort_keys=True) for t in traced}) != 1:
            run.failures.append("traced rounds disagree on work counts")
        if self_time_identity(metrics) > 1e-6:
            run.failures.append("self times do not add up to the wall time")
        out = HERE / "out" / f"trace_{args.workload}.json"
        tracer.write_chrome_trace(out)
        for name, unit in PER_LAYER.items():
            print(f"{name} {metrics[name]:.6g} {unit}")
        units = PER_LAYER
    else:
        metrics = end_to_end(run, plain)
        units = END_TO_END
    run.failures += run.deep_checks(run.reference)

    for failure in run.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
