"""Sharded controller cluster: hosting many meetings behind one solve
service (consistent-hash sharding, coalescing schedulers, fingerprint
cache, in-process solver, admission control).
"""

from .admission import AdmissionController, AdmissionStats
from .cache import CacheStats, SolutionCache
from .cluster import (
    ClusterConfig,
    ControllerCluster,
    MeetingRecord,
    ServedSolution,
    ShardWorker,
    SOURCE_CACHE,
    SOURCE_FALLBACK,
    SOURCE_SHED,
    SOURCE_SOLVE,
)
from .hashring import ConsistentHashRing, moved_keys, stable_hash
from .scheduler import (
    SchedulerStats,
    SolveRequest,
    SolveScheduler,
    TRIGGER_EVENT,
    TRIGGER_REHOME,
    TRIGGER_SYNC,
    TRIGGER_TIME,
)

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "CacheStats",
    "ClusterConfig",
    "ConsistentHashRing",
    "ControllerCluster",
    "MeetingRecord",
    "SchedulerStats",
    "ServedSolution",
    "ShardWorker",
    "SolutionCache",
    "SolveRequest",
    "SolveScheduler",
    "SOURCE_CACHE",
    "SOURCE_FALLBACK",
    "SOURCE_SHED",
    "SOURCE_SOLVE",
    "TRIGGER_EVENT",
    "TRIGGER_REHOME",
    "TRIGGER_SYNC",
    "TRIGGER_TIME",
    "moved_keys",
    "stable_hash",
]
