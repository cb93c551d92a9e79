"""Fleet placement: load-aware meeting packing and live migration (the
*Tetris* layer above ``cluster/``).

See ``docs/PLACEMENT.md`` for the full design.
"""

from .loadmodel import (
    DEFAULT_MEETING_COST,
    LoadSignals,
    ShardLoadModel,
    conference_cost,
    load_signals,
    meeting_cost,
)
from .policies import (
    POLICIES,
    POLICY_BEST_FIT,
    POLICY_HASH,
    POLICY_LEAST_LOADED,
    BestFitPolicy,
    HashPolicy,
    LeastLoadedPolicy,
    PlacementPolicy,
    get_policy,
)
from .migration import HotShardDetector, RebalanceResult

__all__ = [
    "DEFAULT_MEETING_COST",
    "LoadSignals",
    "ShardLoadModel",
    "conference_cost",
    "load_signals",
    "meeting_cost",
    "POLICIES",
    "POLICY_BEST_FIT",
    "POLICY_HASH",
    "POLICY_LEAST_LOADED",
    "BestFitPolicy",
    "HashPolicy",
    "LeastLoadedPolicy",
    "PlacementPolicy",
    "get_policy",
    "HotShardDetector",
    "RebalanceResult",
]
