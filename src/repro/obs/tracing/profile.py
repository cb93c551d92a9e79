"""Empirical per-stage latency profiles (``repro.latency_profile/v1``).

A :class:`LatencyProfile` summarizes the measured stage durations of a
set of trace trees into bounded per-stage sample reservoirs, and exports
them as a canonical JSON artifact.  The profile closes the ROADMAP loop
on ``deploy/ingress_stream.ModeledBackend``: instead of the analytic
M/M/1 closed form, the modeled fleet can **sample solve service times
from a recorded profile** — seeded, byte-deterministic, and traceable
back to the run that produced it.

Determinism contract:

* ``observe`` order is the only input; reservoirs use the registry's
  stride-doubling subsample, no RNG.
* :meth:`sample` hashes ``(seed, stage, key)`` into a uniform in
  ``[0, 1)`` and inverts the empirical CDF — the same draw for the same
  key regardless of call order, so modeled fleets stay byte-identical
  across runs and across concurrency (the fleet benchmark double-run
  test enforces this).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ...canonical import canonical_json, sha256_hex
from .tree import TraceTree

#: Schema identifier stamped into every profile artifact.
PROFILE_SCHEMA = "repro.latency_profile/v1"

#: Per-stage reservoir capacity (stride-doubling beyond this).
DEFAULT_SAMPLES = 2048


class _StageStats:
    """Bounded duration samples + exact count/sum/min/max for one stage."""

    __slots__ = (
        "count",
        "sum_s",
        "min_s",
        "max_s",
        "samples",
        "capacity",
        "_stride",
        "_next_sample",
    )

    def __init__(self, capacity: int) -> None:
        self.count = 0
        self.sum_s = 0.0
        self.min_s = float("inf")
        self.max_s = float("-inf")
        self.samples: List[float] = []
        self.capacity = max(1, capacity)
        self._stride = 1
        self._next_sample = 0

    def observe(self, value: float) -> None:
        index = self.count
        self.count += 1
        self.sum_s += value
        self.min_s = min(self.min_s, value)
        self.max_s = max(self.max_s, value)
        if index != self._next_sample:
            return
        self._next_sample = index + self._stride
        if len(self.samples) >= self.capacity:
            self.samples = self.samples[::2]
            self._stride *= 2
            self._next_sample = index + self._stride
        self.samples.append(value)


class LatencyProfile:
    """Empirical per-stage latency distributions with seeded sampling."""

    def __init__(
        self, source: str = "", samples_per_stage: int = DEFAULT_SAMPLES
    ) -> None:
        self.source = source
        self.samples_per_stage = samples_per_stage
        self._stages: Dict[str, _StageStats] = {}

    # -- building ---------------------------------------------------------- #

    def observe(self, stage: str, duration_s: float) -> None:
        stats = self._stages.get(stage)
        if stats is None:
            stats = self._stages[stage] = _StageStats(
                self.samples_per_stage
            )
        stats.observe(duration_s)

    def observe_tree(self, tree: TraceTree) -> None:
        """Fold every critical-path span of ``tree`` (and its attached
        subtrees) into the profile."""
        for node in tree.walk():
            for span in node.critical_path():
                self.observe(span.stage, span.duration_s)

    # -- reading ------------------------------------------------------------ #

    def stages(self) -> List[str]:
        return sorted(self._stages)

    def count(self, stage: str) -> int:
        stats = self._stages.get(stage)
        return stats.count if stats else 0

    def mean(self, stage: str) -> float:
        stats = self._stages.get(stage)
        if not stats or not stats.count:
            return 0.0
        return stats.sum_s / stats.count

    def quantile(self, stage: str, q: float) -> float:
        """Empirical ``q``-quantile of a stage's retained samples
        (linear interpolation between order statistics)."""
        stats = self._stages.get(stage)
        if not stats or not stats.samples:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        ordered = sorted(stats.samples)
        if len(ordered) == 1:
            return ordered[0]
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def sample(self, stage: str, key: str, seed: int = 0) -> float:
        """A deterministic draw from a stage's empirical distribution.

        Hashes ``(seed, stage, key)`` into a uniform and inverts the
        CDF, so a given key always draws the same value — independent of
        call order, thread, or how many other draws happened.
        """
        payload = f"{seed}|{stage}|{key}".encode("utf-8")
        u = (
            int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
            / 2.0**64
        )
        return self.quantile(stage, u)

    # -- canonical encoding --------------------------------------------------- #

    def to_dict(self) -> Dict[str, object]:
        stages: Dict[str, object] = {}
        for name in self.stages():
            stats = self._stages[name]
            stages[name] = {
                "count": stats.count,
                "sum_s": round(stats.sum_s, 9),
                "min_s": round(stats.min_s, 9),
                "max_s": round(stats.max_s, 9),
                "samples": [round(v, 9) for v in sorted(stats.samples)],
            }
        return {
            "schema": PROFILE_SCHEMA,
            "source": self.source,
            "samples_per_stage": self.samples_per_stage,
            "stages": stages,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        return sha256_hex(self.to_json())

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_dict(cls, row: Dict[str, object]) -> "LatencyProfile":
        if row.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                f"unsupported profile schema {row.get('schema')!r}"
            )
        profile = cls(
            source=str(row.get("source", "")),
            samples_per_stage=int(
                row.get("samples_per_stage", DEFAULT_SAMPLES)
            ),
        )
        for name, payload in dict(row.get("stages", {})).items():
            stats = _StageStats(profile.samples_per_stage)
            stats.count = int(payload["count"])
            stats.sum_s = float(payload["sum_s"])
            stats.min_s = float(payload["min_s"])
            stats.max_s = float(payload["max_s"])
            stats.samples = [float(v) for v in payload["samples"]]
            profile._stages[name] = stats
        return profile

    @classmethod
    def read_json(cls, path: Union[str, Path]) -> "LatencyProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))


def build_profile(
    trees: Iterable[TraceTree],
    source: str = "",
    samples_per_stage: Optional[int] = None,
) -> LatencyProfile:
    """Build a profile from assembled trace trees."""
    profile = LatencyProfile(
        source=source,
        samples_per_stage=samples_per_stage or DEFAULT_SAMPLES,
    )
    for tree in trees:
        profile.observe_tree(tree)
    return profile
