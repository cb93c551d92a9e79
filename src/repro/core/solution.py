"""Solution model for the GSO control algorithm.

A solved conference has two complementary views:

* the **publisher view** — per publisher, the *policy* set ``P_i``: for each
  resolution it should encode, the configured bitrate and the audience
  ``M_i^R`` that will receive it (Eq. 10-13);
* the **subscriber view** — per subscriber, which (publisher, stream) pairs
  it receives (the fulfilled version of ``D_i'`` from Eq. 6).

:class:`Solution` holds both, carries solver diagnostics, and can validate
itself against the :class:`~repro.core.constraints.Problem` it solves —
validation is the workhorse of the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .constraints import Problem
from .types import ClientId, Resolution, StreamSpec


def _rebuild_policy_entry(stream: StreamSpec, audience: Tuple[ClientId, ...]) -> "PolicyEntry":
    return PolicyEntry(stream, frozenset(audience))


@dataclass(frozen=True)
class PolicyEntry:
    """One publisher policy ``(M_i^R, s_i^R)``: broadcast ``stream`` to ``audience``."""

    stream: StreamSpec
    audience: FrozenSet[ClientId]

    def __reduce__(self):
        # Frozensets serialize in hash-table iteration order, which
        # depends on insertion history — equal audiences built in
        # different orders (or round-tripped through pickle) can pickle
        # to different bytes, breaking the byte-identity contract the
        # test suite and caches rely on.  Canonicalize to a sorted
        # tuple so equal entries always pickle identically.
        return (_rebuild_policy_entry, (self.stream, tuple(sorted(self.audience))))

    @property
    def resolution(self) -> Resolution:
        """The entry's stream resolution."""
        return self.stream.resolution

    @property
    def bitrate_kbps(self) -> int:
        """The configured bitrate in kbps."""
        return self.stream.bitrate_kbps


@dataclass
class Solution:
    """Output of one GSO solve.

    Attributes:
        policies: per publisher, the entries of ``P_i`` keyed by resolution.
            Publishers with an empty policy are omitted or map to ``{}``.
        assignments: per subscriber, per followed publisher, the stream the
            subscriber will receive.  Publishers whose stream was dropped for
            this subscriber are absent.
        iterations: number of Knapsack-Merge-Reduction iterations executed.
        reduced: the (publisher, resolution) pairs removed by Step-3
            reductions, in order — diagnostics for tests and benchmarks.
    """

    policies: Dict[ClientId, Dict[Resolution, PolicyEntry]]
    assignments: Dict[ClientId, Dict[ClientId, StreamSpec]]
    iterations: int = 1
    reduced: List[Tuple[ClientId, Resolution]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    def total_qoe(self) -> float:
        """Sum of the QoE utilities of all received streams (Eq. 1 summed
        over subscribers)."""
        return sum(
            stream.qoe
            for per_pub in self.assignments.values()
            for stream in per_pub.values()
        )

    def subscriber_qoe(self, subscriber: ClientId) -> float:
        """QoE utility delivered to one subscriber."""
        return sum(s.qoe for s in self.assignments.get(subscriber, {}).values())

    def uplink_usage_kbps(self, publisher: ClientId) -> int:
        """Total bitrate the publisher is asked to encode and send."""
        return sum(
            e.bitrate_kbps for e in self.policies.get(publisher, {}).values()
        )

    def downlink_usage_kbps(self, subscriber: ClientId) -> int:
        """Total bitrate the subscriber is asked to receive."""
        return sum(
            s.bitrate_kbps for s in self.assignments.get(subscriber, {}).values()
        )

    def published_streams(self, publisher: ClientId) -> List[StreamSpec]:
        """The streams the publisher encodes, high resolution first."""
        entries = self.policies.get(publisher, {})
        return [
            entries[res].stream for res in sorted(entries, reverse=True)
        ]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self, problem: Problem) -> None:
        """Check every constraint family of Sec. 4.1 plus internal coherence.

        Raises:
            AssertionError: with a descriptive message on the first violated
                invariant.  (Assertions, not ValueErrors: a failed validation
                is a solver bug, not a user error.)
        """
        # -- Codec capability: policies keyed by resolution are distinct by
        #    construction; check entries agree with their key and that the
        #    configured stream's resolution exists in some feasible set
        #    (bitrates may be any fix from Eq. 16, i.e. feasible bitrates).
        for pub, entries in self.policies.items():
            feasible = problem.feasible_streams.get(pub, [])
            feasible_set = set(feasible)
            for res, entry in entries.items():
                assert entry.resolution == res, (
                    f"policy for {pub!r} keyed {res} holds {entry.resolution}"
                )
                assert entry.stream in feasible_set, (
                    f"{pub!r} configured non-feasible stream {entry.stream}"
                )
                assert entry.audience, (
                    f"{pub!r} publishes {entry.stream} with no audience"
                )

        # -- Uplink budgets (Eq. 14), aggregated per owning client: a camera
        #    source and a screen-share source of one client share its uplink.
        usage_by_owner: Dict[ClientId, int] = {}
        for pub in self.policies:
            owner = problem.owner(pub)
            usage_by_owner[owner] = (
                usage_by_owner.get(owner, 0) + self.uplink_usage_kbps(pub)
            )
        for owner, usage in usage_by_owner.items():
            budget = problem.uplink_budget(owner)
            assert usage <= budget, (
                f"uplink violated for {owner!r}: {usage} > {budget} kbps"
            )

        # -- Downlink budgets (Eq. 2) and subscription constraints.
        for sub, per_pub in self.assignments.items():
            usage = self.downlink_usage_kbps(sub)
            budget = problem.downlink_budget(sub)
            assert usage <= budget, (
                f"downlink violated for {sub!r}: {usage} > {budget} kbps"
            )
            for pub, stream in per_pub.items():
                edge = problem.edge(sub, pub)
                assert edge is not None, (
                    f"{sub!r} assigned a stream from unfollowed {pub!r}"
                )
                assert stream.resolution <= edge.max_resolution, (
                    f"{sub!r} <- {pub!r}: {stream.resolution} exceeds "
                    f"subscription cap {edge.max_resolution}"
                )

        # -- Cross-view coherence: every assignment is backed by a policy
        #    entry (under the canonical publisher id) that includes the
        #    subscriber in its audience, and every audience member holds at
        #    least one matching assignment (possibly via an alias edge).
        for sub, per_pub in self.assignments.items():
            for pub, stream in per_pub.items():
                canonical = problem.canonical(pub)
                entry = self.policies.get(canonical, {}).get(stream.resolution)
                assert entry is not None, (
                    f"{sub!r} assigned {stream} from {pub!r} but no policy"
                )
                assert entry.stream == stream, (
                    f"assignment/policy bitrate mismatch for {pub!r}: "
                    f"{stream} vs {entry.stream}"
                )
                assert sub in entry.audience, (
                    f"{sub!r} missing from audience of {pub!r}@{stream.resolution}"
                )
        for pub, entries in self.policies.items():
            for res, entry in entries.items():
                for member in entry.audience:
                    member_streams = set(
                        self.assignments.get(member, {}).values()
                    )
                    assert entry.stream in member_streams, (
                        f"audience member {member!r} of {pub!r}@{res} lacks "
                        f"assignment {entry.stream}"
                    )

    def summary(self) -> str:
        """Human-readable multi-line summary (used by examples)."""
        lines: List[str] = [f"Solution after {self.iterations} iteration(s)"]
        for pub in sorted(self.policies):
            entries = self.policies[pub]
            if not entries:
                continue
            parts = ", ".join(
                f"{entries[res].bitrate_kbps}kbps@{res}->"
                f"{{{','.join(sorted(entries[res].audience))}}}"
                for res in sorted(entries, reverse=True)
            )
            lines.append(f"  {pub} publishes {parts}")
        lines.append(f"  total QoE: {self.total_qoe():.1f}")
        return "\n".join(lines)
