"""The chaos world: a deterministic population of meetings under fault.

The fleet model (:mod:`repro.deploy.fleet`) draws realistic conferences;
this module keeps each drawn conference *mutable under faults* — clients
whose bandwidth collapses, publishers who leave or join, and a snapshot
history so stale global pictures can be re-delivered — while staying
fully deterministic: every random draw comes from a string-seeded private
RNG, so the same world seed always produces the same population and the
same fault responses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.constraints import Bandwidth, Problem, Subscription
from ..core.ladder import make_ladder
from ..core.types import ClientId, Resolution
from ..deploy.fleet import AUDIO_KBPS, FleetSampler, SampledClient

#: Snapshot history depth kept per meeting for stale-delivery faults.
SNAPSHOT_HISTORY = 8

#: The controller sees slightly conservative budgets (the live system's
#: safety margin) — mirrors :class:`repro.deploy.fleet.ConferenceScorer`.
BUDGET_MARGIN = 0.93


@dataclass
class ClientState:
    """One participant's mutable network state inside the chaos world."""

    client: SampledClient
    up_scale: float = 1.0
    down_scale: float = 1.0

    @property
    def uplink_kbps(self) -> int:
        """Current (possibly collapsed) uplink capacity."""
        return max(50, int(self.client.uplink_kbps * self.up_scale))

    @property
    def downlink_kbps(self) -> int:
        """Current (possibly collapsed) downlink capacity."""
        return max(75, int(self.client.downlink_kbps * self.down_scale))


@dataclass
class MeetingState:
    """One meeting's mutable membership + bandwidth + snapshot history."""

    meeting_id: str
    clients: Dict[ClientId, ClientState]
    version: int = 0
    joined_seq: int = 0
    #: (version, Problem) history, newest last, bounded.
    snapshots: List[Tuple[int, Problem]] = field(default_factory=list)
    #: Per-subscriber requested resolution (defaults to P720 full-mesh);
    #: toggled by subscription-change events.
    preferences: Dict[ClientId, Resolution] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Current participant count."""
        return len(self.clients)


class ChaosWorld:
    """Builds and mutates the meeting population of one chaos run.

    Args:
        seed: world seed; all sampling derives from it by name.
        meetings: how many meetings to host.
        mean_size: mean meeting size passed to the fleet sampler.
        levels_per_resolution: GSO ladder depth (kept at the fleet
            default so cluster cache keys match fleet workloads).
    """

    def __init__(
        self,
        seed: int,
        meetings: int,
        mean_size: float = 4.0,
        levels_per_resolution: int = 5,
    ) -> None:
        if meetings < 1:
            raise ValueError("need at least one meeting")
        self.seed = seed
        self._ladder = make_ladder(levels_per_resolution=levels_per_resolution)
        self._meetings: Dict[str, MeetingState] = {}
        sampler = FleetSampler(
            random.Random(f"chaos-world:{seed}"), mean_size=mean_size
        )
        for k in range(meetings):
            meeting_id = f"chaos-{k}"
            # Per-meeting string-seeded RNG: the draw is independent of
            # meeting order, exactly like the fleet's per-conference RNGs.
            rng = random.Random(f"chaos-world:{seed}:{meeting_id}")
            conf = sampler.sample_conference(rng=rng)
            state = MeetingState(
                meeting_id=meeting_id,
                clients={
                    c.client_id: ClientState(client=c) for c in conf.clients
                },
                joined_seq=len(conf.clients),
            )
            self._meetings[meeting_id] = state
            self._snapshot(state)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    @property
    def meeting_ids(self) -> List[str]:
        """All hosted meeting ids, sorted."""
        return sorted(self._meetings)

    def meeting(self, meeting_id: str) -> MeetingState:
        """The mutable state of one meeting."""
        return self._meetings[meeting_id]

    def current_problem(self, meeting_id: str) -> Problem:
        """The freshest snapshot of one meeting's global picture."""
        return self._meetings[meeting_id].snapshots[-1][1]

    def stale_problem(self, meeting_id: str, age: int) -> Tuple[int, Problem]:
        """A snapshot ``age`` versions behind the freshest (clamped).

        Returns ``(version, problem)`` so the runner can log which stale
        picture was delivered.
        """
        history = self._meetings[meeting_id].snapshots
        index = max(0, len(history) - 1 - max(0, age))
        return history[index]

    # ------------------------------------------------------------------ #
    # Mutation (fault responses) — each bumps the snapshot version
    # ------------------------------------------------------------------ #

    def scale_bandwidth(
        self,
        meeting_id: str,
        client: ClientId,
        up_scale: Optional[float] = None,
        down_scale: Optional[float] = None,
    ) -> ClientId:
        """Scale one client's budgets (collapse or recovery).

        An empty ``client`` picks the lexicographically first participant
        (deterministic).  Returns the affected client id.
        """
        state = self._meetings[meeting_id]
        cid = client or min(state.clients)
        cs = state.clients[cid]
        if up_scale is not None:
            cs.up_scale = up_scale
        if down_scale is not None:
            cs.down_scale = down_scale
        self._snapshot(state)
        return cid

    def remove_client(self, meeting_id: str, client: ClientId = "") -> ClientId:
        """A participant leaves; keeps at least two so the meeting stays
        a meeting (returns ``""`` if the churn was skipped)."""
        state = self._meetings[meeting_id]
        if state.size <= 2:
            return ""
        cid = client or max(state.clients)
        if cid not in state.clients:
            return ""
        del state.clients[cid]
        self._snapshot(state)
        return cid

    def toggle_preference(
        self, meeting_id: str, client: ClientId = ""
    ) -> Tuple[ClientId, Resolution]:
        """Flip one subscriber's requested resolution (P720 <-> P360).

        Models a subscription change (speaker-view vs gallery-view): the
        subscriber re-requests every followed publisher at the new
        resolution.  An empty ``client`` picks the lexicographically
        first participant.  Returns ``(client_id, new_resolution)``.
        """
        state = self._meetings[meeting_id]
        cid = client or min(state.clients)
        if cid not in state.clients:
            raise KeyError(f"no client {cid!r} in {meeting_id}")
        current = state.preferences.get(cid, Resolution.P720)
        flipped = (
            Resolution.P360 if current == Resolution.P720 else Resolution.P720
        )
        state.preferences[cid] = flipped
        self._snapshot(state)
        return cid, flipped

    def add_client(self, meeting_id: str) -> ClientId:
        """A new participant joins, drawn from the meeting's own RNG."""
        state = self._meetings[meeting_id]
        rng = random.Random(
            f"chaos-world:{self.seed}:{meeting_id}:join:{state.joined_seq}"
        )
        sampler = FleetSampler(rng)
        donor = sampler.sample_conference(rng=rng).clients[0]
        cid = f"j{state.joined_seq}"
        state.joined_seq += 1
        state.clients[cid] = ClientState(
            client=SampledClient(
                client_id=cid,
                uplink_kbps=donor.uplink_kbps,
                downlink_kbps=donor.downlink_kbps,
                loss_rate=donor.loss_rate,
                profile=donor.profile,
            )
        )
        self._snapshot(state)
        return cid

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #

    def _snapshot(self, state: MeetingState) -> None:
        """Append the current picture to the meeting's version history."""
        state.version += 1
        state.snapshots.append((state.version, self._build_problem(state)))
        if len(state.snapshots) > SNAPSHOT_HISTORY:
            del state.snapshots[0]

    def _build_problem(self, state: MeetingState) -> Problem:
        """The full-mesh GSO problem of one meeting's current picture
        (same shape the fleet scorer hands the cluster)."""
        ids = sorted(state.clients)
        return Problem(
            feasible_streams={cid: self._ladder for cid in ids},
            bandwidth={
                cid: Bandwidth(
                    uplink_kbps=int(
                        state.clients[cid].uplink_kbps * BUDGET_MARGIN
                    ),
                    downlink_kbps=int(
                        state.clients[cid].downlink_kbps * BUDGET_MARGIN
                    ),
                    audio_protection_kbps=AUDIO_KBPS,
                )
                for cid in ids
            },
            subscriptions=[
                Subscription(
                    a, b, state.preferences.get(a, Resolution.P720)
                )
                for a in ids
                for b in ids
                if a != b
            ],
        )
