"""Unit tests for the deterministic chaos world."""

import pytest

from repro.chaos.world import SNAPSHOT_HISTORY, ChaosWorld


def problem_signature(problem):
    return sorted(
        (cid, bw.uplink_kbps, bw.downlink_kbps)
        for cid, bw in problem.bandwidth.items()
    )


class TestWorldConstruction:
    def test_same_seed_same_world(self):
        a = ChaosWorld(seed=4, meetings=3)
        b = ChaosWorld(seed=4, meetings=3)
        assert a.meeting_ids == b.meeting_ids
        for mid in a.meeting_ids:
            assert problem_signature(
                a.current_problem(mid)
            ) == problem_signature(b.current_problem(mid))

    def test_different_seeds_differ(self):
        a = ChaosWorld(seed=1, meetings=2)
        b = ChaosWorld(seed=2, meetings=2)
        assert any(
            problem_signature(a.current_problem(m))
            != problem_signature(b.current_problem(m))
            for m in a.meeting_ids
        )

    def test_meeting_ids_are_stable(self):
        w = ChaosWorld(seed=1, meetings=3)
        assert w.meeting_ids == ["chaos-0", "chaos-1", "chaos-2"]

    def test_rejects_zero_meetings(self):
        with pytest.raises(ValueError):
            ChaosWorld(seed=1, meetings=0)

    def test_mean_size_reaches_the_sampler(self):
        # Regression: the world used to build its FleetSampler without
        # mean_size, so every world drew sizes at the sampler's default.
        def mean(size):
            w = ChaosWorld(seed=3, meetings=400, mean_size=size)
            return sum(w.meeting(m).size for m in w.meeting_ids) / 400

        assert mean(6.0) > mean(3.0)

    def test_problems_are_full_mesh(self):
        w = ChaosWorld(seed=5, meetings=1)
        p = w.current_problem("chaos-0")
        n = len(p.bandwidth)
        assert len(p.subscriptions) == n * (n - 1)


class TestBandwidthFaults:
    def test_collapse_scales_budget(self):
        w = ChaosWorld(seed=3, meetings=1)
        before = w.current_problem("chaos-0")
        cid = w.scale_bandwidth("chaos-0", "", down_scale=0.1)
        after = w.current_problem("chaos-0")
        assert cid == min(before.bandwidth)
        assert (
            after.bandwidth[cid].downlink_kbps
            < before.bandwidth[cid].downlink_kbps
        )

    def test_recover_restores_nominal(self):
        w = ChaosWorld(seed=3, meetings=1)
        nominal = problem_signature(w.current_problem("chaos-0"))
        cid = w.scale_bandwidth("chaos-0", "", down_scale=0.1, up_scale=0.1)
        w.scale_bandwidth("chaos-0", cid, down_scale=1.0, up_scale=1.0)
        assert problem_signature(w.current_problem("chaos-0")) == nominal

    def test_collapse_never_reaches_zero(self):
        w = ChaosWorld(seed=3, meetings=1)
        cid = w.scale_bandwidth("chaos-0", "", down_scale=0.0, up_scale=0.0)
        state = w.meeting("chaos-0").clients[cid]
        assert state.uplink_kbps > 0
        assert state.downlink_kbps > 0


class TestMembershipChurn:
    def test_remove_client_shrinks_meeting(self):
        w = ChaosWorld(seed=8, meetings=1)
        while w.meeting("chaos-0").size < 3:
            w.add_client("chaos-0")
        before = w.meeting("chaos-0").size
        cid = w.remove_client("chaos-0")
        assert cid != ""
        assert w.meeting("chaos-0").size == before - 1
        assert cid not in w.current_problem("chaos-0").bandwidth

    def test_remove_keeps_a_meeting_a_meeting(self):
        w = ChaosWorld(seed=8, meetings=1)
        while w.meeting("chaos-0").size > 2:
            assert w.remove_client("chaos-0") != ""
        assert w.remove_client("chaos-0") == ""
        assert w.meeting("chaos-0").size == 2

    def test_add_client_is_deterministic(self):
        a = ChaosWorld(seed=6, meetings=1)
        b = ChaosWorld(seed=6, meetings=1)
        ca, cb = a.add_client("chaos-0"), b.add_client("chaos-0")
        assert ca == cb
        assert problem_signature(
            a.current_problem("chaos-0")
        ) == problem_signature(b.current_problem("chaos-0"))

    def test_joined_ids_never_collide(self):
        w = ChaosWorld(seed=6, meetings=1)
        first = w.add_client("chaos-0")
        w.remove_client("chaos-0", first)
        second = w.add_client("chaos-0")
        assert first != second


class TestSnapshots:
    def test_versions_advance_on_mutation(self):
        w = ChaosWorld(seed=2, meetings=1)
        v0 = w.meeting("chaos-0").version
        w.scale_bandwidth("chaos-0", "", down_scale=0.5)
        assert w.meeting("chaos-0").version == v0 + 1

    def test_stale_problem_reaches_back(self):
        w = ChaosWorld(seed=2, meetings=1)
        old = problem_signature(w.current_problem("chaos-0"))
        w.scale_bandwidth("chaos-0", "", down_scale=0.5)
        version, stale = w.stale_problem("chaos-0", age=1)
        assert problem_signature(stale) == old
        assert version < w.meeting("chaos-0").version

    def test_stale_age_clamps_to_oldest(self):
        w = ChaosWorld(seed=2, meetings=1)
        version, _ = w.stale_problem("chaos-0", age=99)
        assert version == w.meeting("chaos-0").snapshots[0][0]

    def test_history_is_bounded(self):
        w = ChaosWorld(seed=2, meetings=1)
        for _ in range(SNAPSHOT_HISTORY * 2):
            w.scale_bandwidth("chaos-0", "", down_scale=0.5)
        assert len(w.meeting("chaos-0").snapshots) == SNAPSHOT_HISTORY

    def test_problems_are_solvable(self):
        from repro.core import GsoSolver, SolverConfig

        w = ChaosWorld(seed=11, meetings=2)
        solver = GsoSolver(SolverConfig(granularity_kbps=25))
        for mid in w.meeting_ids:
            p = w.current_problem(mid)
            solver.solve(p).validate(p)
