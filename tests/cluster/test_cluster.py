"""End-to-end controller cluster: equivalence, failover, overload."""

import pickle

import pytest

from repro.cluster import (
    ClusterConfig,
    ControllerCluster,
    SOURCE_CACHE,
    SOURCE_FALLBACK,
    SOURCE_SHED,
    SOURCE_SOLVE,
    TRIGGER_REHOME,
    TRIGGER_TIME,
)
from repro.control.failover import single_stream_fallback
from repro.core.solver import GsoSolver, SolverConfig
from repro.obs import names as obs_names
from repro.obs.registry import enabled_registry

from .conftest import mesh_problem

DIRECT = GsoSolver(SolverConfig(granularity_kbps=25))


def make_cluster(**overrides):
    defaults = dict(shards=3)
    defaults.update(overrides)
    return ControllerCluster(ClusterConfig(**defaults))


def distinct_problems(n):
    """n structurally distinct meetings (different slow-client uplinks)."""
    return [mesh_problem(ups=(5000, 5000, 400 + 50 * i)) for i in range(n)]


class TestSolveService:
    def test_sync_path_matches_direct_solver(self, problem):
        with make_cluster() as cluster:
            got = cluster.solve_conference("conf-1", problem)
            assert pickle.dumps(got) == pickle.dumps(DIRECT.solve(problem))

    def test_cache_hit_across_meetings(self, problem):
        with make_cluster() as cluster:
            a = cluster.solve_conference("conf-a", problem)
            b = cluster.solve_conference("conf-b", problem)
            assert pickle.dumps(a) == pickle.dumps(b)
            assert cluster.cache.stats.hits == 1
            assert cluster.cache.stats.misses == 1
            assert cluster.meeting("conf-b").cache_hits == 1

    def test_cache_disabled_still_correct(self, problem):
        with make_cluster(cache_capacity=0) as cluster:
            assert cluster.cache is None
            got = cluster.solve_conference("conf-1", problem)
            assert pickle.dumps(got) == pickle.dumps(DIRECT.solve(problem))

    def test_solver_crash_degrades_to_fallback(self, problem, monkeypatch):
        with make_cluster() as cluster:
            def boom(*args, **kwargs):
                raise RuntimeError("solver died")

            monkeypatch.setattr(cluster.solver, "solve", boom)
            got = cluster.solve_conference("conf-1", problem)
            want = single_stream_fallback(problem)
            assert pickle.dumps(got) == pickle.dumps(want)
            assert cluster.meeting("conf-1").fallbacks == 1


class TestTickLoop:
    def test_event_tick_solves_and_debounces(self, problem):
        with make_cluster() as cluster:
            cluster.submit("m1", problem, now_s=0.0)
            [served] = cluster.tick(now_s=0.0)
            assert served.source == SOURCE_SOLVE
            assert pickle.dumps(served.solution) == pickle.dumps(
                DIRECT.solve(problem)
            )
            # Within the min-interval envelope nothing re-runs.
            cluster.submit("m1", problem, now_s=0.2)
            assert cluster.tick(now_s=0.5) == []
            [again] = cluster.tick(now_s=1.0)
            assert again.source == SOURCE_CACHE

    def test_time_trigger_refreshes_idle_meetings(self, problem):
        with make_cluster() as cluster:
            cluster.submit("m1", problem, now_s=0.0)
            cluster.tick(now_s=0.0)
            assert cluster.tick(now_s=2.0) == []
            [served] = cluster.tick(now_s=3.0)
            assert served.trigger == TRIGGER_TIME

    def test_coalesced_churn_costs_one_solve(self, problem):
        fresher = mesh_problem(ups=(5000, 5000, 800))
        with make_cluster() as cluster:
            for _ in range(4):
                cluster.submit("m1", problem, now_s=0.0)
            cluster.submit("m1", fresher, now_s=0.1)
            served = cluster.tick(now_s=0.2)
            assert len(served) == 1  # five submissions, one solve
            assert pickle.dumps(served[0].solution) == pickle.dumps(
                DIRECT.solve(fresher)  # newest snapshot won
            )

    def test_admission_sheds_to_fallback(self):
        problems = distinct_problems(3)
        with make_cluster(shards=1, max_solves_per_round=1) as cluster:
            for i, problem in enumerate(problems):
                cluster.submit(f"m{i}", problem, now_s=float(i) / 10)
            served = cluster.tick(now_s=1.0)
            by_source = {}
            for s in served:
                by_source.setdefault(s.source, []).append(s)
            assert len(by_source[SOURCE_SOLVE]) == 1
            assert len(by_source[SOURCE_SHED]) == 2
            # m0 submitted first -> it gets the solve slot.
            assert by_source[SOURCE_SOLVE][0].meeting_id == "m0"
            for s in by_source[SOURCE_SHED]:
                record = cluster.meeting(s.meeting_id)
                want = single_stream_fallback(record.last_problem)
                assert pickle.dumps(s.solution) == pickle.dumps(want)

    def test_round_serves_hits_first_then_misses_without_relookup(self):
        warm, fresh = distinct_problems(2)
        with make_cluster(shards=1) as cluster:
            cluster.solve_conference("warm-up", warm)
            # Admitted order (oldest first): m0, m1, m2, m3.
            cluster.submit("m0", fresh, now_s=0.0)
            cluster.submit("m1", warm, now_s=0.1)
            cluster.submit("m2", fresh, now_s=0.2)
            cluster.submit("m3", warm, now_s=0.3)
            lookups = cluster.cache.stats.lookups
            served = cluster.tick(now_s=1.0)
            # Cache hits come first in admitted order, then the misses,
            # each solved on its own: m2 is not served m0's fresh solution
            # from the cache even though it was put there first.
            assert [(s.meeting_id, s.source) for s in served] == [
                ("m1", SOURCE_CACHE),
                ("m3", SOURCE_CACHE),
                ("m0", SOURCE_SOLVE),
                ("m2", SOURCE_SOLVE),
            ]
            assert cluster.cache.stats.lookups == lookups + 4
            want = pickle.dumps(DIRECT.solve(fresh))
            assert pickle.dumps(served[2].solution) == want
            assert pickle.dumps(served[3].solution) == want

    def test_batch_crash_degrades_only_poisoned_meetings(self, monkeypatch):
        problems = distinct_problems(3)
        poisoned = problems[1]
        with make_cluster(shards=1, cache_capacity=0) as cluster:
            solve = cluster.solver.solve

            def crash_on_poisoned(problem, *args, **kwargs):
                if problem is poisoned:
                    raise RuntimeError("solver died")
                return solve(problem, *args, **kwargs)

            monkeypatch.setattr(cluster.solver, "solve", crash_on_poisoned)
            for i, problem in enumerate(problems):
                cluster.submit(f"m{i}", problem, now_s=0.0)
            served = cluster.tick(now_s=0.0)
            by_meeting = {s.meeting_id: s for s in served}
            assert sorted(by_meeting) == ["m0", "m1", "m2"]
            # Only the poisoned meeting falls back; its round-mates solve.
            assert by_meeting["m1"].source == SOURCE_FALLBACK
            assert pickle.dumps(by_meeting["m1"].solution) == pickle.dumps(
                single_stream_fallback(poisoned)
            )
            for mid in ("m0", "m2"):
                assert by_meeting[mid].source == SOURCE_SOLVE
                assert pickle.dumps(by_meeting[mid].solution) == pickle.dumps(
                    DIRECT.solve(problems[int(mid[1])])
                )
            assert cluster.meeting("m1").fallbacks == 1


class TestShardFailover:
    """Sec. 7 under cluster rehash: kill -> fallback -> re-home -> recover."""

    def hosted_cluster(self, n_meetings=8):
        cluster = make_cluster(shards=3)
        problems = distinct_problems(n_meetings)
        for i, problem in enumerate(problems):
            cluster.submit(f"m{i}", problem, now_s=0.0)
        cluster.tick(now_s=0.0)
        return cluster

    def test_kill_degrades_victims_to_single_stream_fallback(self):
        cluster = self.hosted_cluster()
        with cluster:
            victim = cluster.meeting("m0").shard
            affected = [
                m for m in cluster.meetings
                if cluster.meeting(m).shard == victim
            ]
            served = cluster.kill_shard(victim, now_s=1.0)
            assert sorted(s.meeting_id for s in served) == affected
            for s in served:
                assert s.source == SOURCE_FALLBACK
                assert s.trigger == TRIGGER_REHOME
                record = cluster.meeting(s.meeting_id)
                want = single_stream_fallback(record.last_problem)
                assert pickle.dumps(record.last_solution) == pickle.dumps(want)
                assert record.shard != victim
                assert record.shard in cluster.live_shards

    def test_survivors_untouched(self):
        cluster = self.hosted_cluster()
        with cluster:
            victim = cluster.meeting("m0").shard
            before = {
                m: (cluster.meeting(m).shard,
                    pickle.dumps(cluster.meeting(m).last_solution))
                for m in cluster.meetings
                if cluster.meeting(m).shard != victim
            }
            cluster.kill_shard(victim, now_s=1.0)
            for m, (shard, solution_bytes) in before.items():
                assert cluster.meeting(m).shard == shard
                assert pickle.dumps(
                    cluster.meeting(m).last_solution
                ) == solution_bytes

    def test_recovery_to_full_kmr_solution(self):
        cluster = self.hosted_cluster()
        with cluster:
            victim = cluster.meeting("m0").shard
            cluster.kill_shard(victim, now_s=1.0)
            # Rehome requests are debounced by the handover fallback; run
            # the loop past the envelope and every meeting re-converges.
            cluster.tick(now_s=2.5)
            record = cluster.meeting("m0")
            want = DIRECT.solve(record.last_problem)
            assert pickle.dumps(record.last_solution) == pickle.dumps(want)

    def test_killing_any_single_shard_never_raises(self):
        for victim_index in range(3):
            cluster = self.hosted_cluster()
            with cluster:
                victim = cluster.live_shards[victim_index]
                cluster.kill_shard(victim, now_s=1.0)  # must not raise
                assert victim not in cluster.live_shards
                cluster.tick(now_s=2.5)
                for m in cluster.meetings:
                    record = cluster.meeting(m)
                    want = DIRECT.solve(record.last_problem)
                    assert pickle.dumps(record.last_solution) == pickle.dumps(
                        want
                    )

    def test_kill_last_shard_rejected(self, problem):
        with make_cluster(shards=1) as cluster:
            cluster.solve_conference("conf-1", problem)
            with pytest.raises(RuntimeError):
                cluster.kill_shard("shard-0", now_s=0.0)

    def test_kill_unknown_shard_rejected(self):
        with make_cluster() as cluster:
            with pytest.raises(ValueError):
                cluster.kill_shard("shard-99", now_s=0.0)
            cluster.kill_shard("shard-1", now_s=0.0)
            with pytest.raises(ValueError):  # already dead
                cluster.kill_shard("shard-1", now_s=0.0)

    def test_failover_metrics(self):
        with enabled_registry() as reg:
            cluster = self.hosted_cluster()
            with cluster:
                victim = cluster.meeting("m0").shard
                served = cluster.kill_shard(victim, now_s=1.0)
                assert (
                    reg.counter(obs_names.CLUSTER_SHARD_FAILOVERS).value == 1
                )
                assert reg.counter(obs_names.CLUSTER_REHOMED).value >= len(
                    served
                )
                assert reg.counter(obs_names.CLUSTER_FALLBACKS).value == len(
                    served
                )


class TestRebalance:
    def test_add_shard_moves_only_captured_meetings(self):
        cluster = make_cluster(shards=2)
        with cluster:
            problems = distinct_problems(8)
            for i, problem in enumerate(problems):
                cluster.submit(f"m{i}", problem, now_s=0.0)
            cluster.tick(now_s=0.0)
            before = {m: cluster.meeting(m).shard for m in cluster.meetings}
            name = cluster.add_shard(now_s=1.0)
            assert name in cluster.live_shards
            for m, old_shard in before.items():
                new_shard = cluster.meeting(m).shard
                assert new_shard in (old_shard, name)

    def test_duplicate_add_rejected(self):
        with make_cluster() as cluster:
            with pytest.raises(ValueError):
                cluster.add_shard("shard-0")


class TestConfig:
    def test_pool_workers_accepts_only_zero(self):
        assert ClusterConfig(pool_workers=0).pool_workers == 0
        for workers in (1, 2, -1):
            with pytest.raises(ValueError, match="process pool was removed"):
                ClusterConfig(pool_workers=workers)


class TestStats:
    def test_snapshot_shape(self, problem):
        with make_cluster() as cluster:
            cluster.solve_conference("conf-1", problem)
            stats = cluster.stats()
            assert stats["meetings"] == 1
            assert stats["live_shards"] == ["shard-0", "shard-1", "shard-2"]
            assert stats["cache"]["misses"] == 1
            assert set(stats["shards"]) == {"shard-0", "shard-1", "shard-2"}

    def test_registration_idempotent(self, problem):
        with make_cluster() as cluster:
            first = cluster.register("m1")
            assert cluster.register("m1") == first
            assert cluster.meetings == ["m1"]
