"""Tests for the span/timer API: nesting, disabled mode, registry wiring."""

import sys
import threading

import pytest

from repro.obs import names
from repro.obs.registry import enabled_registry
from repro.obs.spans import (
    _NULL_SPAN,
    current_span,
    format_span_tree,
    last_root_span,
    reset_spans,
    span,
)


@pytest.fixture(autouse=True)
def _clean_span_state():
    reset_spans()
    yield
    reset_spans()


class TestDisabledMode:
    def test_span_is_shared_null_object(self):
        assert span("kmr.solve") is _NULL_SPAN
        assert span("anything.else") is _NULL_SPAN

    def test_null_span_yields_none_and_records_nothing(self):
        with span("kmr.solve") as record:
            assert record is None
        assert current_span() is None
        assert last_root_span() is None


class TestEnabledMode:
    def test_span_records_duration(self):
        with enabled_registry() as reg:
            with span("kmr.solve") as record:
                assert current_span() is record
            assert record.duration_s >= 0.0
            hist = reg.histogram(names.SPAN_SECONDS, span="kmr.solve")
            assert hist.count == 1

    def test_nesting_builds_tree(self):
        with enabled_registry():
            with span("kmr.solve") as root:
                with span("kmr.knapsack") as a:
                    pass
                with span("kmr.merge") as b:
                    with span("kmr.merge.pub") as c:
                        pass
        assert root.depth == 0
        assert [child.name for child in root.children] == [
            "kmr.knapsack",
            "kmr.merge",
        ]
        assert a.depth == 1 and b.depth == 1 and c.depth == 2
        assert b.children == [c]
        assert [r.name for r in root.flatten()] == [
            "kmr.solve",
            "kmr.knapsack",
            "kmr.merge",
            "kmr.merge.pub",
        ]

    def test_last_root_span_tracks_roots_only(self):
        with enabled_registry():
            with span("first"):
                with span("first.child"):
                    pass
            assert last_root_span().name == "first"
            with span("second"):
                pass
            assert last_root_span().name == "second"

    def test_stack_empty_after_exit(self):
        with enabled_registry():
            with span("kmr.solve"):
                pass
        assert current_span() is None

    def test_spans_are_thread_local(self):
        seen = {}

        def worker():
            with enabled_registry():
                with span("worker.root"):
                    seen["inner"] = current_span().name
            seen["root"] = last_root_span().name

        with enabled_registry():
            with span("main.root"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
                # The worker's span never nested under ours.
                assert current_span().name == "main.root"
                assert not current_span().children
        assert seen == {"inner": "worker.root", "root": "worker.root"}

    def test_exception_still_closes_span(self):
        with enabled_registry() as reg:
            with pytest.raises(ValueError):
                with span("kmr.solve"):
                    raise ValueError("boom")
            assert current_span() is None
            assert reg.histogram(names.SPAN_SECONDS, span="kmr.solve").count == 1


class TestFormatting:
    def test_format_span_tree(self):
        with enabled_registry():
            with span("kmr.solve") as root:
                with span("kmr.knapsack"):
                    pass
        text = format_span_tree(root)
        lines = text.splitlines()
        assert lines[0].startswith("kmr.solve")
        assert lines[1].startswith("  kmr.knapsack")
        assert all(line.rstrip().endswith("ms") for line in lines)


class TestRegistryStress:
    """Hammer the registry from concurrent threads recording spans: every
    span observation must land, none may be lost to races."""

    THREADS = 4
    ROUNDS = 50

    def test_concurrent_spans_record_every_observation(self):
        errors = []
        barrier = threading.Barrier(self.THREADS, timeout=30)

        def worker():
            try:
                barrier.wait()
                for _ in range(self.ROUNDS):
                    with span(names.SPAN_CLUSTER_SOLVE):
                        with span(names.SPAN_KMR_SOLVE):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force frequent thread switches
        try:
            with enabled_registry() as reg:
                threads = [
                    threading.Thread(target=worker)
                    for _ in range(self.THREADS)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                snap = reg.snapshot()["histograms"]
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        expected = self.THREADS * self.ROUNDS
        for name in (names.SPAN_CLUSTER_SOLVE, names.SPAN_KMR_SOLVE):
            key = f'{names.SPAN_SECONDS}{{span="{name}"}}'
            assert snap[key]["count"] == expected
