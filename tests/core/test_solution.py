"""Tests for the Solution model and its constraint validation."""

import pytest

from repro.core import Bandwidth, PolicyEntry, Resolution, Solution, StreamSpec
from repro.core.constraints import Problem, Subscription


def spec(rate, res, qoe=None):
    return StreamSpec(rate, res, float(qoe if qoe is not None else rate))


def toy_problem(downlink=5000, uplink=5000):
    ladder = [spec(1000, Resolution.P720), spec(300, Resolution.P180)]
    return Problem(
        {"P": ladder},
        {"P": Bandwidth(uplink, 100), "S": Bandwidth(100, downlink)},
        [Subscription("S", "P", Resolution.P720)],
    )


def good_solution():
    stream = spec(1000, Resolution.P720)
    return Solution(
        policies={
            "P": {
                Resolution.P720: PolicyEntry(stream, frozenset({"S"})),
            }
        },
        assignments={"S": {"P": stream}},
    )


class TestAggregates:
    def test_total_qoe_sums_assignments(self):
        s = good_solution()
        assert s.total_qoe() == pytest.approx(1000.0)

    def test_subscriber_qoe(self):
        s = good_solution()
        assert s.subscriber_qoe("S") == pytest.approx(1000.0)
        assert s.subscriber_qoe("missing") == 0.0

    def test_usage_accounting(self):
        s = good_solution()
        assert s.uplink_usage_kbps("P") == 1000
        assert s.downlink_usage_kbps("S") == 1000
        assert s.uplink_usage_kbps("missing") == 0

    def test_published_streams_high_resolution_first(self):
        hi, lo = spec(1000, Resolution.P720), spec(300, Resolution.P180)
        s = Solution(
            policies={
                "P": {
                    Resolution.P180: PolicyEntry(lo, frozenset({"S"})),
                    Resolution.P720: PolicyEntry(hi, frozenset({"S"})),
                }
            },
            assignments={"S": {"P": hi}},
        )
        assert [x.resolution for x in s.published_streams("P")] == [
            Resolution.P720,
            Resolution.P180,
        ]

    def test_summary_mentions_publishers(self):
        text = good_solution().summary()
        assert "P publishes" in text
        assert "total QoE" in text


class TestValidation:
    def test_good_solution_validates(self):
        good_solution().validate(toy_problem())

    def test_detects_downlink_violation(self):
        with pytest.raises(AssertionError, match="downlink violated"):
            good_solution().validate(toy_problem(downlink=900))

    def test_detects_uplink_violation(self):
        with pytest.raises(AssertionError, match="uplink violated"):
            good_solution().validate(toy_problem(uplink=900))

    def test_detects_non_feasible_stream(self):
        s = good_solution()
        rogue = spec(999, Resolution.P720)
        s.policies["P"][Resolution.P720] = PolicyEntry(rogue, frozenset({"S"}))
        s.assignments["S"]["P"] = rogue
        with pytest.raises(AssertionError, match="non-feasible"):
            s.validate(toy_problem())

    def test_detects_resolution_cap_violation(self):
        ladder = [spec(1000, Resolution.P720)]
        p = Problem(
            {"P": ladder},
            {"P": Bandwidth(5000, 100), "S": Bandwidth(100, 5000)},
            [Subscription("S", "P", Resolution.P180)],
        )
        with pytest.raises(AssertionError, match="exceeds"):
            good_solution().validate(p)

    def test_detects_unfollowed_assignment(self):
        ladder = [spec(1000, Resolution.P720)]
        p = Problem(
            {"P": ladder},
            {
                "P": Bandwidth(5000, 100),
                "S": Bandwidth(100, 5000),
                "T": Bandwidth(100, 5000),
            },
            [Subscription("T", "P", Resolution.P720)],
        )
        with pytest.raises(AssertionError):
            good_solution().validate(p)

    def test_detects_empty_audience(self):
        s = good_solution()
        s.policies["P"][Resolution.P720] = PolicyEntry(
            spec(1000, Resolution.P720), frozenset()
        )
        s.assignments = {}
        with pytest.raises(AssertionError, match="no audience"):
            s.validate(toy_problem())

    def test_detects_policy_assignment_mismatch(self):
        s = good_solution()
        s.assignments["S"]["P"] = spec(300, Resolution.P180)
        with pytest.raises(AssertionError):
            s.validate(toy_problem())

    def test_detects_audience_without_assignment(self):
        s = good_solution()
        s.assignments = {"S": {}}
        with pytest.raises(AssertionError, match="lacks"):
            s.validate(toy_problem())

    def test_detects_policy_keyed_by_wrong_resolution(self):
        s = good_solution()
        entry = s.policies["P"].pop(Resolution.P720)
        s.policies["P"][Resolution.P180] = entry
        with pytest.raises(AssertionError, match="keyed"):
            s.validate(toy_problem())


class TestPolicyEntryPickleCanonical:
    """Equal policy entries must pickle byte-identically — audiences are
    frozensets, whose native serialization order depends on insertion
    history (a round-tripped entry used to pickle differently from a
    freshly-built one)."""

    def test_insertion_order_does_not_leak_into_bytes(self):
        import pickle

        stream = spec(1000, Resolution.P720)
        ids = [f"c{k}" for k in range(40)]
        a = PolicyEntry(stream, frozenset(ids))
        b = PolicyEntry(stream, frozenset(reversed(ids)))
        assert a == b
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_round_trip_is_byte_stable(self):
        import pickle

        stream = spec(1000, Resolution.P720)
        entry = PolicyEntry(stream, frozenset(f"c{k}" for k in range(40)))
        blob = pickle.dumps(entry)
        again = pickle.loads(blob)
        assert again == entry
        assert pickle.dumps(again) == blob
