"""The traced run: wall-clock spans around each layer's entry points.

Nothing inside ``src/`` changes.  :class:`LayerTracer` replaces the
entry points listed in :data:`LAYERS` with wrappers for the length of a
``with tracer.installed():`` block and restores the originals on exit.
Each wrapper records one span (name, start, duration on the main
thread's CPU clock, the meeting and decision lane it belongs to) and
charges the span's *self time* -- its
duration minus the time its child spans cover -- to its layer.  The
benchmark opens one root span (``round``) around each timed section, so
the layers' self times plus the root's own self time (reported as
``trace.other_ms``) add up to the timed wall time exactly.

Spans stay in memory (up to :data:`MAX_SPANS`, the rest are counted) and
are written once, at the end, as Chrome trace-event JSON in the layout
``docs/TRACING.md`` uses: meetings are processes, decisions are thread
lanes, one complete ``X`` slice per span.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept for the Chrome export; later spans are only counted.
MAX_SPANS = 100_000

#: Root span of one timed section.
ROOT = "round"

#: ``(layer, module, attribute path)`` of every wrapped entry point.  The
#: attribute path is ``"function"`` or ``"Class.method"``.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    # ingress plane
    ("ingress.runtime", "repro.ingress.plane", "IngressPlane.run_stream"),
    ("ingress.offer", "repro.ingress.plane", "IngressPlane.offer"),
    ("world.apply", "repro.ingress.plane", "ClusterBackend.apply_event"),
    # cluster and fingerprint cache
    ("cluster.request", "repro.cluster.cluster",
     "ControllerCluster.solve_request"),
    ("core.fingerprint", "repro.core.constraints", "Problem.fingerprint"),
    # KMR solver
    ("core.solve", "repro.core.solver", "GsoSolver.solve_with_stats"),
    ("core.knapsack", "repro.core.solver", "knapsack_step"),
    ("core.merge", "repro.core.solver", "merge_step"),
    ("core.reduction", "repro.core.solver", "reduction_step"),
    ("core.mckp", "repro.core.knapsack", "solve_mckp_dp"),
    ("core.mckp", "repro.core.knapsack", "solve_mckp_dp_batch"),
    ("core.mckp", "repro.core.reduction", "solve_mckp_dp_mandatory"),
    # invariant checks and observability
    ("invariants.check", "repro.chaos.invariants",
     "InvariantChecker.check_solution"),
    ("obs.trace", "repro.obs.tracing", "assemble_trees"),
    ("obs.digest", "repro.obs.events", "EventLog.digest"),
    ("obs.digest", "repro.obs.tracing.assembler", "TraceAssembler.digest"),
    ("obs.solution_digest", "repro.chaos.report", "solution_digest"),
    # packet-level media path
    ("net.link", "repro.net.link", "Link.send"),
    ("rtp.parse", "repro.rtp.packet", "RtpPacket.parse"),
    ("rtp.parse", "repro.rtp.rtcp", "parse_compound"),
    ("rtp.parse", "repro.rtp.rtcp", "ReceiverReport.parse"),
    ("rtp.parse", "repro.rtp.rtcp", "AppPacket.parse"),
    ("rtp.parse", "repro.rtp.rtcp", "TwccFeedback.parse"),
    ("rtp.serialize", "repro.rtp.packet", "RtpPacket.serialize"),
    ("rtp.serialize", "repro.rtp.rtcp", "ReceiverReport.serialize"),
    ("rtp.serialize", "repro.rtp.rtcp", "AppPacket.serialize"),
    ("rtp.serialize", "repro.rtp.rtcp", "TwccFeedback.serialize"),
    ("rtp.nack", "repro.rtp.nack", "NackTracker.on_packet"),
    ("rtp.nack", "repro.rtp.nack", "NackTracker.due_requests"),
    ("rtp.nack", "repro.rtp.nack", "RetransmissionCache.store"),
    ("rtp.nack", "repro.rtp.nack", "RetransmissionCache.lookup"),
    ("media.sfu", "repro.media.sfu", "AccessingNode.on_packet_from_client"),
    ("media.sfu", "repro.media.sfu", "AccessingNode.on_packet_from_peer"),
    ("media.sfu", "repro.media.sfu", "AccessingNode.send_rtcp_to_client"),
    ("media.jitter", "repro.media.jitter_buffer",
     "VideoJitterBuffer.on_packet"),
    ("client", "repro.client.client", "ConferenceClient._on_source_frame"),
    ("client", "repro.client.client", "ConferenceClient._transmit_paced"),
    ("client", "repro.client.client", "ConferenceClient.on_downlink_packet"),
    ("client", "repro.client.client", "ConferenceClient._estimator_tick"),
    ("client", "repro.client.client", "ConferenceClient.apply_tmmbr"),
    ("client", "repro.client.client", "ConferenceClient._send_due_nacks"),
    ("client", "repro.client.client", "ConferenceClient._send_remb"),
    ("client", "repro.client.client",
     "ConferenceClient._send_downlink_twcc_feedback"),
    ("cc.gcc", "repro.cc.gcc", "GccEstimator.on_feedback"),
    ("cc.gcc", "repro.cc.gcc", "GccEstimator.on_loss_report"),
    ("cc.gcc", "repro.cc.gcc", "GccEstimator.on_probe_result"),
    ("cc.twcc", "repro.cc.twcc", "TwccSender.register_send"),
    ("cc.twcc", "repro.cc.twcc", "TwccSender.on_feedback"),
    ("cc.twcc", "repro.cc.twcc", "TwccReceiver.on_packet"),
    ("cc.twcc", "repro.cc.twcc", "TwccReceiver.build_feedback"),
    # the media controller
    ("control.solve", "repro.control.gso_controller",
     "GsoControllerRuntime._solve"),
    ("control.feedback", "repro.control.feedback", "FeedbackExecutor.execute"),
)

#: Entry points that are only counted: their time stays with the caller.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("world.rebuilds", "repro.chaos.world", "ChaosWorld._build_problem"),
)


def _meeting_of(layer: str, args: tuple) -> Optional[str]:
    """The meeting a span belongs to, when its arguments name one."""
    if layer == "cluster.request" and len(args) > 1:
        return str(args[1])
    if layer in ("ingress.offer", "world.apply") and len(args) > 1:
        return getattr(args[1], "meeting", None)
    return None


class LayerTracer:
    """Span recorder with per-layer self times and call counts."""

    def __init__(self) -> None:
        self.active = False
        #: Meeting charged for spans that name none (set by workloads
        #: whose meetings are not visible in call arguments).
        self.default_meeting = ""
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Summed duration of the root spans (the traced wall time).
        self.root_s = 0.0
        self.kmr_iterations = 0
        self.mckp_instances = 0
        self.cache_sources: Dict[str, int] = {}
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self._stack: List[list] = []
        self._lanes: Dict[str, int] = {}
        self._epoch = time.thread_time()

    # -- recording ------------------------------------------------------ #

    def reset_totals(self) -> None:
        """Zero the per-layer totals (spans already kept stay)."""
        self.self_s = {}
        self.calls = {}
        self.root_s = 0.0
        self.kmr_iterations = 0
        self.mckp_instances = 0
        self.cache_sources = {}

    def _enter(self, layer: str, args: tuple) -> list:
        meeting = _meeting_of(layer, args)
        parent = self._stack[-1] if self._stack else None
        lane = 0
        if meeting is None:
            meeting = parent[3] if parent else self.default_meeting
            lane = parent[4] if parent else 0
        if layer == "cluster.request":
            lane = self._lanes.get(meeting, 0) + 1
            self._lanes[meeting] = lane
        frame = [layer, time.thread_time(), 0.0, meeting, lane]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.thread_time()
        self._stack.pop()
        layer, start, child_s, meeting, lane = frame
        duration = end - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_s
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        elif layer == ROOT:
            self.root_s += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (layer, start - self._epoch, duration, meeting, lane)
            )
        else:
            self.dropped_spans += 1

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """An explicit span (the benchmark's root span of a round)."""
        if not self.active:
            yield
            return
        frame = self._enter(layer, ())
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer._observe(layer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _observe(self, layer: str, args: tuple, result) -> None:
        """Exact work counters read off the wrapped calls' results."""
        if layer == "core.solve":
            self.kmr_iterations += result[1].iterations
        elif layer == "core.mckp":
            self.mckp_instances += (
                len(result) if isinstance(result, list) else 1
            )
        elif layer == "cluster.request":
            source = result.source
            self.cache_sources[source] = self.cache_sources.get(source, 0) + 1

    # -- installation ----------------------------------------------------- #

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Swap every entry point for its wrapper; restore on exit."""
        restore = []
        try:
            for table, make in ((LAYERS, self._wrap), (COUNTED, self._count)):
                for layer, module_name, path in table:
                    owner, attr = _resolve(module_name, path)
                    original = owner.__dict__[attr]
                    restore.append((owner, attr, original))
                    setattr(owner, attr, _rewrap(original, layer, make))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- export ----------------------------------------------------------- #

    def chrome_trace(self) -> Dict[str, object]:
        """The kept spans as a Chrome trace-event JSON object."""
        pids: Dict[str, int] = {}
        for _, _, _, meeting, _ in self.spans:
            pids.setdefault(meeting or "(benchmark)", len(pids) + 1)
        events: List[Dict[str, object]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"meeting {name}"},
            }
            for name, pid in pids.items()
        ]
        for layer, start, duration, meeting, lane in self.spans:
            events.append(
                {
                    "ph": "X",
                    "name": layer,
                    "cat": layer.split(".")[0],
                    "pid": pids[meeting or "(benchmark)"],
                    "tid": lane,
                    "ts": round(start * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped_spans},
        }

    def write_chrome_trace(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))
        return path


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a ``module`` + ``"Class.method"`` path."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if parts[-1] not in owner.__dict__:
        raise AttributeError(f"{module_name}.{path} does not exist")
    return owner, parts[-1]


def _rewrap(original, layer: str, make: Callable):
    """Wrap a plain function, static method or class method alike."""
    if isinstance(original, classmethod):
        return classmethod(make(layer, original.__func__))
    if isinstance(original, staticmethod):
        return staticmethod(make(layer, original.__func__))
    return make(layer, original)
