"""Observability for the GSO reproduction: metrics, spans, traces, events.

The package has six cooperating parts, all zero-dependency and all
off-by-default-cheap (a disabled run records nothing and pays only no-op
calls on instrumented paths):

* :mod:`repro.obs.registry` — counters, gauges and bounded-reservoir
  histograms with labels; snapshot, merge, Prometheus-text and JSON
  export.  Enable with :func:`enable` / :func:`enabled_registry`.
* :mod:`repro.obs.spans` — ``with span("kmr.knapsack"):`` wall-clock
  scopes with thread-local nesting, recorded into the registry.
* :mod:`repro.obs.trace` — structured per-iteration KMR solver traces
  (JSONL or in-memory), installed with :func:`collect_traces`.
* :mod:`repro.obs.events` — correlated structured event log
  (``repro.events/v1`` JSONL): correlation ids minted at cluster
  ingress reconstruct causal per-meeting timelines.  Install with
  :func:`record_events`.
* :mod:`repro.obs.timeseries` — bounded ring-buffer time series with
  windowed p50/p95/p99 and rates, sampled from the registry.  Install
  with :func:`record_timeseries`.
* :mod:`repro.obs.slo` — declarative paper-pinned SLOs (Fig. 12 solve
  latency, KMR iteration bound, fallback rate, Sec. 7 interruption
  duration) with burn-rate style verdicts.

Canonical metric/span names live in :mod:`repro.obs.names` and are
documented for operators in ``docs/OBSERVABILITY.md``.  The CLI surface
is ``python -m repro obs ...`` (including ``obs report`` and
``obs timeline <meeting>``).

Quick start::

    from repro import obs

    with obs.enabled_registry() as reg, obs.record_events() as log:
        served = cluster.solve_conference("m-1", problem)
    print(reg.to_prometheus_text())
    print(obs.format_timeline(log.events, "m-1"))
"""

from . import names
from .events import (
    Event,
    EventLog,
    active_event_log,
    correlation_scope,
    current_correlation,
    record_events,
    set_event_log,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable,
    enable,
    enabled_registry,
    get_registry,
    set_registry,
)
from .report import (
    correlation_chains,
    format_report,
    format_slo_verdicts,
    format_timeline,
    meeting_timeline,
    report_dict,
    timeline_dict,
)
from .slo import (
    DEFAULT_SLOS,
    Slo,
    SloContext,
    SloEngine,
    SloVerdict,
    default_slos,
)
from .spans import (
    SpanRecord,
    current_span,
    format_span_tree,
    last_root_span,
    reset_spans,
    span,
)
from .timeseries import (
    Series,
    TimeSeriesStore,
    WindowStats,
    active_store,
    record_timeseries,
    set_store,
)
from .trace import (
    IterationRecord,
    SolveTrace,
    TraceCollector,
    active_collector,
    collect_traces,
    set_collector,
)

__all__ = [
    "names",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "disable",
    "enable",
    "enabled_registry",
    "get_registry",
    "set_registry",
    "SpanRecord",
    "current_span",
    "format_span_tree",
    "last_root_span",
    "reset_spans",
    "span",
    "IterationRecord",
    "SolveTrace",
    "TraceCollector",
    "active_collector",
    "collect_traces",
    "set_collector",
    "Event",
    "EventLog",
    "active_event_log",
    "correlation_scope",
    "current_correlation",
    "record_events",
    "set_event_log",
    "Series",
    "TimeSeriesStore",
    "WindowStats",
    "active_store",
    "record_timeseries",
    "set_store",
    "Slo",
    "SloContext",
    "SloEngine",
    "SloVerdict",
    "DEFAULT_SLOS",
    "default_slos",
    "correlation_chains",
    "format_report",
    "format_slo_verdicts",
    "format_timeline",
    "meeting_timeline",
    "report_dict",
    "timeline_dict",
]
