"""Telemetry: interval sampling, latency histograms, spans, run reports.

The observability layer the perf roadmap depends on.  Everything is
off-by-default and observation-only: attaching a :class:`Telemetry` to a
fabric never changes simulated cycle counts (the probes read state; they
post no events), and an unattached fabric pays a single ``None`` check
per probe site.  :class:`Telemetry` is an
:class:`~repro.observe.ObservePlane` plus the ordered replay the run
report needs; imports run one way, telemetry → observe.

Quick start::

    from repro.telemetry import Telemetry
    from repro.harness import run_benchmark

    tel = Telemetry(interval=1000)
    r = run_benchmark(bench, 'V4', params, telemetry=tel)
    doc = r.to_json('out.json')           # schema-checked report artifact

The Perfetto trace of a run is :func:`repro.spans.to_chrome_trace`.
See ``docs/telemetry.md`` for the sample/histogram/trace/report tour.
"""

from ..artifact import ReportValidationError
from ..observe.histogram import Log2Histogram
from .probes import (HIST_FRAME, HIST_GPU_MEM, HIST_LLC_QUEUE, HIST_NOC,
                     HIST_VLOAD, HISTOGRAM_NAMES, Telemetry)
from .report import (REPORT_SCHEMA, SCHEMA_VERSION, build_report,
                     compare_reports, load_report, render_report,
                     validate_report)

__all__ = [
    'Telemetry', 'Log2Histogram', 'HIST_VLOAD', 'HIST_FRAME',
    'HIST_LLC_QUEUE', 'HIST_NOC', 'HIST_GPU_MEM', 'HISTOGRAM_NAMES',
    'build_report', 'validate_report', 'load_report', 'render_report',
    'compare_reports', 'ReportValidationError', 'REPORT_SCHEMA',
    'SCHEMA_VERSION',
]
