"""repro.flight — fleet-wide tracing, black box, and anomaly detection.

Production fleets are debugged with distributed traces and
post-mortems, not per-shard log files.  This package closes that gap
for the simulated fleet:

* :mod:`~repro.flight.journal` — the JSONL flight journal of span trees
  (one per ``trace_id``, records from :mod:`repro.spans`) and their
  continuity check;
* :mod:`~repro.flight.recorder` — the bounded black-box event ring;
* :mod:`~repro.flight.postmortem` — schema-checked
  ``POSTMORTEM_*.json`` artifacts on crash / deadlock / SLO-fail;
* :mod:`~repro.flight.anomaly` — EWMA rolling-z-score detection over
  observe-plane snapshot streams;
* :mod:`~repro.flight.collect` — :class:`FleetFlight`, the router-side
  collector that ties it all to a :class:`~repro.fleet.FleetRouter`.

Journals merge into one Perfetto-loadable trace (router track + one
track group per shard) through :func:`repro.spans.merged_chrome_trace`.

CLI: ``repro fleet --flight``, ``repro trace``, ``repro postmortem``.
"""

from ..spans import (make_span, merged_chrome_trace, shard_track,
                     write_merged_trace)
from .anomaly import AnomalyDetector, feed_fleet_epoch
from .collect import FleetFlight
from .journal import (JOURNAL_KIND, JournalError, check_continuity,
                      read_journal, render_tree, write_journal)
from .postmortem import (POSTMORTEM_KIND, POSTMORTEM_SCHEMA,
                         build_postmortem, load_postmortem,
                         postmortem_path, render_postmortem,
                         save_postmortem, validate_postmortem)
from .recorder import EVENT_KINDS, FlightRecorder

__all__ = [
    'AnomalyDetector', 'feed_fleet_epoch',
    'FleetFlight',
    'merged_chrome_trace', 'write_merged_trace',
    'POSTMORTEM_KIND', 'POSTMORTEM_SCHEMA', 'build_postmortem',
    'load_postmortem', 'postmortem_path', 'render_postmortem',
    'save_postmortem', 'validate_postmortem',
    'EVENT_KINDS', 'FlightRecorder',
    'JOURNAL_KIND', 'JournalError', 'check_continuity', 'make_span',
    'read_journal', 'render_tree', 'shard_track', 'write_journal',
]
