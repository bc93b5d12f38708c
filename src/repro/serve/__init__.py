"""repro.serve — dynamic vector-group allocation and multi-tenant serving.

The paper's vector groups are configured by software at run time; this
package exercises that property as a *serving* system: a stream of kernel
requests (kernel, problem size, preferred group shape, priority,
deadline) is admitted, placed by a first-fit region allocator over the
serpentine tile path, launched as independent jobs on one live fabric,
and reclaimed on completion — so queued requests start while unrelated
groups keep running, and every co-scheduled kernel produces results
bit-identical to an isolated run.
"""

from .allocator import AllocStats, Region, RegionAllocator
from .reference import IsolatedRun, isolated_reference, request_outputs
from .report import (BREAKDOWN_SCHEMA, SERVE_REPORT_KIND,
                     SERVE_REPORT_SCHEMA, build_serve_report,
                     load_serve_report, render_serve_report,
                     store_serve_report, trace_key, validate_serve_report)
from .request import (DONE, FAILED, KernelRequest, QUEUED, REJECTED,
                      RUNNING, TERMINAL, TIMED_OUT)
from .scheduler import ServeResult, ServeScheduler
from .tracegen import (DEFAULT_KERNELS, DEFAULT_SHAPES, PATTERNS,
                       SIZE_LADDERS, generate_trace, load_trace,
                       mint_trace_id, open_loop_trace, save_trace)

__all__ = [
    'AllocStats', 'Region', 'RegionAllocator',
    'IsolatedRun', 'isolated_reference', 'request_outputs',
    'BREAKDOWN_SCHEMA', 'SERVE_REPORT_KIND', 'SERVE_REPORT_SCHEMA',
    'build_serve_report',
    'load_serve_report', 'render_serve_report', 'store_serve_report',
    'trace_key', 'validate_serve_report',
    'DONE', 'FAILED', 'KernelRequest', 'QUEUED', 'REJECTED', 'RUNNING',
    'TERMINAL', 'TIMED_OUT',
    'ServeResult', 'ServeScheduler',
    'DEFAULT_KERNELS', 'DEFAULT_SHAPES', 'PATTERNS', 'SIZE_LADDERS',
    'generate_trace', 'load_trace', 'mint_trace_id', 'open_loop_trace',
    'save_trace',
]
