"""Lossless RunResult <-> JSON-safe dict conversion for the result store.

Everything a :class:`~repro.harness.runner.RunResult` carries that is
needed to regenerate any figure or experiment table — final cycle count,
the full per-core/memory/NoC statistics, the energy breakdown, the input
parameters, and the machine configuration — round-trips exactly.  The
``telemetry`` attachment is the one exception: sweeps run telemetry-free
(it is an interactive-debugging feature and would dominate pipe traffic),
so it serializes to nothing and deserializes as ``None``.

Per-core statistics are stored one row per core: ``core_fields`` names
:class:`~repro.manycore.stats.CoreStats`'s fields once, in declaration
order, and ``cores`` maps each core id to a list of values in that
order.  A reader whose ``CoreStats`` fields differ (reordered, renamed,
added or dropped) refuses the document with ``ValueError`` instead of
loading numbers into the wrong fields.

``RESULT_SCHEMA_VERSION`` is embedded in every stored document and in the
run-report artifact; readers treat a mismatch as a cache miss, so schema
evolution never requires clearing stores by hand.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Optional

from ..energy.model import EnergyBreakdown
from ..harness.runner import RunResult
from ..manycore.config import MachineConfig
from ..manycore.stats import CoreStats, MemStats, RunStats

#: Bump when the serialized layout changes; old store entries become misses.
#: v2: one row per core under ``core_fields`` (v1 had one dict per core).
RESULT_SCHEMA_VERSION = 2

#: CoreStats's field names in declaration order: the layout of a core row
CORE_FIELDS = tuple(f.name for f in dataclasses.fields(CoreStats))
_core_row = attrgetter(*CORE_FIELDS)


def stats_to_dict(stats: RunStats) -> dict:
    """Flatten a RunStats (full per-core + memory counters) losslessly."""
    return {
        'cycles': stats.cycles,
        'noc_word_hops': stats.noc_word_hops,
        'mem': dict(vars(stats.mem)),
        'core_fields': list(CORE_FIELDS),
        'cores': {str(cid): list(_core_row(cs))
                  for cid, cs in stats.cores.items()},
    }


def stats_from_dict(sd: dict) -> RunStats:
    """Rebuild a RunStats; raises ValueError when the stored core rows
    were written for a different CoreStats layout."""
    if tuple(sd['core_fields']) != CORE_FIELDS:
        raise ValueError('stored core fields differ from CoreStats')
    return RunStats(
        cycles=sd['cycles'],
        cores={int(cid): CoreStats(*row)
               for cid, row in sd['cores'].items()},
        mem=MemStats(**sd['mem']),
        noc_word_hops=sd['noc_word_hops'])


def result_to_dict(r: RunResult) -> dict:
    """Flatten one RunResult to a JSON-safe dict (telemetry excluded)."""
    return {
        'schema_version': RESULT_SCHEMA_VERSION,
        'benchmark': r.benchmark,
        'config': r.config,
        'cycles': r.cycles,
        'stats': stats_to_dict(r.stats),
        'energy': (dataclasses.asdict(r.energy)
                   if r.energy is not None else None),
        'params': dict(r.params) if r.params is not None else None,
        'machine': (dataclasses.asdict(r.machine)
                    if r.machine is not None else None),
    }


def result_from_dict(doc: dict, source: str = 'store') -> RunResult:
    """Rebuild a RunResult; raises ValueError on schema mismatch.

    ``source`` lands in ``RunResult.source`` ('simulated' for results that
    just crossed a worker pipe, 'store' for on-disk cache hits) so reports
    built from cached results are distinguishable from fresh ones.
    """
    version = doc.get('schema_version')
    if version != RESULT_SCHEMA_VERSION:
        raise ValueError(f'result schema v{version} != '
                         f'v{RESULT_SCHEMA_VERSION}')
    stats = stats_from_dict(doc['stats'])
    energy: Optional[EnergyBreakdown] = (
        EnergyBreakdown(**doc['energy'])
        if doc.get('energy') is not None else None)
    machine: Optional[MachineConfig] = (
        MachineConfig(**doc['machine'])
        if doc.get('machine') is not None else None)
    return RunResult(doc['benchmark'], doc['config'], doc['cycles'], stats,
                     energy, params=doc.get('params'), machine=machine,
                     telemetry=None, source=source)
