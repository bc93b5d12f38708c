"""Machine-readable run reports: build, validate, render, compare.

A report is a versioned JSON artifact capturing everything one
simulation produced — final counters, the telemetry histograms and
interval samples, the machine configuration, and provenance (git SHA,
python version, timestamp) — so sweeps can be archived, diffed, and
regression-gated in CI without re-running the simulator.

The envelope (kind, version, ``generated`` stamp, validate / load / save)
is :mod:`repro.artifact`'s; this module owns the body schema, the
builder, the renderer and the two-report compare.
"""

from __future__ import annotations

import dataclasses

from ..artifact import Artifact

SCHEMA_VERSION = 1
REPORT_KIND = 'repro-run-report'


# --------------------------------------------------------------------- schema
_COUNTER = {'type': 'integer', 'minimum': 0}
_NUMBER = {'type': 'number'}

SAMPLE_SCHEMA = {
    'type': 'object',
    'required': ['cycle', 'dcycles', 'issued', 'stalls', 'llc_lines',
                 'dram_backlog'],
    'properties': {
        'cycle': _COUNTER,
        'dcycles': _COUNTER,
        'issued': _COUNTER,
        'stalls': {'type': 'object'},
        'llc_lines': _COUNTER,
        'llc_accesses': _COUNTER,
        'llc_misses': _COUNTER,
        'dram_lines_read': _COUNTER,
        'dram_lines_written': _COUNTER,
        'dram_backlog': _NUMBER,
        'inet_depth_total': _COUNTER,
        'inet_depth_max': _COUNTER,
        'per_core': {'type': 'object'},
    },
}

_BODY_SCHEMA = {
    'required': ['benchmark', 'config', 'cycles', 'instrs', 'counters',
                 'telemetry'],
    'properties': {
        'benchmark': {'type': 'string'},
        'config': {'type': 'string'},
        'params': {'type': 'object'},
        'machine': {'type': 'object'},
        'machine_hash': {'type': 'string'},
        'result_store': {
            'type': 'object',
            'required': ['schema_version', 'source'],
            'properties': {
                'schema_version': {'type': 'integer'},
                'source': {'type': 'string'},
            },
        },
        'cycles': _COUNTER,
        'instrs': _COUNTER,
        'counters': {
            'type': 'object',
            'required': ['mem', 'noc_word_hops', 'stalls'],
            'properties': {
                'mem': {'type': 'object'},
                'noc_word_hops': _COUNTER,
                'stalls': {'type': 'object'},
                'cores': {'type': 'object'},
            },
        },
        'energy': {'type': 'object'},
        'telemetry': {
            'type': 'object',
            'required': ['sample_interval', 'samples', 'histograms',
                         'spans'],
            'properties': {
                'sample_interval': _COUNTER,
                'samples': {'type': 'array', 'items': SAMPLE_SCHEMA},
                'histograms': {'type': 'object'},
                'spans': {'type': 'object'},
                'spans_dropped': _COUNTER,
            },
        },
    },
}


# ----------------------------------------------------------------------- build
def _stats_counters(stats) -> dict:
    from ..manycore.stats import STALL_CAUSES, CoreStats
    mem = {f.name: getattr(stats.mem, f.name)
           for f in dataclasses.fields(stats.mem)}
    stalls = {}
    cores = {}
    for cid, cs in stats.cores.items():
        doc = {f.name: getattr(cs, f.name)
               for f in dataclasses.fields(CoreStats)}
        doc['stall_total'] = cs.stall_total()
        cores[str(cid)] = doc
        for f in STALL_CAUSES:
            stalls[f] = stalls.get(f, 0) + getattr(cs, f)
    return {'mem': mem, 'noc_word_hops': stats.noc_word_hops,
            'stalls': stalls, 'cores': cores}


def build_report(result) -> dict:
    """Assemble the (validated) report document for one RunResult.

    ``machine_hash`` and ``result_store`` tie the report to the sweep
    cache: the hash is the same one :mod:`repro.jobs` keys on, and
    ``result_store.source`` says whether the numbers were simulated in
    this process ('simulated') or rehydrated from the on-disk store
    ('store'), so cached and fresh reports are distinguishable.
    """
    from ..jobs.serialize import RESULT_SCHEMA_VERSION
    from ..jobs.spec import machine_hash
    doc = {
        'benchmark': result.benchmark,
        'config': result.config,
        'cycles': result.cycles,
        'instrs': result.stats.total_instrs,
        'counters': _stats_counters(result.stats),
        'machine_hash': machine_hash(result.machine),
        'result_store': {
            'schema_version': RESULT_SCHEMA_VERSION,
            'source': getattr(result, 'source', 'simulated'),
        },
    }
    if result.params is not None:
        doc['params'] = {k: v for k, v in result.params.items()}
    if result.machine is not None:
        doc['machine'] = dataclasses.asdict(result.machine)
    if result.energy is not None:
        doc['energy'] = dict(result.energy.as_dict())
        doc['energy']['on_chip_total'] = result.energy.on_chip_total
    tel = result.telemetry
    doc['telemetry'] = (tel.to_dict() if tel is not None else
                        {'sample_interval': 0, 'samples': [],
                         'histograms': {}, 'spans': {}})
    return RUN_REPORT.stamp(doc)


# ---------------------------------------------------------------------- render
def render_report(doc: dict) -> str:
    """Human-readable summary of one report."""
    from ..observe.histogram import Log2Histogram
    lines = [f"{doc['benchmark']} / {doc['config']}  "
             f"(schema v{doc['schema_version']}, "
             f"git {doc['generated']['git_sha'][:12]})",
             f"  cycles        {doc['cycles']}",
             f"  instructions  {doc['instrs']}"]
    stalls = doc['counters']['stalls']
    total_stall = sum(stalls.values())
    core_cycles = sum(c['cycles'] for c in
                      doc['counters'].get('cores', {}).values()) or 1
    lines.append(f'  CPI stack (fabric aggregate, {total_stall} stall '
                 f'cycles):')
    for cause, v in sorted(stalls.items(), key=lambda kv: -kv[1]):
        if v:
            lines.append(f'    {cause[len("stall_"):]:<14s} {v:>12d}  '
                         f'({100.0 * v / core_cycles:5.1f}% of core cycles)')
    lines.append(f"  NoC word-hops {doc['counters']['noc_word_hops']}")
    mem = doc['counters']['mem']
    lines.append(f"  LLC accesses  {mem.get('llc_accesses', 0)} "
                 f"(misses {mem.get('llc_misses', 0)}), DRAM lines "
                 f"{mem.get('dram_lines_read', 0)}r/"
                 f"{mem.get('dram_lines_written', 0)}w")
    tel = doc['telemetry']
    lines.append(f"  samples       {len(tel['samples'])} "
                 f"@ {tel['sample_interval']}-cycle interval")
    for name, h in tel['histograms'].items():
        if h['count']:
            lines.append('  ' + Log2Histogram.from_dict(h).render()
                         .split('\n')[0])
    spans = tel.get('spans', {})
    if spans:
        lines.append('  spans         ' + ', '.join(
            f'{k}={v}' for k, v in sorted(spans.items())))
    return '\n'.join(lines)


RUN_REPORT = Artifact(REPORT_KIND, SCHEMA_VERSION, _BODY_SCHEMA,
                      render_report)
REPORT_SCHEMA = RUN_REPORT.schema
validate_report = RUN_REPORT.validate
load_report = RUN_REPORT.load


# --------------------------------------------------------------------- compare
def compare_reports(a: dict, b: dict, threshold: float = 0.02):
    """Diff two reports; returns ``(text, regressed)``.

    ``regressed`` is True when B's cycle count exceeds A's by more than
    ``threshold`` (relative), or when any stall cause grows by more than
    ``threshold`` of A's total cycles — the knobs the CPI-stack figures
    are sensitive to.
    """
    lines = [f"compare {a['benchmark']}/{a['config']} "
             f"(git {a['generated']['git_sha'][:9]}) -> "
             f"{b['benchmark']}/{b['config']} "
             f"(git {b['generated']['git_sha'][:9]})"]
    regressed = False
    if (a['benchmark'], a.get('params')) != (b['benchmark'], b.get('params')):
        lines.append('  WARNING: comparing different benchmarks/params')

    ca, cb = a['cycles'], b['cycles']
    rel = (cb - ca) / ca if ca else 0.0
    flag = ''
    if rel > threshold:
        regressed = True
        flag = f'  << REGRESSION (> {threshold:.1%})'
    elif rel < -threshold:
        flag = '  (improvement)'
    lines.append(f'  cycles        {ca:>12d} -> {cb:>12d}  '
                 f'({rel:+.2%}){flag}')

    ia, ib = a['instrs'], b['instrs']
    irel = (ib - ia) / ia if ia else 0.0
    lines.append(f'  instructions  {ia:>12d} -> {ib:>12d}  ({irel:+.2%})')

    sa, sb = a['counters']['stalls'], b['counters']['stalls']
    for cause in sorted(set(sa) | set(sb)):
        va, vb = sa.get(cause, 0), sb.get(cause, 0)
        if va == vb == 0:
            continue
        drel = (vb - va) / ca if ca else 0.0
        flag = ''
        if drel > threshold:
            regressed = True
            flag = f'  << REGRESSION (+{drel:.1%} of cycles)'
        lines.append(f'  {cause[len("stall_"):]:<13s} {va:>12d} -> '
                     f'{vb:>12d}{flag}')

    ma, mb = a['counters']['mem'], b['counters']['mem']
    for key in ('llc_misses', 'dram_lines_read'):
        va, vb = ma.get(key, 0), mb.get(key, 0)
        if va or vb:
            lines.append(f'  {key:<13s} {va:>12d} -> {vb:>12d}')
    return '\n'.join(lines), regressed
