#!/usr/bin/env python3
"""Compare two ladder reports: ``compare.py A.json B.json`` (A = parent).

One row per workload x metric, by the rule of section 8 of the
choosing-metrics guide:

* end-to-end metrics carry each side's median and quartiles and the
  bound from ``BENCHMARK.json`` (which is ``registry.py`` written out).  ``worse``: B's median is worse than
  A's by more than the bound.  ``unresolved``: the run-to-run spread of
  either side (quartile distance over median) is wider than the bound,
  or the runner marked the workload unresolved - unless every run of B
  reads better than every run of A.  ``better``: at least ten runs a
  side, every run of B beats every run of A and the medians differ by
  more than A's own spread.  Otherwise ``same``.
* exact per-layer metrics (simulated counters) are compared with ``==``:
  ``same`` or ``worse``.  A host-speed change must leave all of them
  identical.
* the other per-layer metrics come from one traced pass each, have no
  bound, and are listed for attribution only (verdict ``-``).

Raw and probe-normalised spreads are shown side by side per workload.
Exit status 2 when any row is ``worse``, else 0.  Three rounds per side
can show a regression; claiming a *gain* needs the ten alternating pairs
the guide asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probe import quartiles, spread  # noqa: E402
from registry import E2E_BY_NAME, LAYER_BY_NAME  # noqa: E402


#: the guide's "at least ten pairs" before a gain may be claimed
MIN_RUNS_FOR_GAIN = 10


def _worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if not a:
        return 0.0
    return (b - a) / abs(a) if better == 'lower' else (a - b) / abs(a)


def judge(a: List[float], b: List[float], better: str, bound: float,
          flagged: bool = False) -> str:
    """The verdict for one end-to-end metric on one workload."""
    worse_by = _worsening(quartiles(a)['median'], quartiles(b)['median'],
                          better)
    if better == 'lower':
        b_wins_all = max(b) < min(a)
    else:
        b_wins_all = min(b) > max(a)
    noisy = flagged or spread(a) > bound or spread(b) > bound
    if b_wins_all and -worse_by > spread(a):
        # no regression either way; a gain needs ten runs a side
        return 'better' if min(len(a), len(b)) >= MIN_RUNS_FOR_GAIN \
            else 'same'
    if noisy:
        return 'unresolved'
    if worse_by > bound:
        return 'worse'
    return 'same'


def compare(doc_a: dict, doc_b: dict) -> dict:
    rows = []
    noise = []
    for w, sec_a in doc_a['workloads'].items():
        sec_b = doc_b['workloads'].get(w)
        if sec_b is None:
            rows.append({'workload': w, 'metric': '*', 'verdict': 'worse',
                         'note': 'workload missing from B'})
            continue
        flagged = sec_a['unresolved'] or sec_b['unresolved']
        for name, qa in sec_a['end_to_end'].items():
            qb = sec_b['end_to_end'][name]
            m = E2E_BY_NAME[name]
            # only host-time metrics inherit the runner's unresolved flag
            host_time = name != 'peak_rss_mb'
            rows.append({
                'workload': w, 'metric': name, 'unit': m.unit,
                'kind': 'end_to_end', 'bound': m.bound,
                'a': {k: qa[k] for k in ('median', 'q1', 'q3', 'n',
                                         'samples')},
                'b': {k: qb[k] for k in ('median', 'q1', 'q3', 'n',
                                         'samples')},
                'worse_by': _worsening(qa['median'], qb['median'],
                                       m.better),
                'verdict': judge(qa['samples'], qb['samples'], m.better,
                                 m.bound, flagged and host_time)})
        for name, va in sec_a['per_layer'].items():
            vb = sec_b['per_layer'].get(name)
            layer = LAYER_BY_NAME[name]
            row = {'workload': w, 'metric': name, 'unit': layer.unit,
                   'kind': 'exact' if layer.exact else 'per_layer',
                   'a': {'median': va['value'], 'n': 1},
                   'b': {'median': vb['value'] if vb else None, 'n': 1}}
            if layer.exact:
                row['verdict'] = ('same' if vb and va['value'] == vb['value']
                                  else 'worse')
            else:
                row['verdict'] = '-'
                if vb and va['value']:
                    row['worse_by'] = _worsening(va['value'], vb['value'],
                                                 layer.better)
            rows.append(row)
        for name in ('failed_ops_share', 'nondeterministic_units'):
            ok = sec_a[name] == sec_b[name] == 0
            rows.append({'workload': w, 'metric': name, 'kind': 'exact',
                         'a': {'median': sec_a[name]},
                         'b': {'median': sec_b[name]},
                         'verdict': 'same' if ok else 'worse'})
        noise.append({
            'workload': w,
            'a_raw_spread': sec_a['timing']['raw_wall_s']['spread'],
            'a_normalised_spread': sec_a['timing']['host_s']['spread'],
            'b_raw_spread': sec_b['timing']['raw_wall_s']['spread'],
            'b_normalised_spread': sec_b['timing']['host_s']['spread'],
            'raw_median_shift': _worsening(
                sec_a['timing']['raw_wall_s']['median'],
                sec_b['timing']['raw_wall_s']['median'], 'lower'),
            'normalised_median_shift': _worsening(
                sec_a['timing']['host_s']['median'],
                sec_b['timing']['host_s']['median'], 'lower'),
            'a_unresolved': sec_a['why_unresolved'],
            'b_unresolved': sec_b['why_unresolved']})
    counts: Dict[str, int] = {}
    for r in rows:
        counts[r['verdict']] = counts.get(r['verdict'], 0) + 1
    return {'kind': 'repro-ladder-compare',
            'a': _side(doc_a), 'b': _side(doc_b),
            'verdicts': counts, 'noise': noise, 'rows': rows}


def _side(doc: dict) -> dict:
    return {'seed': doc['seed'], 'rounds': doc['rounds'],
            'comparable': doc['comparable'],
            'generated': doc['generated'], 'provenance': doc['provenance']}


def render(result: dict, everything: bool = False) -> str:
    def num(v: Optional[float]) -> str:
        return f'{v:.6g}' if isinstance(v, (int, float)) else '-'
    lines = [f'{"workload":16s} {"metric":30s} {"A median [q1, q3]":34s} '
             f'{"B median [q1, q3]":34s} {"worse by":>9s} {"bound":>6s} '
             f'verdict']
    for r in result['rows']:
        if r.get('kind') == 'per_layer' and not everything:
            continue
        if (r.get('kind') == 'exact' and r['verdict'] == 'same'
                and not everything):
            continue
        a, b = r.get('a', {}), r.get('b', {})
        fa = num(a.get('median'))
        fb = num(b.get('median'))
        if 'q1' in a:
            fa += f' [{num(a["q1"])}, {num(a["q3"])}]'
            fb += f' [{num(b["q1"])}, {num(b["q3"])}]'
        wb = f'{r["worse_by"]:+.1%}' if 'worse_by' in r else ''
        bd = f'{r["bound"]:.0%}' if 'bound' in r else ''
        lines.append(f'{r["workload"]:16s} {r["metric"]:30s} {fa:34s} '
                     f'{fb:34s} {wb:>9s} {bd:>6s} {r["verdict"]}')
    exact = [r for r in result['rows'] if r.get('kind') == 'exact']
    same = sum(r['verdict'] == 'same' for r in exact)
    lines.append(f'exact metrics: {same} of {len(exact)} identical '
                 f'(compared with ==)')
    lines.append('host-time spread (quartile distance / median), raw vs '
                 'probe-normalised:')
    for n in result['noise']:
        lines.append(
            f'  {n["workload"]:16s} A raw {n["a_raw_spread"]:.1%} -> norm '
            f'{n["a_normalised_spread"]:.1%} | B raw '
            f'{n["b_raw_spread"]:.1%} -> norm '
            f'{n["b_normalised_spread"]:.1%} | median shift raw '
            f'{n["raw_median_shift"]:+.1%} -> norm '
            f'{n["normalised_median_shift"]:+.1%}'
            + (f' | UNRESOLVED: {n["a_unresolved"] or n["b_unresolved"]}'
               if n['a_unresolved'] or n['b_unresolved'] else ''))
    lines.append('verdicts: ' + ', '.join(
        f'{k} {v}' for k, v in sorted(result['verdicts'].items())))
    return '\n'.join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('a', help='parent report (BENCH_ladder*.json)')
    ap.add_argument('b', help='change report')
    ap.add_argument('--out', help='also write the comparison as JSON')
    ap.add_argument('--all', action='store_true',
                    help='print every per-layer row too')
    args = ap.parse_args(argv)
    with open(args.a) as f:
        doc_a = json.load(f)
    with open(args.b) as f:
        doc_b = json.load(f)
    if not (doc_a['comparable'] and doc_b['comparable']):
        print('note: a --smoke report is not comparable; verdicts are '
              'for exercising this tool only', file=sys.stderr)
    result = compare(doc_a, doc_b)
    print(render(result, everything=args.all))
    if args.out:
        with open(args.out, 'w') as f:
            json.dump(result, f, indent=1)
            f.write('\n')
    return 2 if result['verdicts'].get('worse') else 0


if __name__ == '__main__':
    sys.exit(main())
