#!/usr/bin/env python3
"""Read a ladder pairs file: parent vs change, per workload and metric.

    python tools/pairs.py benchmarks/history/PAIRS_pr23.jsonl

One JSON record per run, in the order made: ``workload``, ``pair``,
``side`` (``parent`` / ``change``) and the three end-to-end metrics.
Prints both medians, the parent's quartiles, in how many pairs the change
read better, and the simplicity guide's verdict: ``resolved`` when the
medians differ by more than the parent's own quartile distance and the
change won (``better``) or lost (``worse``) nine tenths of the pairs,
else ``unresolved``.
"""

import json
import sys
from collections import defaultdict
from statistics import median, quantiles

HIGHER_IS_BETTER = {'sim_instrs_per_host_s': True, 'setup_s': False,
                    'peak_rss_mb': False}


def main(path: str) -> int:
    runs = defaultdict(dict)  # (workload, pair) -> side -> record
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            runs[rec['workload'], rec['pair']][rec['side']] = rec
    workloads = list(dict.fromkeys(w for w, _ in runs))
    print(f'{"workload":<16} {"metric":<22} {"parent":>10} {"change":>10} '
          f'{"diff":>7}  {"parent q1..q3":>21}  wins')
    for w in workloads:
        pairs = [sides for (name, _), sides in runs.items()
                 if name == w and len(sides) == 2]
        both = [r for sides in pairs for r in sides.values()]
        for metric, higher in HIGHER_IS_BETTER.items():
            parent = [p['parent'][metric] for p in pairs]
            change = [p['change'][metric] for p in pairs]
            sign = 1 if higher else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            q1, _, q3 = quantiles(parent, n=4) if len(parent) > 1 \
                else (parent[0],) * 3
            mp, mc = median(parent), median(change)
            verdict = 'unresolved'
            if abs(mc - mp) > q3 - q1 \
                    and max(wins, losses) >= 0.9 * len(pairs):
                verdict = 'resolved ' + ('better' if wins > losses
                                         else 'worse')
            print(f'{w:<16} {metric:<22} {mp:>10.4g} {mc:>10.4g} '
                  f'{(mc - mp) / mp:>+7.1%}  {q1:>10.4g}..{q3:<9.4g}  '
                  f'{wins}/{len(pairs)} {verdict}')
        print(f'{w:<16} failed {sum(r["failed"] for r in both)} of '
              f'{sum(r["attempted"] for r in both)} attempted')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1]))
