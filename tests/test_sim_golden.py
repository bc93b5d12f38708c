"""Golden fingerprints: every kernel x every manycore config, compared with ==.

A change to the simulator's *speed* is only admissible when every
simulated statistic stays identical.  ``tests/data/sim_golden.json``
holds, for each registered kernel under each Table 3 manycore
configuration at ``test`` scale, the cycle and instruction counts, all
seven stall totals, all seven instruction-mix totals (which feed the
energy model and which no bench-ladder counter sees), the SDV counters,
the ``repro.energy`` total, and a sha256 of the output arrays.

The file is only ever regenerated on purpose — when a PR *means* to
change simulated behaviour, and says so:

    PYTHONPATH=src python tests/test_sim_golden.py --regenerate
"""

import hashlib
import json
import os
import sys

import pytest

from repro.energy import compute_energy
from repro.harness.configs import CONFIGS
from repro.kernels import registry
from repro.kernels.base import VectorParams
from repro.manycore import Fabric
from repro.manycore.stats import STALL_CAUSES

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), 'data',
                           'sim_golden.json')

MIX_FIELDS = ('n_int_alu', 'n_mul', 'n_div', 'n_fp', 'n_mem', 'n_simd',
              'n_control')
CORE_TOTALS = (('instrs', 'icache_accesses', 'spad_reads', 'spad_writes',
                'inet_forwards', 'frames_consumed', 'vloads_issued',
                'microthreads') + STALL_CAUSES + MIX_FIELDS)

#: repro.gpu has its own machine and no tile; it is not fingerprinted
MANYCORE_CONFIGS = [c for c in CONFIGS.values() if c.kind != 'gpu']
CASES = [(cls.name, cfg.name) for cls in registry.ALL
         for cfg in MANYCORE_CONFIGS]


def fingerprint(kernel: str, config: str) -> dict:
    """Simulate one pair on the default machine; return its exact counters."""
    cfg = CONFIGS[config]
    bench = registry.make(kernel)
    params = bench.params_for('test')
    machine = cfg.machine()
    fabric = Fabric(machine)
    ws = bench.setup(fabric, params)
    if cfg.kind == 'mimd':
        prog = bench.build_mimd(fabric, ws, params, prefetch=cfg.prefetch,
                                pcv=cfg.pcv)
    else:
        prog = bench.build_vector(fabric, ws, params,
                                  VectorParams(lanes=cfg.lanes, pcv=cfg.pcv))
    fabric.load_program(prog)
    stats = fabric.run(max_cycles=5_000_000)
    bench.verify(fabric, ws, params)
    out = hashlib.sha256()
    for name, flat in sorted(bench.expected_flat(ws, params).items()):
        out.update(name.encode())
        # repr keeps int vs float and every bit of a double
        out.update(repr(fabric.read_array(ws.base(name),
                                          flat.size)).encode())
    fp = {'cycles': stats.cycles}
    fp.update((f, stats.total(f)) for f in CORE_TOTALS)
    fp['energy_total'] = compute_energy(stats, machine).total
    fp['output_sha256'] = out.hexdigest()
    return fp


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.fixture(scope='module')
def golden():
    return load_golden()


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(f'{k}/{c}' for k, c in CASES)


@pytest.mark.parametrize('kernel,config', CASES,
                         ids=[f'{k}-{c}' for k, c in CASES])
def test_fingerprint_matches_golden(golden, kernel, config):
    assert fingerprint(kernel, config) == golden[f'{kernel}/{config}']


if __name__ == '__main__':
    if sys.argv[1:] != ['--regenerate']:
        sys.exit(__doc__)
    doc = {f'{k}/{c}': fingerprint(k, c) for k, c in CASES}
    with open(GOLDEN_PATH, 'w') as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write('\n')
    print(f'wrote {len(doc)} fingerprints to {GOLDEN_PATH}')
