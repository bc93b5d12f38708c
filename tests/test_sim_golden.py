"""Golden fingerprints: every kernel x every Table 3 config, compared with ==.

A change to the simulator's *speed*, or to how a kernel is *described*,
is only admissible when every simulated statistic stays identical.
``tests/data/sim_golden.json`` holds, for each registered kernel under
each Table 3 manycore configuration at ``test`` scale, the cycle and
instruction counts, all seven stall totals, all seven instruction-mix
totals (which feed the energy model and which no bench-ladder counter
sees), the SDV counters, the ``repro.energy`` total, and a sha256 of the
output arrays; under ``GPU`` (its own machine, no tile) the cycles, the
issued-instruction total and the output sha256.

``tests/data/program_golden.json`` holds assemble-only digests at
``bench`` scale, where nothing else pins the lowering of the kernels the
ladder does not run: a sha256 over every instruction's
``(op, rd, rs1, rs2, imm, ex)`` plus the fabric memory image (inputs and
the vector dispatch tables) for each manycore config, over every launch
for ``GPU``; a pair the code generator rejects records the error text.

The files are only ever regenerated on purpose — when a PR *means* to
change simulated behaviour or a generated program, and says so:

    PYTHONPATH=src python tests/test_sim_golden.py --regenerate
"""

import hashlib
import json
import os
import sys

import pytest

from repro.energy import compute_energy
from repro.gpu import DEFAULT_GPU, GpuMachine
from repro.gpu.kernels import build_launches
from repro.harness.configs import CONFIGS
from repro.kernels import registry
from repro.kernels.base import VectorParams
from repro.manycore import Fabric
from repro.manycore.stats import STALL_CAUSES

DATA_DIR = os.path.join(os.path.dirname(__file__), 'data')
GOLDEN_PATH = os.path.join(DATA_DIR, 'sim_golden.json')
PROGRAM_GOLDEN_PATH = os.path.join(DATA_DIR, 'program_golden.json')

MIX_FIELDS = ('n_int_alu', 'n_mul', 'n_div', 'n_fp', 'n_mem', 'n_simd',
              'n_control')
CORE_TOTALS = (('instrs', 'icache_accesses', 'spad_reads', 'spad_writes',
                'inet_forwards', 'frames_consumed', 'vloads_issued',
                'microthreads') + STALL_CAUSES + MIX_FIELDS)

CASES = [(cls.name, cfg.name) for cls in registry.ALL
         for cfg in CONFIGS.values()]


def _build(bench, cfg, fabric, ws, params):
    if cfg.kind == 'mimd':
        return bench.build_mimd(fabric, ws, params, prefetch=cfg.prefetch,
                                pcv=cfg.pcv)
    return bench.build_vector(fabric, ws, params,
                              VectorParams(lanes=cfg.lanes, pcv=cfg.pcv))


def _output_sha256(bench, machine, ws, params) -> str:
    out = hashlib.sha256()
    for name, flat in sorted(bench.expected_flat(ws, params).items()):
        out.update(name.encode())
        # repr keeps int vs float and every bit of a double (the GPU's
        # numpy scalars are unwrapped: their repr differs across numpys)
        out.update(repr([v.item() if hasattr(v, 'item') else v
                         for v in machine.read_array(ws.base(name),
                                                     flat.size)]).encode())
    return out.hexdigest()


def fingerprint(kernel: str, config: str) -> dict:
    """Simulate one pair on the default machine; return its exact counters."""
    cfg = CONFIGS[config]
    bench = registry.make(kernel)
    params = bench.params_for('test')
    if cfg.kind == 'gpu':
        gm = GpuMachine(DEFAULT_GPU)
        ws = bench.setup(gm, params)
        for program, entry in build_launches(kernel, ws, params, DEFAULT_GPU):
            gm.launch(program, entry)
        bench.verify(gm, ws, params)
        return {'cycles': gm.cycle, 'total_instrs': gm.total_instrs,
                'output_sha256': _output_sha256(bench, gm, ws, params)}
    machine = cfg.machine()
    fabric = Fabric(machine)
    ws = bench.setup(fabric, params)
    fabric.load_program(_build(bench, cfg, fabric, ws, params))
    stats = fabric.run(max_cycles=5_000_000)
    bench.verify(fabric, ws, params)
    fp = {'cycles': stats.cycles}
    fp.update((f, stats.total(f)) for f in CORE_TOTALS)
    fp['energy_total'] = compute_energy(stats, machine).total
    fp['output_sha256'] = _output_sha256(bench, fabric, ws, params)
    return fp


def _program_sha256(h, program) -> None:
    for i in program.instrs:
        h.update(repr((i.op, i.rd, i.rs1, i.rs2, i.imm, i.ex)).encode())


def program_digest(kernel: str, config: str) -> str:
    """Assemble one pair at bench scale (no simulation); digest the result."""
    cfg = CONFIGS[config]
    bench = registry.make(kernel)
    params = bench.params_for('bench')
    h = hashlib.sha256()
    try:
        if cfg.kind == 'gpu':
            gm = GpuMachine(DEFAULT_GPU)
            ws = bench.setup(gm, params)
            for program, entry in build_launches(kernel, ws, params,
                                                 DEFAULT_GPU):
                h.update(f'launch@{entry}'.encode())
                _program_sha256(h, program)
        else:
            fabric = Fabric(cfg.machine())
            ws = bench.setup(fabric, params)
            _program_sha256(h, _build(bench, cfg, fabric, ws, params))
            h.update(repr(fabric.memory).encode())
    except ValueError as e:     # the code generator rejects this pair
        return f'ValueError: {e}'
    return h.hexdigest()


def _load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


@pytest.fixture(scope='module')
def golden():
    return _load(GOLDEN_PATH)


@pytest.fixture(scope='module')
def program_golden():
    return _load(PROGRAM_GOLDEN_PATH)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(f'{k}/{c}' for k, c in CASES)


@pytest.mark.parametrize('kernel,config', CASES,
                         ids=[f'{k}-{c}' for k, c in CASES])
def test_fingerprint_matches_golden(golden, kernel, config):
    assert fingerprint(kernel, config) == golden[f'{kernel}/{config}']


@pytest.mark.parametrize('kernel,config', CASES,
                         ids=[f'{k}-{c}' for k, c in CASES])
def test_bench_scale_program_matches_golden(program_golden, kernel, config):
    assert program_digest(kernel, config) == \
        program_golden[f'{kernel}/{config}']


if __name__ == '__main__':
    if sys.argv[1:] != ['--regenerate']:
        sys.exit(__doc__)
    for path, fn in ((GOLDEN_PATH, fingerprint),
                     (PROGRAM_GOLDEN_PATH, program_digest)):
        doc = {f'{k}/{c}': fn(k, c) for k, c in CASES}
        with open(path, 'w') as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write('\n')
        print(f'wrote {len(doc)} entries to {path}')
