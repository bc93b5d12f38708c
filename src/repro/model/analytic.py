"""Feature extraction and the calibrated linear cycle model.

Predicted cycles are a non-negative linear combination of six features
computed in closed form from the workload description (see
``docs/dse.md`` for the equations):

``phase``
    Number of kernel phases — carries group formation, ``vconfig``
    dispatch, ``devec`` and the global barrier between phases.
``comp``
    Per-group compute critical path: for each vector phase, the slower
    of the scalar DAE stream and the lockstep microthread stream,
    summed over the tiles one group owns.
``fill``
    Exposed frame-fill latency: response packets per frame (plus NoC
    round trip) divided by the frame-counter depth — deeper frame
    pipelines hide more of the fill behind compute.
``llcser``
    LLC serialization roof: total response packets plus store words,
    spread over the banks' single-ported response/request paths.
``dram``
    DRAM bandwidth roof: unique footprint words over the pin bandwidth.
``mimd``
    SPMD phases (reductions, transposes): per-core instruction count
    plus exposed memory latency under the 2-entry load queue.

The per-kernel coefficients come from :mod:`repro.model.calibrate`;
uncalibrated predictions use rough priors and are clearly marked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..energy.model import EnergyParams
from ..manycore.config import DEFAULT_CONFIG, MachineConfig
from .workload import VectorPhase, Workload, WorkloadError, build_workload

#: Feature names, in coefficient-vector order.
FEATURES: Tuple[str, ...] = ('phase', 'comp', 'fill', 'llcser', 'dram',
                             'mimd')

#: Rough priors for uncalibrated predictions.
DEFAULT_COEFFS: Dict[str, float] = {
    'phase': 80.0, 'comp': 1.3, 'fill': 1.0, 'llcser': 1.0,
    'dram': 1.0, 'mimd': 1.5,
}


class ModelError(ValueError):
    """Base class for analytical-model failures."""


class UnsupportedConfigError(ModelError):
    """The config kind (mimd/gpu/meta) is outside the model's scope."""


class InfeasiblePointError(ModelError):
    """The design point cannot be code-generated (and so not simulated)."""


def _resolve_config(config_name: str):
    from ..harness.configs import CONFIGS
    cfg = CONFIGS.get(config_name)
    if cfg is None:
        raise UnsupportedConfigError(
            f'unknown or meta config {config_name!r}: the analytical '
            f'model covers concrete vector configs only')
    if cfg.kind != 'vector':
        raise UnsupportedConfigError(
            f'config {config_name!r} is {cfg.kind}; the analytical model '
            f'covers vector configs only')
    return cfg


def _check_feasible(wl: Workload, machine: MachineConfig) -> None:
    """Reject points the code generator would reject, for the same reasons."""
    if machine.frame_counters - machine.inet_queue_entries - 1 < 1:
        raise InfeasiblePointError(
            f'{machine.frame_counters} frame counters cannot pace a '
            f'{machine.inet_queue_entries}-entry inet queue')
    ngroups = machine.num_cores // (wl.lanes + 1)
    if ngroups < 1:
        raise InfeasiblePointError(
            f'no {wl.lanes}-lane group fits a '
            f'{machine.mesh_width}x{machine.mesh_height} mesh')
    for p in wl.vector_phases:
        if p.frame_words * machine.frame_counters > machine.spad_words:
            raise InfeasiblePointError(
                f'phase {p.name}: {p.frame_words}-word frames overflow '
                f'the scratchpad at depth {machine.frame_counters}')


@dataclass
class Prediction:
    """One analytical evaluation of (kernel, config, machine)."""

    benchmark: str
    config: str
    cycles: float
    energy_pj: float           # first-order on-chip energy estimate
    tiles_used: int            # cores occupied by the group plan
    features: Dict[str, float]
    calibrated: bool


def compute_features(wl: Workload, machine: MachineConfig) -> Dict[str, float]:
    """The closed-form feature vector for one workload on one machine."""
    _check_feasible(wl, machine)
    lanes = wl.lanes
    ngroups = machine.num_cores // (lanes + 1)
    ncores = machine.num_cores
    banks = machine.llc_banks
    depth = machine.frame_counters
    # mean NoC round trip: request + response over ~half the mesh span
    hops = (machine.mesh_width + machine.mesh_height) / 2.0
    round_trip = 2 * hops * machine.router_hop_latency \
        + machine.llc_hit_latency
    feats = {k: 0.0 for k in FEATURES}
    feats['phase'] = float(wl.n_phases)
    for p in wl.phases:
        if isinstance(p, VectorPhase):
            tiles_pg = _ceil(p.tiles, ngroups)
            frames_pg = tiles_pg * p.frames_per_tile
            scalar = (frames_pg * p.scalar_per_frame
                      + tiles_pg * p.scalar_per_tile)
            mt = (frames_pg * p.mt_per_frame + tiles_pg * p.mt_per_tile)
            feats['comp'] += max(scalar, mt)
            feats['fill'] += frames_pg * \
                (p.packets_per_frame + round_trip) / depth
            total_frames = p.tiles * p.frames_per_tile
            feats['llcser'] += (total_frames * p.packets_per_frame
                                + p.tiles * (p.store_words_per_tile
                                             + p.load_words_per_tile)) / banks
        else:
            per_core = _ceil(p.items, ncores)
            mem = (p.loads_per_item + p.stores_per_item) * round_trip \
                / max(1, machine.load_queue_entries)
            feats['mimd'] += per_core * (p.instrs_per_item + mem)
    feats['dram'] = wl.footprint_words \
        / max(0.25, machine.dram_bandwidth_words_per_cycle)
    if wl.repeat > 1:
        for k in ('comp', 'fill', 'llcser', 'mimd'):
            feats[k] *= wl.repeat
    return feats


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def estimate_energy_pj(wl: Workload, machine: MachineConfig,
                       params: EnergyParams = EnergyParams()) -> float:
    """First-order on-chip energy from workload counts (repro.energy pJ).

    Mirrors the accounting rules of :mod:`repro.energy.model`: lanes in
    vector mode skip fetch/I-cache energy (instructions arrive over the
    inet), frame staging pays scratchpad writes+reads, and a w-wide
    vector load costs the LLC w words.
    """
    lanes = wl.lanes
    e = 0.0
    for p in wl.phases:
        if isinstance(p, VectorPhase):
            frames = p.tiles * p.frames_per_tile
            scalar_instrs = (frames * p.scalar_per_frame
                             + p.tiles * p.scalar_per_tile)
            mt_instrs = lanes * (frames * p.mt_per_frame
                                 + p.tiles * p.mt_per_tile)
            flops = lanes * frames * p.flops_per_frame
            frame_words = frames * p.frame_words * lanes
            stores = p.tiles * p.store_words_per_tile
            e += scalar_instrs * (params.frontend + params.icache
                                  + params.pipeline_base + params.int_alu)
            e += mt_instrs * (params.inet_forward + params.pipeline_base)
            e += flops * params.fp
            e += frame_words * (2 * params.spad_word + params.llc_word)
            e += stores * (params.llc_word + params.mem_unit)
            hops = (machine.mesh_width + machine.mesh_height) / 2.0
            e += (frame_words + stores) * hops * params.noc_word_hop
        else:
            instrs = p.items * p.instrs_per_item
            words = p.items * (p.loads_per_item + p.stores_per_item)
            e += instrs * (params.frontend + params.icache
                           + params.pipeline_base + params.int_alu)
            e += words * (params.llc_word + params.mem_unit)
    return e * wl.repeat   # pJ; DRAM is off-chip and excluded, as in Fig 10c


class AnalyticModel:
    """Per-kernel calibrated linear model over the closed-form features."""

    def __init__(self, coefficients: Optional[Dict[str, Dict[str, float]]]
                 = None,
                 energy_scale: Optional[Dict[str, float]] = None,
                 calibrated: bool = False, label: str = 'uncalibrated'):
        self.coefficients = coefficients or {}
        self.energy_scale = energy_scale or {}
        self.calibrated = calibrated
        self.label = label

    @classmethod
    def default(cls) -> 'AnalyticModel':
        return cls()

    @classmethod
    def from_calibration(cls, doc: dict) -> 'AnalyticModel':
        """Build from a validated ``CALIB_*.json`` document."""
        from .calibrate import validate_calib_report
        validate_calib_report(doc)
        return cls(coefficients=doc['coefficients'],
                   energy_scale=doc.get('energy_scale', {}),
                   calibrated=True, label=doc.get('label', 'calibrated'))

    def coeffs_for(self, bench_name: str) -> Dict[str, float]:
        return self.coefficients.get(bench_name, DEFAULT_COEFFS)

    def predict(self, bench_name: str, config_name: str,
                scale: str = 'test',
                machine: Optional[MachineConfig] = None,
                params_override: Optional[Dict[str, int]] = None,
                ) -> Prediction:
        """Predicted cycles/energy for one point — no simulation.

        Raises :class:`UnsupportedConfigError` for non-vector configs and
        :class:`InfeasiblePointError` for points the code generator would
        reject (callers treat those as holes in the design space).
        """
        cfg = _resolve_config(config_name)
        base = machine if machine is not None else DEFAULT_CONFIG
        eff_machine = cfg.machine(base)
        from ..kernels import registry
        bench = registry.make(bench_name)
        params = bench.params_for('test' if scale == 'test' else 'bench')
        if params_override:
            params.update(params_override)
        try:
            wl = build_workload(bench_name, params, eff_machine,
                                cfg.lanes, cfg.pcv)
        except WorkloadError as e:
            raise InfeasiblePointError(str(e))
        feats = compute_features(wl, eff_machine)
        coeffs = self.coeffs_for(bench_name)
        cycles = sum(coeffs.get(k, 0.0) * feats[k] for k in FEATURES)
        energy = estimate_energy_pj(wl, eff_machine) \
            * self.energy_scale.get(bench_name, 1.0)
        ngroups = eff_machine.num_cores // (cfg.lanes + 1)
        tiles_used = ngroups * (cfg.lanes + 1)
        calibrated = self.calibrated and bench_name in self.coefficients
        return Prediction(benchmark=bench_name, config=config_name,
                          cycles=float(cycles), energy_pj=float(energy),
                          tiles_used=tiles_used, features=feats,
                          calibrated=calibrated)
