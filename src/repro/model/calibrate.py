"""Calibrate the analytical model against discrete-simulator ground truth.

The calibration suite sweeps each modeled kernel over a grid varying
group size (named vector configs), frame-counter depth and LLC bank
count; ground truth comes from a :mod:`repro.jobs` sweep, so it is
content-addressed, resumable, and ~free to re-run.  Per-kernel
coefficients are fitted by non-negative least squares over the
closed-form feature vectors, and the result — coefficients, per-kernel
median/worst absolute percentage error, every calibration point, and
code-version/machine-hash provenance — lands in a schema-checked
``CALIB_*.json`` so model drift is gated like any other regression.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..artifact import Artifact, ReportValidationError
from ..harness.configs import CONFIGS
from ..jobs.spec import JobSpec
from ..manycore.config import DEFAULT_CONFIG, MachineConfig
from .analytic import (FEATURES, ModelError, compute_features,
                       estimate_energy_pj)
from .workload import build_workload

CALIB_SCHEMA_VERSION = 1
CALIB_KIND = 'repro-calib-report'

#: One kernel per template family is the minimum; the default suite
#: covers all three families with depth.
DEFAULT_KERNELS: Tuple[str, ...] = ('gemm', 'syrk', 'mvt', 'atax',
                                    'gesummv', '2dconv', 'fdtd-2d')
SMOKE_KERNELS: Tuple[str, ...] = ('gemm', 'mvt', '2dconv')

DEFAULT_CONFIGS: Tuple[str, ...] = ('V4', 'V16')
DEFAULT_DEPTHS: Tuple[int, ...] = (4, 5, 8)
DEFAULT_BANKS: Tuple[int, ...] = (4, 16)
#: One-factor-at-a-time excursions so the fit sees the marginal
#: sensitivity of the NoC-width and DRAM-bandwidth knobs — without them
#: those features are constant across the grid and the fitted
#: coefficients extrapolate badly during DSE.
DEFAULT_NOCS: Tuple[int, ...] = (2, 8)
DEFAULT_DRAMS: Tuple[float, ...] = (2.0, 8.0)


# ------------------------------------------------------------------- planning
def calibration_specs(kernels: Sequence[str] = DEFAULT_KERNELS,
                      scale: str = 'test',
                      configs: Sequence[str] = DEFAULT_CONFIGS,
                      depths: Sequence[int] = DEFAULT_DEPTHS,
                      banks: Sequence[int] = DEFAULT_BANKS,
                      nocs: Sequence[int] = DEFAULT_NOCS,
                      drams: Sequence[float] = DEFAULT_DRAMS,
                      base_machine: MachineConfig = DEFAULT_CONFIG,
                      ) -> List[JobSpec]:
    """The ground-truth job set: a kernels x configs x depths x banks
    grid plus per-config NoC-width and DRAM-bandwidth excursions."""
    for c in configs:
        if c not in CONFIGS or CONFIGS[c].kind != 'vector':
            raise ValueError(f'calibration config {c!r} must be a concrete '
                             f'vector config')
    specs = []
    for k in kernels:
        for cfg_name in configs:
            for d in depths:
                for b in banks:
                    machine = base_machine.scaled(frame_counters=d,
                                                  llc_banks=b)
                    specs.append(JobSpec.make(k, cfg_name, scale=scale,
                                              machine=machine))
            for noc in nocs:
                machine = base_machine.scaled(noc_width_words=noc)
                specs.append(JobSpec.make(k, cfg_name, scale=scale,
                                          machine=machine))
            for dram in drams:
                machine = base_machine.scaled(
                    dram_bandwidth_words_per_cycle=dram)
                specs.append(JobSpec.make(k, cfg_name, scale=scale,
                                          machine=machine))
    return specs


# -------------------------------------------------------------------- fitting
def fit_coefficients(X: Sequence[Sequence[float]],
                     y: Sequence[float]) -> List[float]:
    """Non-negative least squares via iterated clip-and-refit.

    Solves ordinary least squares on the active feature set, drops the
    most negative coefficient while any is negative, and refits.
    Deterministic: same inputs give bit-identical coefficients.
    """
    import numpy as np
    Xa = np.asarray(X, dtype=float)
    ya = np.asarray(y, dtype=float)
    n_feat = Xa.shape[1]
    active = list(range(n_feat))
    coeffs = np.zeros(n_feat)
    while active:
        sol, *_ = np.linalg.lstsq(Xa[:, active], ya, rcond=None)
        if (sol >= 0).all():
            for idx, v in zip(active, sol):
                coeffs[idx] = v
            break
        worst = int(np.argmin(sol))
        active.pop(worst)
    return [float(v) for v in coeffs]


def _ape(predicted: float, actual: float) -> float:
    """Absolute percentage error, in percent."""
    if actual == 0:
        return 0.0 if predicted == 0 else 100.0
    return abs(predicted - actual) / abs(actual) * 100.0


def median(values: Sequence[float]) -> float:
    vs = sorted(values)
    n = len(vs)
    if not n:
        return 0.0
    mid = n // 2
    return vs[mid] if n % 2 else (vs[mid - 1] + vs[mid]) / 2.0


# ---------------------------------------------------------------- calibration
def run_calibration(outcomes, label: str = 'local',
                    suite: Optional[dict] = None) -> dict:
    """Fit coefficients from sweep outcomes; returns the CALIB document.

    ``outcomes`` are the :class:`~repro.jobs.engine.JobOutcome`\\ s of a
    :func:`calibration_specs` sweep.  Failed outcomes raise — a
    calibration over partial ground truth would silently skew the fit.
    """
    bad = [o for o in outcomes if not o.ok]
    if bad:
        raise ModelError(
            f'{len(bad)} calibration job(s) failed; first: '
            f'{bad[0].spec.label()}: {bad[0].error.strip().splitlines()[-1] if bad[0].error else bad[0].status}')
    per_kernel: Dict[str, List[Tuple[JobSpec, object]]] = {}
    for o in outcomes:
        per_kernel.setdefault(o.spec.benchmark, []).append((o.spec, o.result))

    coefficients: Dict[str, Dict[str, float]] = {}
    energy_scale: Dict[str, float] = {}
    errors: Dict[str, dict] = {}
    points: List[dict] = []
    all_apes: List[float] = []
    for kernel in sorted(per_kernel):
        rows: List[List[float]] = []
        cycles: List[float] = []
        metas = []
        for spec, result in per_kernel[kernel]:
            machine = _spec_machine(spec)
            cfg = CONFIGS[spec.config]
            eff = cfg.machine(machine)
            wl = build_workload(kernel, _spec_params(spec), eff,
                                cfg.lanes, cfg.pcv)
            feats = compute_features(wl, eff)
            rows.append([feats[f] for f in FEATURES])
            cycles.append(float(result.cycles))
            metas.append((spec, result, feats, wl, eff))
        coeffs = fit_coefficients(rows, cycles)
        coefficients[kernel] = {f: c for f, c in zip(FEATURES, coeffs)}
        ratios = []
        apes = []
        for (spec, result, feats, wl, eff), row, actual in \
                zip(metas, rows, cycles):
            predicted = sum(c * v for c, v in zip(coeffs, row))
            ape = _ape(predicted, actual)
            apes.append(ape)
            all_apes.append(ape)
            pred_e = estimate_energy_pj(wl, eff)
            sim_e = getattr(result, 'energy', None)
            if pred_e > 0 and sim_e is not None:
                ratios.append(sim_e.on_chip_total / pred_e)
            points.append({
                'benchmark': kernel,
                'config': spec.config,
                'machine': {'frame_counters': eff.frame_counters,
                            'llc_banks': eff.llc_banks,
                            'noc_width_words': eff.noc_width_words},
                'simulated_cycles': int(actual),
                'predicted_cycles': round(float(predicted), 3),
                'ape_pct': round(ape, 3),
            })
        energy_scale[kernel] = round(median(ratios), 6) if ratios else 1.0
        errors[kernel] = {
            'n_points': len(apes),
            'median_ape_pct': round(median(apes), 3),
            'worst_ape_pct': round(max(apes), 3) if apes else 0.0,
        }
    doc = build_calib_report(
        coefficients=coefficients, energy_scale=energy_scale,
        errors=errors, points=points,
        overall={'n_points': len(all_apes),
                 'median_ape_pct': round(median(all_apes), 3),
                 'worst_ape_pct': round(max(all_apes), 3) if all_apes
                 else 0.0},
        label=label, suite=suite or {})
    return doc


def _spec_machine(spec: JobSpec) -> MachineConfig:
    m = spec.machine_config()
    return m if m is not None else DEFAULT_CONFIG


def _spec_params(spec: JobSpec) -> Dict[str, int]:
    from ..kernels import registry
    bench = registry.make(spec.benchmark)
    params = bench.params_for('test' if spec.scale == 'test' else 'bench')
    params.update(spec.params_dict())
    return params


# ------------------------------------------------------------------- artifact
_BODY_SCHEMA = {
    'required': ['suite', 'coefficients', 'energy_scale', 'errors',
                 'overall', 'points'],
    'properties': {
        'suite': {'type': 'object'},
        'coefficients': {'type': 'object'},
        'energy_scale': {'type': 'object'},
        'errors': {'type': 'object'},
        'overall': {
            'type': 'object',
            'required': ['n_points', 'median_ape_pct', 'worst_ape_pct'],
            'properties': {
                'n_points': {'type': 'integer', 'minimum': 0},
                'median_ape_pct': {'type': 'number', 'minimum': 0},
                'worst_ape_pct': {'type': 'number', 'minimum': 0},
            },
        },
        'points': {
            'type': 'array',
            'items': {
                'type': 'object',
                'required': ['benchmark', 'config', 'machine',
                             'simulated_cycles', 'predicted_cycles',
                             'ape_pct'],
                'properties': {
                    'benchmark': {'type': 'string'},
                    'config': {'type': 'string'},
                    'machine': {'type': 'object'},
                    'simulated_cycles': {'type': 'integer', 'minimum': 0},
                    'predicted_cycles': {'type': 'number', 'minimum': 0},
                    'ape_pct': {'type': 'number', 'minimum': 0},
                },
            },
        },
    },
}


def _check_features(doc: dict) -> None:
    """Every kernel's coefficient row names every model feature."""
    for kernel, coeffs in doc['coefficients'].items():
        missing = [f for f in FEATURES if f not in coeffs]
        if missing:
            raise ReportValidationError(
                f'coefficients[{kernel}] missing feature(s): '
                f'{", ".join(missing)}')


def build_calib_report(coefficients: dict, energy_scale: dict, errors: dict,
                       overall: dict, points: List[dict],
                       label: str = 'local',
                       suite: Optional[dict] = None) -> dict:
    return CALIB_REPORT.stamp({
        'suite': suite or {},
        'coefficients': coefficients,
        'energy_scale': energy_scale,
        'errors': errors,
        'overall': overall,
        'points': points,
    }, label=label)


def render_calib_report(doc: dict) -> str:
    prov = doc['provenance']
    lines = [
        f"calibration {doc['label']} "
        f"(code v{prov['code_version']} "
        f"[{prov['code_version_hash'][:8]}], "
        f"machine {prov['machine_hash'][:8]})",
        f"  {doc['overall']['n_points']} point(s), "
        f"median APE {doc['overall']['median_ape_pct']:.1f}%, "
        f"worst {doc['overall']['worst_ape_pct']:.1f}%",
    ]
    for kernel in sorted(doc['errors']):
        e = doc['errors'][kernel]
        lines.append(f"  {kernel:10s} n={e['n_points']:<3d} "
                     f"median {e['median_ape_pct']:6.1f}%  "
                     f"worst {e['worst_ape_pct']:6.1f}%")
    return '\n'.join(lines)


CALIB_REPORT = Artifact(CALIB_KIND, CALIB_SCHEMA_VERSION, _BODY_SCHEMA,
                        render_calib_report, check=_check_features,
                        file_prefix='CALIB')
CalibValidationError = ReportValidationError
validate_calib_report = CALIB_REPORT.validate
calib_path = CALIB_REPORT.path
save_calib_report = CALIB_REPORT.save
load_calib_report = CALIB_REPORT.load
