"""Design-space exploration: analytical triage, then simulate the frontier.

The driver evaluates every point of a config space with the calibrated
:class:`~repro.model.analytic.AnalyticModel` (microseconds per point),
extracts the Pareto frontier over (predicted cycles, predicted energy,
area proxy), and re-simulates *only* the frontier with the discrete
simulator through :mod:`repro.jobs` — content-addressed and resumable,
so a re-run after an interrupt costs nothing.  The result is a
schema-checked ``DSE_*.json``: the validated frontier with simulated
cycles next to the predictions, triage statistics (how many simulations
the model saved), and full provenance.

The area proxy charges one unit per occupied tile and folds in the
sized-up uncore (LLC banks, NoC link width, DRAM pin bandwidth) so that
"smaller fabric, nearly as fast" points survive on the frontier instead
of being dominated by the maxed-out machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..artifact import Artifact, ReportValidationError
from ..jobs.engine import SweepEngine
from ..jobs.spec import JobSpec
from ..manycore.config import DEFAULT_CONFIG, MachineConfig
from ..model.analytic import (AnalyticModel, ModelError, Prediction)
from ..model.calibrate import median
from .pareto import pareto_frontier
from .space import DEFAULT_AXES, DesignPoint, enumerate_space, space_size

DSE_SCHEMA_VERSION = 1
DSE_KIND = 'repro-dse-report'

#: Objective names, in vector order (all minimized).
OBJECTIVES: Tuple[str, ...] = ('cycles', 'energy', 'area')


class DseError(ValueError):
    """A design-space run could not produce a valid report."""


def area_proxy(point: DesignPoint, tiles_used: int) -> float:
    """Relative silicon cost: tiles plus the sized-up uncore."""
    return float(tiles_used + point.llc_banks
                 + 2 * point.noc_width_words + 2 * point.dram_bandwidth)


@dataclass
class TriagedPoint:
    """One feasible design point with its analytical evaluation."""

    point: DesignPoint
    prediction: Prediction

    @property
    def objectives(self) -> Tuple[float, float, float]:
        return (self.prediction.cycles, self.prediction.energy_pj,
                area_proxy(self.point, self.prediction.tiles_used))


def triage_space(model: AnalyticModel, benchmark: str,
                 axes: Dict[str, Sequence] = DEFAULT_AXES,
                 scale: str = 'test',
                 base: MachineConfig = DEFAULT_CONFIG,
                 ) -> Tuple[List[TriagedPoint], List[Tuple[DesignPoint, str]]]:
    """Predict every point analytically; no simulation.

    Returns ``(feasible, infeasible)`` where infeasible points carry the
    reason the code generator would reject them.
    """
    feasible: List[TriagedPoint] = []
    infeasible: List[Tuple[DesignPoint, str]] = []
    for pt in enumerate_space(axes):
        try:
            pred = model.predict(benchmark, pt.config, scale=scale,
                                 machine=pt.machine(base))
        except ModelError as e:
            infeasible.append((pt, str(e)))
            continue
        feasible.append(TriagedPoint(pt, pred))
    return feasible, infeasible


def run_dse(model: AnalyticModel, benchmark: str,
            axes: Dict[str, Sequence] = DEFAULT_AXES,
            scale: str = 'test',
            base: MachineConfig = DEFAULT_CONFIG,
            simulate: bool = True,
            jobs: int = 1, store=None, timeout: Optional[float] = None,
            use_cache: bool = True,
            label: str = 'local',
            progress: Optional[Callable] = None,
            log: Callable[[str], None] = lambda s: None) -> dict:
    """Triage the space, simulate the frontier, emit the DSE document."""
    n_space = space_size(axes)
    feasible, infeasible = triage_space(model, benchmark, axes=axes,
                                        scale=scale, base=base)
    if not feasible:
        first = f'; first: {infeasible[0][1]}' if infeasible else ''
        raise DseError(f'no feasible point in the {n_space}-point space '
                       f'for {benchmark}{first}')
    log(f'triage: {len(feasible)} feasible / {n_space} point(s) '
        f'({len(infeasible)} infeasible) evaluated analytically')

    idx = pareto_frontier([tp.objectives for tp in feasible])
    frontier = [feasible[i] for i in idx]
    frontier.sort(key=lambda tp: tp.objectives)
    log(f'pareto frontier: {len(frontier)} point(s) over '
        f'(cycles, energy, area)')

    sim_by_key: Dict[str, object] = {}
    launched = 0
    n_sim_failed = 0
    if simulate:
        specs = [tp.point.spec(benchmark, scale=scale, base=base)
                 for tp in frontier]
        engine = SweepEngine(jobs=jobs, timeout=timeout, store=store,
                             use_cache=use_cache, progress=progress)
        outcomes = engine.execute(specs)
        launched = engine.launched
        for o in outcomes:
            if o.ok:
                sim_by_key[o.key] = o.result
            else:
                n_sim_failed += 1
                reason = (o.error.strip().splitlines()[-1]
                          if o.error else o.status)
                log(f'frontier simulation {o.status}: {o.spec.label()}: '
                    f'{reason}')

    entries: List[dict] = []
    apes: List[float] = []
    for tp in frontier:
        cyc, energy, area = tp.objectives
        entry = {
            'point': tp.point.as_dict(),
            'predicted_cycles': round(cyc, 3),
            'predicted_energy_pj': round(energy, 3),
            'area': round(area, 3),
            'tiles_used': tp.prediction.tiles_used,
        }
        if simulate:
            key = tp.point.spec(benchmark, scale=scale, base=base).key()
            result = sim_by_key.get(key)
            if result is not None:
                actual = int(result.cycles)
                ape = (abs(cyc - actual) / actual * 100.0 if actual
                       else 0.0)
                entry['simulated_cycles'] = actual
                entry['sim_ape_pct'] = round(ape, 3)
                apes.append(ape)
        entries.append(entry)

    n_simulated = len(apes) + n_sim_failed if simulate else 0
    return build_dse_report(
        benchmark=benchmark, scale=scale, label=label,
        axes={k: list(v) for k, v in axes.items()},
        space={'n_space': n_space, 'n_feasible': len(feasible),
               'n_infeasible': len(infeasible)},
        triage={'n_space': n_space, 'n_frontier': len(frontier),
                'n_simulated': n_simulated,
                'n_sim_failed': n_sim_failed,
                'workers_launched': launched,
                'sim_reduction': round(n_space / n_simulated, 2)
                if n_simulated else 0.0},
        validation={'n_points': len(apes),
                    'median_ape_pct': round(median(apes), 3),
                    'worst_ape_pct': round(max(apes), 3) if apes else 0.0},
        frontier=entries,
        calibration={'label': model.label,
                     'calibrated': bool(model.calibrated)})


# ------------------------------------------------------------------- artifact
_BODY_SCHEMA = {
    'required': ['benchmark', 'scale', 'calibration', 'axes', 'space',
                 'triage', 'validation', 'frontier'],
    'properties': {
        'benchmark': {'type': 'string'},
        'scale': {'type': 'string'},
        'calibration': {
            'type': 'object',
            'required': ['label', 'calibrated'],
            'properties': {
                'label': {'type': 'string'},
                'calibrated': {'type': 'boolean'},
            },
        },
        'axes': {'type': 'object'},
        'space': {
            'type': 'object',
            'required': ['n_space', 'n_feasible', 'n_infeasible'],
            'properties': {
                'n_space': {'type': 'integer', 'minimum': 0},
                'n_feasible': {'type': 'integer', 'minimum': 0},
                'n_infeasible': {'type': 'integer', 'minimum': 0},
            },
        },
        'triage': {
            'type': 'object',
            'required': ['n_space', 'n_frontier', 'n_simulated',
                         'sim_reduction'],
            'properties': {
                'n_space': {'type': 'integer', 'minimum': 0},
                'n_frontier': {'type': 'integer', 'minimum': 0},
                'n_simulated': {'type': 'integer', 'minimum': 0},
                'n_sim_failed': {'type': 'integer', 'minimum': 0},
                'workers_launched': {'type': 'integer', 'minimum': 0},
                'sim_reduction': {'type': 'number', 'minimum': 0},
            },
        },
        'validation': {
            'type': 'object',
            'required': ['n_points', 'median_ape_pct', 'worst_ape_pct'],
            'properties': {
                'n_points': {'type': 'integer', 'minimum': 0},
                'median_ape_pct': {'type': 'number', 'minimum': 0},
                'worst_ape_pct': {'type': 'number', 'minimum': 0},
            },
        },
        'frontier': {
            'type': 'array',
            'items': {
                'type': 'object',
                'required': ['point', 'predicted_cycles',
                             'predicted_energy_pj', 'area', 'tiles_used'],
                'properties': {
                    'point': {
                        'type': 'object',
                        'required': ['config', 'frame_counters',
                                     'llc_banks', 'noc_width_words',
                                     'dram_bandwidth'],
                        'properties': {
                            'config': {'type': 'string'},
                            'frame_counters': {'type': 'integer',
                                               'minimum': 1},
                            'llc_banks': {'type': 'integer', 'minimum': 1},
                            'noc_width_words': {'type': 'integer',
                                                'minimum': 1},
                            'dram_bandwidth': {'type': 'number',
                                               'minimum': 0},
                        },
                    },
                    'predicted_cycles': {'type': 'number', 'minimum': 0},
                    'predicted_energy_pj': {'type': 'number',
                                            'minimum': 0},
                    'area': {'type': 'number', 'minimum': 0},
                    'tiles_used': {'type': 'integer', 'minimum': 0},
                    'simulated_cycles': {'type': 'integer', 'minimum': 0},
                    'sim_ape_pct': {'type': 'number', 'minimum': 0},
                },
            },
        },
    },
}


def build_dse_report(benchmark: str, scale: str, label: str, axes: dict,
                     space: dict, triage: dict, validation: dict,
                     frontier: List[dict], calibration: dict) -> dict:
    return DSE_REPORT.stamp({
        'benchmark': benchmark,
        'scale': scale,
        'calibration': calibration,
        'axes': axes,
        'space': space,
        'triage': triage,
        'validation': validation,
        'frontier': frontier,
    }, label=label)


def frontier_specs(doc: dict, base: MachineConfig = DEFAULT_CONFIG,
                   ) -> List[JobSpec]:
    """Figure-planner hook: the frontier as ready-to-run job specs.

    Feed these to a :class:`~repro.jobs.engine.SweepEngine` (or
    ``repro sweep``-style tooling) to regenerate or extend the frontier
    measurements — e.g. to plot simulated cycles-vs-area from the store.
    """
    return [DesignPoint.from_dict(e['point']).spec(
        doc['benchmark'], scale=doc['scale'], base=base)
        for e in doc['frontier']]


def render_dse_report(doc: dict) -> str:
    t, s, v = doc['triage'], doc['space'], doc['validation']
    prov = doc['provenance']
    cal = doc['calibration']
    lines = [
        f"dse {doc['label']}: {doc['benchmark']} @{doc['scale']} "
        f"(model: {cal['label']}"
        f"{'' if cal['calibrated'] else ', UNCALIBRATED'}; "
        f"code v{prov['code_version']} "
        f"[{prov['code_version_hash'][:8]}])",
        f"  space   {s['n_space']} point(s): {s['n_feasible']} feasible, "
        f"{s['n_infeasible']} infeasible",
        f"  triage  frontier {t['n_frontier']} | simulated "
        f"{t['n_simulated']} | reduction {t['sim_reduction']:g}x",
    ]
    if v['n_points']:
        lines.append(f"  check   frontier model error: median "
                     f"{v['median_ape_pct']:.1f}%, worst "
                     f"{v['worst_ape_pct']:.1f}% over {v['n_points']} "
                     f"simulated point(s)")
    lines.append(f"  {'config':10s} {'fc':>3s} {'banks':>5s} {'noc':>4s} "
                 f"{'dram':>5s} {'area':>7s} {'pred-cyc':>10s} "
                 f"{'sim-cyc':>9s} {'ape':>6s}")
    for e in doc['frontier']:
        p = e['point']
        sim = (f"{e['simulated_cycles']:>9d}"
               if 'simulated_cycles' in e else f"{'-':>9s}")
        ape = (f"{e['sim_ape_pct']:5.1f}%"
               if 'sim_ape_pct' in e else f"{'-':>6s}")
        lines.append(
            f"  {p['config']:10s} {p['frame_counters']:>3d} "
            f"{p['llc_banks']:>5d} {p['noc_width_words']:>4d} "
            f"{p['dram_bandwidth']:>5g} {e['area']:>7.1f} "
            f"{e['predicted_cycles']:>10.1f} {sim} {ape}")
    return '\n'.join(lines)


DSE_REPORT = Artifact(DSE_KIND, DSE_SCHEMA_VERSION, _BODY_SCHEMA,
                      render_dse_report, file_prefix='DSE')
DseValidationError = ReportValidationError
validate_dse_report = DSE_REPORT.validate
dse_path = DSE_REPORT.path
save_dse_report = DSE_REPORT.save
load_dse_report = DSE_REPORT.load
