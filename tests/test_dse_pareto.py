"""DSE: Pareto correctness, space enumeration, and the driver artifact."""

import json
import random

import pytest

from repro.dse import (DEFAULT_AXES, SMALL_AXES, DesignPoint, dominates,
                       dse_path, enumerate_space, frontier_specs,
                       load_dse_report, pareto_frontier, run_dse,
                       save_dse_report, space_size, triage_space,
                       validate_dse_report)
from repro.dse.driver import DseValidationError
from repro.jobs import ResultStore
from repro.model import AnalyticModel, FEATURES


class TestDominance:
    def test_strictly_better_dominates(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (2, 2))
        assert not dominates((2, 2), (1, 2))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((3, 3), (3, 3))

    def test_tradeoffs_do_not_dominate(self):
        assert not dominates((1, 5), (5, 1))
        assert not dominates((5, 1), (1, 5))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))


class TestFrontier:
    def test_hand_picked_frontier(self):
        pts = [(1, 9), (2, 8), (3, 9), (9, 1), (2, 9), (1, 9)]
        keep = pareto_frontier(pts)
        # (3,9) is dominated by (2,8); (2,9) by (2,8); the duplicate
        # (1,9)s are both kept (neither dominates the other)
        assert keep == [0, 1, 3, 5]

    def test_frontier_is_non_dominated_and_complete(self):
        rng = random.Random(7)
        pts = [(rng.randint(0, 50), rng.randint(0, 50),
                rng.randint(0, 50)) for _ in range(200)]
        keep = set(pareto_frontier(pts))
        for i in keep:   # no kept point dominated by any other point
            assert not any(dominates(pts[j], pts[i])
                           for j in range(len(pts)) if j != i)
        for i in range(len(pts)):   # every dropped point has a witness
            if i not in keep:
                assert any(dominates(pts[j], pts[i]) for j in keep)


def _all_pairs_frontier(objectives):
    """The O(n^2) definition the sort-based filter must equal."""
    n = len(objectives)
    return [i for i in range(n)
            if not any(j != i and dominates(objectives[j], objectives[i])
                       for j in range(n))]


INF, NAN = float('inf'), float('nan')


class TestFrontierEquivalence:
    @pytest.mark.parametrize('seed', range(8))
    def test_equals_all_pairs_definition(self, seed):
        rng = random.Random(seed)
        values = [0, 1, 2, 3, 0.5, -0.0, INF, -INF]
        for _ in range(300):
            n, k = rng.randint(0, 60), rng.randint(1, 4)
            pts = [tuple(rng.choice(values) for _ in range(k))
                   for _ in range(n)]
            if pts and rng.random() < 0.3:   # exact duplicates
                pts += [pts[rng.randrange(n)]] * rng.randint(1, 3)
                rng.shuffle(pts)
            assert pareto_frontier(pts) == _all_pairs_frontier(pts), pts

    def test_lists_and_tuples_mix(self):
        pts = [[1, 2], (0, 3), [2, 2], (1, 2)]
        assert pareto_frontier(pts) == _all_pairs_frontier(pts) \
            == [0, 1, 3]

    def test_nan_point_is_kept_and_dominates_nothing(self):
        pts = [(NAN, 0), (1, 1), (2, 2), (0, NAN), (NAN, NAN)]
        assert pareto_frontier(pts) == _all_pairs_frontier(pts) \
            == [0, 1, 3, 4]

    def test_nan_does_not_reorder_a_dominator_after_its_victim(self):
        # (2, 2) is dominated by (1, 1); a NaN that compares false both
        # ways must not let the sort put (1, 1) after it
        rng = random.Random(3)
        for _ in range(200):
            pts = [(1, 1), (2, 2)] + [
                tuple(rng.choice([NAN, 0, 1.5, 3]) for _ in range(2))
                for _ in range(rng.randint(1, 6))]
            rng.shuffle(pts)
            assert pareto_frontier(pts) == _all_pairs_frontier(pts), pts

    @pytest.mark.parametrize('pts', [
        [(1, 2), (1,)], [(1,), (2,), (1, 2, 3)], [(0, 0), (1, 1), (5,)]])
    def test_mixed_lengths_raise(self, pts):
        with pytest.raises(ValueError, match='differ in length'):
            pareto_frontier(pts)

    def test_empty_and_single(self):
        assert pareto_frontier([]) == []
        assert pareto_frontier([(1, 2, 3)]) == [0]


class TestSpace:
    def test_default_space_is_at_least_500_points(self):
        pts = list(enumerate_space(DEFAULT_AXES))
        assert len(pts) == space_size(DEFAULT_AXES) >= 500
        assert len(set(pts)) == len(pts)

    def test_point_roundtrip_and_machine(self):
        pt = DesignPoint('V4', 6, 8, 2, 2.0)
        assert DesignPoint.from_dict(pt.as_dict()) == pt
        m = pt.machine()
        assert (m.frame_counters, m.llc_banks, m.noc_width_words,
                m.dram_bandwidth_words_per_cycle) == (6, 8, 2, 2.0)
        spec = pt.spec('gemm', scale='test')
        assert spec.benchmark == 'gemm' and spec.config == 'V4'
        assert spec.machine_config().llc_banks == 8


def _unit_model():
    return AnalyticModel(
        coefficients={'gemm': {f: 1.0 for f in FEATURES}},
        calibrated=True, label='unit')


class TestDriver:
    def test_triage_covers_the_whole_space(self):
        feasible, infeasible = triage_space(_unit_model(), 'gemm',
                                            axes=SMALL_AXES)
        assert len(feasible) + len(infeasible) == space_size(SMALL_AXES)
        assert feasible

    def test_pure_triage_report(self, tmp_path):
        doc = run_dse(_unit_model(), 'gemm', axes=SMALL_AXES,
                      simulate=False, label='triage')
        validate_dse_report(doc)
        assert doc['triage']['n_simulated'] == 0
        assert doc['space']['n_space'] == space_size(SMALL_AXES)
        # frontier entries must be mutually non-dominated
        objs = [(e['predicted_cycles'], e['predicted_energy_pj'],
                 e['area']) for e in doc['frontier']]
        for i, a in enumerate(objs):
            assert not any(dominates(b, a)
                           for j, b in enumerate(objs) if j != i)
        path = dse_path('triage', str(tmp_path))
        assert path.endswith('DSE_triage.json')
        save_dse_report(doc, path)
        assert load_dse_report(path) == doc

    def test_simulated_frontier_report(self, tmp_path):
        store = ResultStore(tmp_path / 'store')
        doc = run_dse(_unit_model(), 'gemm', axes=SMALL_AXES,
                      simulate=True, store=store, label='sim')
        validate_dse_report(doc)
        t = doc['triage']
        assert t['n_simulated'] == t['n_frontier'] > 0
        assert t['n_sim_failed'] == 0
        # only the frontier was simulated: that is the whole point
        assert t['n_simulated'] < doc['space']['n_feasible']
        assert t['sim_reduction'] == pytest.approx(
            doc['space']['n_space'] / t['n_simulated'], rel=0.01)
        for e in doc['frontier']:
            assert e['simulated_cycles'] > 0
            assert e['sim_ape_pct'] >= 0
        # the figure hook round-trips frontier points into job specs
        specs = frontier_specs(doc)
        assert len(specs) == t['n_frontier']
        assert all(s.benchmark == 'gemm' for s in specs)
        # every frontier simulation is now cached: a re-run is free
        doc2 = run_dse(_unit_model(), 'gemm', axes=SMALL_AXES,
                       simulate=True, store=store, label='sim')
        assert doc2['triage']['workers_launched'] == 0

    def test_tampered_doc_is_rejected(self):
        doc = run_dse(_unit_model(), 'gemm', axes=SMALL_AXES,
                      simulate=False, label='bad')
        bad = json.loads(json.dumps(doc))
        bad['frontier'][0]['point'].pop('llc_banks')
        with pytest.raises(DseValidationError):
            validate_dse_report(bad)
