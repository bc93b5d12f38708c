"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show available benchmarks and configurations.
``run BENCH CONFIG [--scale test|bench] [--report OUT.json]
[--trace OUT.json]``
    Simulate one point, verify against numpy, print cycles/energy.
    ``--report`` enables telemetry and writes the schema-checked run
    report; ``--trace`` writes a Perfetto-loadable Chrome trace.
``figure NAME [--jobs N] [--store DIR]``
    Regenerate one paper figure (fig10a, fig10b, fig10c, fig11, fig14a,
    fig15c, fig16, fig17a, bfs).  ``--jobs`` farms the points across a
    worker pool first; ``--store`` persists results across runs.
``experiment FILE.json [--jobs N] [--store DIR]``
    Run a JSON experiment description (see harness/experiments.py and
    examples/experiments/).
``sweep NAME... [--jobs N] [--resume] [--no-cache]``
    Execute the job sets of several figures as one resumable manifest
    against the persistent result store (see docs/sweeps.md).
``serve [TRACE.json] [--seed N --requests N] [--report OUT.json]``
    Replay a kernel-request trace on one multi-tenant fabric: requests
    are queued, placed by the region allocator, run as concurrent vector
    groups, and verified against numpy.  Omitting the trace file
    generates a deterministic seeded trace; ``--report`` writes the
    schema-checked serving report, ``--perfetto`` an annotated Chrome
    trace, ``--metrics-out`` JSONL metric snapshots, ``--heatmaps``
    ASCII congestion maps, and ``--slo`` evaluates a threshold policy
    (exit 2 on fail).  Exits nonzero if any request failed (see
    docs/serving.md and docs/observability.md).
``top [TRACE.json]``
    Serve a trace with the live terminal dashboard attached: fleet
    summary, in-flight request table, and congestion heatmaps refreshed
    every ``--refresh`` simulated cycles.
``fleet [TRACE.json] [--shards N --autoscale POLICY --slo POLICY]``
    Run a sharded fabric fleet under open-loop traffic: N shards in
    parallel worker processes behind a join-shortest-queue router with
    request affinity, admission control, SLO-driven autoscaling with
    graceful drain, and crash re-routing (``--crash SHARD@EPOCH``
    injects a real worker kill).  ``--report`` writes the cross-shard
    fleet report (schema- and conservation-checked), ``--metrics-out``
    per-epoch JSONL snapshots; ``--slo`` evaluates a threshold policy
    against the fleet summary.  Exit codes follow ``serve``: 1 on
    failed/timed-out requests, 2 on SLO fail or invalid policy (see
    docs/fleet.md).
``report FILE.json``
    Validate any ``repro-*`` artifact (run, serve, fleet, sweep,
    calibration, DSE, post-mortem) against its schema and print that
    kind's summary; ``dse report`` and ``postmortem validate|dump`` are
    aliases.
``compare A.json B.json [--threshold 0.02]``
    Diff two run reports; exits nonzero when B regresses cycles (or any
    stall cause) beyond the threshold.
``dse calibrate|explore|predict|report``
    The analytical fast-path (docs/dse.md): fit the closed-form model's
    per-kernel coefficients against discrete-simulator ground truth
    (resumable `repro.jobs` sweep; schema-checked ``CALIB_*.json``;
    ``--max-mape`` gates model drift with exit 2), triage a multi-hundred
    point config space in closed form and re-simulate only the Pareto
    frontier (``DSE_*.json``), predict single points, or validate and
    render either artifact.
``version``
    Print the package version plus the code-version salt (and its
    hash) used for ResultStore keys, so provenance records can be
    cross-checked from the shell.

Exit codes for all commands are documented in one place: docs/cli.md.
"""

from __future__ import annotations

import argparse
import sys


class _Exit(Exception):
    """Unwinds a command: ``main`` prints the line to stderr and returns
    the code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _loaded(load, path, what='report'):
    """``load(path)``; an invalid artifact file is exit 1, one line."""
    from .artifact import ReportValidationError
    try:
        return load(path)
    except ReportValidationError as exc:
        raise _Exit(1, f'invalid {what}: {exc}') from None


def _save_report(doc, path):
    from .artifact import REGISTRY
    REGISTRY[doc['kind']].save(doc, path)


def _load_slo_policy(path):
    """The ``--slo`` policy (None without the flag); exit 2 if invalid."""
    if not path:
        return None
    from .observe import SloPolicy
    try:
        return SloPolicy.load(path)
    except (OSError, ValueError) as exc:
        raise _Exit(2, f'{path}: invalid SLO policy: {exc}') from None


def cmd_list(args):
    from .harness.configs import CONFIGS, META_CONFIGS
    from .kernels import registry
    print('benchmarks:')
    for cls in registry.ALL:
        b = cls()
        print(f'  {b.name:10s} bench={b.bench_params}')
    print('configurations:')
    for name in CONFIGS:
        print(f'  {name}')
    for name in META_CONFIGS:
        print(f'  {name} (meta)')
    return 0


def _check_point(benchmark, config):
    """A benchmark or configuration name nobody registered is exit 1,
    one line."""
    from .harness.configs import CONFIGS, META_CONFIGS
    from .kernels.registry import BY_NAME
    for what, name, names in (('benchmark', benchmark, BY_NAME),
                              ('configuration', config,
                               (*CONFIGS, *META_CONFIGS))):
        if name not in names:
            raise _Exit(1, f'unknown {what} {name!r} '
                           f'(known: {", ".join(names)})')


def cmd_run(args):
    from .harness import run_benchmark
    from .kernels import registry
    _check_point(args.benchmark, args.config)
    bench = registry.make(args.benchmark)
    params = bench.params_for(args.scale)
    telemetry = tracer = profiler = None
    if args.report or args.trace:
        from .telemetry import Telemetry
        telemetry = Telemetry(interval=args.sample_interval,
                              per_core_samples=args.per_core_samples)
    if args.trace:
        from .manycore import Tracer
        tracer = Tracer(limit=args.trace_limit)
    if args.self_profile or args.flamegraph or args.deep_profile:
        from .perf import HostProfiler
        profiler = HostProfiler(deep=args.deep_profile)
    r = run_benchmark(bench, args.config, params, telemetry=telemetry,
                      tracer=tracer, profiler=profiler)
    print(f'{bench.name} / {r.config}  params={params}')
    print(f'  cycles        {r.cycles}')
    print(f'  instructions  {r.instrs}')
    print(f'  icache        {r.icache_accesses}')
    if r.energy is not None:
        print(f'  energy        {r.energy.on_chip_total / 1e6:.3f} uJ '
              f'on-chip (+{r.energy.dram / 1e6:.3f} uJ DRAM)')
    print('  verified against the numpy reference')
    if args.report:
        r.to_json(args.report)
        print(f'  report        {args.report} (schema-valid)')
    if args.trace:
        from .spans import to_chrome_trace, write_trace
        doc = write_trace(to_chrome_trace(tracer=tracer,
                                          telemetry=telemetry), args.trace)
        print(f'  trace         {args.trace} '
              f'({len(doc["traceEvents"])} events; load in '
              f'ui.perfetto.dev)')
    if profiler is not None:
        print(profiler.render())
        if args.deep_profile:
            print(profiler.render_top())
        if args.flamegraph:
            profiler.write_collapsed(args.flamegraph)
            print(f'  flamegraph    {args.flamegraph} (collapsed stacks; '
                  f'feed to flamegraph.pl or speedscope)')
    return 0


def cmd_version(args):
    from . import __version__
    from .jobs.spec import CODE_VERSION, code_version_hash, machine_hash
    from .manycore import DEFAULT_CONFIG
    print(f'repro {__version__}')
    print(f'  code-version salt   {CODE_VERSION} '
          f'(hash {code_version_hash()})')
    print(f'  default machine     {machine_hash(DEFAULT_CONFIG)}')
    return 0


def cmd_serve(args):
    from .manycore import Fabric
    from .serve import (FAILED, ServeScheduler, build_serve_report,
                        generate_trace, load_trace, render_serve_report,
                        save_trace, store_serve_report)
    if args.trace_file:
        requests = load_trace(args.trace_file)
        seed = None
    else:
        requests = generate_trace(
            seed=args.seed, n_requests=args.requests, scale=args.scale,
            mean_interarrival=args.mean_interarrival, timeout=args.timeout)
        seed = args.seed
    if args.save_trace:
        save_trace(args.save_trace, requests)
        print(f'trace: {args.save_trace} ({len(requests)} requests)')
    policy = _load_slo_policy(args.slo)
    plane = None
    if args.metrics_out or args.heatmaps:
        from .observe import ObservePlane
        plane = ObservePlane(interval=args.snapshot_interval,
                             metrics_out=args.metrics_out)
    fabric = Fabric()
    if plane is not None:
        plane.attach(fabric)
    result = ServeScheduler(fabric, verify=not args.no_verify).run(requests)
    doc = build_serve_report(result, seed=seed, slo=policy, observe=plane)
    print(render_serve_report(doc))
    if args.metrics_out:
        print(f'metrics: {args.metrics_out} '
              f'({plane.snapshots} JSONL snapshots)')
    if args.heatmaps:
        print(plane.render_heatmaps())
    if args.report:
        _save_report(doc, args.report)
        print(f'report: {args.report} (schema-valid)')
    if args.store:
        from .jobs import ResultStore
        key = store_serve_report(ResultStore(args.store), doc)
        print(f'stored: {args.store}/{key}.json')
    if args.perfetto:
        from .spans import to_chrome_trace, write_trace
        tdoc = write_trace(to_chrome_trace(fabric=fabric,
                                           spans=result.spans),
                           args.perfetto)
        print(f'perfetto trace: {args.perfetto} '
              f'({len(tdoc["traceEvents"])} events)')
    failed = [r for r in result.requests if r.state == FAILED]
    if failed:
        for r in failed:
            print(f'request {r.req_id} ({r.kernel}) FAILED: {r.error}',
                  file=sys.stderr)
        return 1
    if doc.get('slo', {}).get('status') == 'fail':
        print('SLO: FAIL', file=sys.stderr)
        return 2
    return 0


def cmd_fleet(args):
    import json
    from .fleet import (AutoscalePolicy, Autoscaler, FleetConfig,
                        FleetRouter, build_fleet_report,
                        render_fleet_report)
    from .serve import load_trace, open_loop_trace
    autoscaler = None
    if args.autoscale:
        try:
            policy = (AutoscalePolicy() if args.autoscale == 'default'
                      else AutoscalePolicy.load(args.autoscale))
        except (OSError, TypeError, ValueError,
                json.JSONDecodeError) as exc:
            print(f'{args.autoscale}: invalid autoscale policy: {exc}',
                  file=sys.stderr)
            return 2
        autoscaler = Autoscaler(policy)
    slo_policy = _load_slo_policy(args.slo)
    crashes = []
    for spec in args.crash or ():
        try:
            shard_s, _, epoch_s = spec.partition('@')
            crashes.append((int(shard_s), int(epoch_s)))
        except ValueError:
            print(f'--crash wants SHARD@EPOCH, got {spec!r}',
                  file=sys.stderr)
            return 2
    if args.trace_file:
        trace = load_trace(args.trace_file)
        seed = pattern = None
    else:
        trace = open_loop_trace(
            seed=args.seed, n_requests=args.requests,
            pattern=args.pattern, scale=args.scale,
            mean_interarrival=args.mean_interarrival,
            timeout=args.timeout)
        seed, pattern = args.seed, args.pattern
    import os
    flight = None
    if args.flight:
        from .flight import FleetFlight
        os.makedirs(args.flight, exist_ok=True)
        flight = FleetFlight(label=args.flight_label, out_dir=args.flight,
                             ring_capacity=args.flight_ring)
    if args.shard_metrics_dir:
        os.makedirs(args.shard_metrics_dir, exist_ok=True)
    cfg = FleetConfig(
        shards=args.shards, epoch_cycles=args.epoch_cycles,
        shard_queue_cap=args.shard_queue_cap, max_queue=args.max_queue,
        affinity=not args.no_affinity, verify=not args.no_verify,
        workers=args.workers, timeout=args.worker_timeout,
        crashes=tuple(crashes), shard_metrics_dir=args.shard_metrics_dir,
        snapshot_interval=args.snapshot_interval)
    router = FleetRouter(cfg, autoscaler=autoscaler, flight=flight)
    result = router.run(iter(trace))
    doc = build_fleet_report(result, pattern=pattern, seed=seed,
                             slo=slo_policy)
    print(render_fleet_report(doc))
    if flight is not None:
        slo_doc = doc.get('slo')
        if slo_doc:
            flight.on_slo(slo_doc['status'], result.final_cycle,
                          detail='fleet-summary SLO evaluation')
            if slo_doc['status'] == 'fail':
                broken = ', '.join(
                    r['metric'] for r in slo_doc.get('rules', ())
                    if r.get('status') == 'fail')
                flight.dump_postmortem(
                    'slo_fail', f'SLO failed on: {broken or "?"}',
                    result.final_cycle)
        journal = flight.write_journal()
        print(f'flight journal: {journal} '
              f'({len(flight.spans)} spans, '
              f'{len(flight.detector.anomalies)} anomalies)')
        for pm in flight.postmortems:
            print(f'post-mortem [{pm["trigger"]}]: {pm["path"]}')
    if args.metrics_out:
        with open(args.metrics_out, 'w') as f:
            for row in result.epoch_log:
                f.write(json.dumps(row) + '\n')
        print(f'metrics: {args.metrics_out} '
              f'({len(result.epoch_log)} epoch snapshots)')
    if args.report:
        _save_report(doc, args.report)
        print(f'report: {args.report} (schema-valid, '
              f'conservation-checked)')
    s = doc['summary']
    if s['failed'] or s['timed_out']:
        for r in doc['requests']:
            if r['state'] in ('failed', 'timed-out'):
                print(f'request {r["req_id"]} ({r["kernel"]}) '
                      f'{r["state"].upper()}: {r.get("error", "")}',
                      file=sys.stderr)
        return 1
    if doc.get('slo', {}).get('status') == 'fail':
        print('SLO: FAIL', file=sys.stderr)
        return 2
    return 0


def cmd_top(args):
    from .observe.top import run_fleet_top, run_top
    from .serve import FAILED, generate_trace, load_trace
    if args.fleet:
        import os
        if not os.path.isdir(args.fleet):
            print(f'{args.fleet}: not a directory', file=sys.stderr)
            return 2
        frames = run_fleet_top(args.fleet, follow=args.follow,
                               interval=args.interval)
        print(f'rendered {frames} fleet frame(s) from {args.fleet}')
        return 0
    if args.trace_file:
        requests = load_trace(args.trace_file)
    else:
        requests = generate_trace(
            seed=args.seed, n_requests=args.requests, scale=args.scale,
            mean_interarrival=args.mean_interarrival, timeout=args.timeout)
    result = run_top(requests, refresh=args.refresh,
                     verify=not args.no_verify,
                     metrics_out=args.metrics_out)
    counts = result.by_state()
    print(f'served {len(result.requests)} request(s) in '
          f'{result.makespan} cycles over {result.dashboard.frames} '
          f'dashboard frame(s): {counts}')
    return 1 if counts.get(FAILED, 0) else 0


def cmd_trace(args):
    from .flight import (JournalError, check_continuity, read_journal,
                         render_tree, write_merged_trace)
    if args.trace_command == 'merge':
        spans, anomalies = [], []
        label = 'fleet'
        for path in args.journals:
            try:
                header, s, a = read_journal(path)
            except (OSError, JournalError) as exc:
                print(f'INVALID journal: {exc}', file=sys.stderr)
                return 1
            label = header.get('label', label)
            spans.extend(s)
            anomalies.extend(a)
        doc = write_merged_trace(args.out, spans, anomalies, label)
        traces = {s['trace_id'] for s in spans}
        print(f'merged trace: {args.out} '
              f'({len(doc["traceEvents"])} events, {len(traces)} '
              f'trace(s) from {len(args.journals)} journal(s))')
        return 0
    try:
        header, spans, anomalies = read_journal(args.journal)
    except (OSError, JournalError) as exc:
        print(f'INVALID journal: {exc}', file=sys.stderr)
        return 1
    if args.trace_command == 'export':
        subset = [s for s in spans if s['trace_id'] == args.trace_id]
        if not subset:
            print(f'{args.journal}: no spans for trace_id '
                  f'{args.trace_id!r}', file=sys.stderr)
            return 1
        doc = write_merged_trace(args.out, subset, [],
                                 header.get('label', 'fleet'))
        print(f'exported trace {args.trace_id}: {args.out} '
              f'({len(doc["traceEvents"])} events)')
        return 0
    # inspect
    if args.trace_id is not None:
        spans = [s for s in spans if s['trace_id'] == args.trace_id]
        if not spans:
            print(f'{args.journal}: no spans for trace_id '
                  f'{args.trace_id!r}', file=sys.stderr)
            return 1
    verdicts = check_continuity(spans)
    for tid in sorted(verdicts):
        print(render_tree(spans, tid))
    broken = [v for v in verdicts.values() if not v['continuous']]
    print(f'{len(verdicts)} trace(s), '
          f'{len(verdicts) - len(broken)} continuous, '
          f'{len(broken)} broken; {len(anomalies)} anomaly event(s)')
    for v in broken:
        print(f'DISCONTINUOUS {v["trace_id"]}: '
              f'gaps {v["gaps"]} {v.get("error", "")}'.rstrip(),
              file=sys.stderr)
    return 2 if broken else 0


def cmd_report(args):
    """``report``, ``dse report`` and ``postmortem validate|dump``."""
    from .artifact import REGISTRY, load_any
    doc = _loaded(load_any, args.file)
    if getattr(args, 'postmortem_command', None) == 'validate':
        print(f'{args.file}: valid {doc["kind"]} '
              f'(schema v{doc["schema_version"]})')
    else:
        print(REGISTRY[doc['kind']].render(doc))
    return 0


def cmd_compare(args):
    from .telemetry import compare_reports, load_report
    a = _loaded(load_report, args.a)
    b = _loaded(load_report, args.b)
    text, regressed = compare_reports(a, b, threshold=args.threshold)
    print(text)
    return 2 if regressed else 0


# a copy of repro.harness.figures.FIGURES' names, so --help imports no
# kernel; tests/test_experiments_cli.py asserts the two sets are equal
FIGURE_NAMES = ('fig10a', 'fig10b', 'fig10c', 'fig11', 'fig14a', 'fig14b',
                'fig14c', 'fig15c', 'fig16', 'fig17a', 'fig17b', 'fig17c',
                'bfs')


def _open_store(path):
    if not path:
        return None
    from .jobs import ResultStore
    return ResultStore(path)


def _progress(outcome, done, total):
    extra = f' [{outcome.status}]' if outcome.status != 'done' else ''
    print(f'  [{done}/{total}] {outcome.spec.label()}'
          f' ({outcome.elapsed:.1f}s){extra}', flush=True)


def cmd_figure(args):
    from .harness import figures as F
    store = _open_store(args.store)
    cache = F.ResultCache(scale=args.scale, store=store)
    if args.jobs > 1:
        from .jobs import SweepEngine, any_failed, plan_figures, \
            render_summary
        specs = plan_figures([args.name], scale=args.scale)
        engine = SweepEngine(jobs=args.jobs, store=store,
                             progress=_progress)
        outcomes = engine.execute(specs)
        if any_failed(outcomes):
            print(render_summary(outcomes), file=sys.stderr)
            return 1
        for o in outcomes:
            cache.prime(o.spec, o.result)
    fn = getattr(F, F.FIGURES[args.name])
    series = fn(cache)
    print(series.render())
    return 0


def cmd_experiment(args):
    from .harness.experiments import run_experiment
    result = run_experiment(args.file, jobs=args.jobs,
                            store=_open_store(args.store),
                            progress=_progress if args.jobs > 1 else None)
    print(result.render())
    return 0


def cmd_sweep(args):
    import time
    from .harness import figures as F
    from .jobs import (ResultStore, SweepEngine, SweepManifest, any_failed,
                       build_sweep_report, plan_figures, render_summary)
    store = ResultStore(args.store)
    benches = args.benches.split(',') if args.benches else None
    t0 = time.monotonic()
    if args.resume:
        try:
            manifest = SweepManifest.load(args.manifest)
        except (OSError, ValueError) as exc:
            print(f'cannot resume: {exc}', file=sys.stderr)
            return 2
        specs = manifest.pending()
        print(f'resuming {manifest.name}: {len(specs)} of '
              f'{len(manifest.entries)} job(s) still pending')
    else:
        specs = plan_figures(args.figures, scale=args.scale,
                             benches=benches)
        manifest = SweepManifest(name='+'.join(args.figures), specs=specs,
                                 path=args.manifest)
        manifest.save()
        print(f'planned {len(specs)} job(s) across '
              f'{len(args.figures)} figure(s)')
    engine = SweepEngine(jobs=args.jobs, timeout=args.timeout,
                         retries=args.retries, store=store,
                         use_cache=not args.no_cache, progress=_progress)
    outcomes = engine.execute(specs, manifest=manifest)
    manifest.save()
    print(render_summary(outcomes, store=store))
    print(f'launched {engine.launched} worker(s); '
          f'manifest: {manifest.path}')
    if args.report:
        doc = build_sweep_report(outcomes, name=manifest.name,
                                 launched=engine.launched,
                                 elapsed=time.monotonic() - t0)
        _save_report(doc, args.report)
        print(f'sweep report: {args.report}')
    if any_failed(outcomes):
        return 1
    if args.render:
        cache = F.ResultCache(scale=args.scale, store=store)
        for name in args.figures:
            fn = getattr(F, F.FIGURES[name])
            kwargs = {'benches': benches} if benches and name != 'bfs' \
                else {}
            print()
            print(fn(cache, **kwargs).render())
    return 0


def _dse_load_model(calib):
    """The analytical model for a dse subcommand: calibrated or priors."""
    from .model import AnalyticModel, load_calib_report
    if calib:
        return AnalyticModel.from_calibration(
            _loaded(load_calib_report, calib, 'calibration report'))
    print('warning: no --calib given; predictions use uncalibrated '
          'priors', file=sys.stderr)
    return AnalyticModel.default()


def cmd_dse(args):
    from .model import calibrate as C
    from .model.analytic import ModelError

    if args.dse_command == 'calibrate':
        from .jobs import ResultStore, SweepEngine, any_failed, \
            render_summary
        kernels = (args.kernels.split(',') if args.kernels
                   else list(C.SMOKE_KERNELS if args.smoke
                             else C.DEFAULT_KERNELS))
        configs = (args.configs.split(',') if args.configs
                   else list(C.DEFAULT_CONFIGS))
        depths = ([int(v) for v in args.depths.split(',')] if args.depths
                  else list(C.DEFAULT_DEPTHS))
        banks = ([int(v) for v in args.banks.split(',')] if args.banks
                 else list(C.DEFAULT_BANKS))
        try:
            specs = C.calibration_specs(kernels, scale=args.scale,
                                        configs=configs, depths=depths,
                                        banks=banks)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(f'calibration suite: {len(kernels)} kernel(s) x '
              f'{len(specs) // max(1, len(kernels))} config point(s) '
              f'= {len(specs)} ground-truth job(s)')
        store = ResultStore(args.store)
        engine = SweepEngine(jobs=args.jobs, timeout=args.timeout,
                             store=store, use_cache=not args.no_cache,
                             progress=_progress)
        outcomes = engine.execute(specs)
        print(render_summary(outcomes, store=store))
        if any_failed(outcomes):
            return 1
        suite = {'kernels': kernels, 'configs': configs,
                 'depths': depths, 'banks': banks, 'scale': args.scale}
        try:
            doc = C.run_calibration(outcomes, label=args.label,
                                    suite=suite)
        except ModelError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(C.render_calib_report(doc))
        out = args.out or C.calib_path(args.label)
        C.save_calib_report(doc, out)
        print(f'calibration report: {out} (schema-valid)')
        if args.max_mape is not None \
                and doc['overall']['median_ape_pct'] > args.max_mape:
            print(f"calibration gate: FAIL — median APE "
                  f"{doc['overall']['median_ape_pct']:.1f}% exceeds "
                  f"{args.max_mape:g}%", file=sys.stderr)
            return 2
        return 0

    if args.dse_command == 'explore':
        from .dse import (AXES_BY_NAME, DseError, dse_path,
                          render_dse_report, run_dse, save_dse_report)
        from .jobs import ResultStore
        model = _dse_load_model(args.calib)
        axes = AXES_BY_NAME[args.space]
        store = ResultStore(args.store) if not args.no_simulate else None
        try:
            doc = run_dse(model, args.benchmark, axes=axes,
                          scale=args.scale,
                          simulate=not args.no_simulate,
                          jobs=args.jobs, store=store,
                          timeout=args.timeout,
                          use_cache=not args.no_cache,
                          label=args.label,
                          progress=_progress, log=print)
        except (DseError, ModelError, KeyError) as exc:
            print(f'dse explore: {exc}', file=sys.stderr)
            return 1
        print(render_dse_report(doc))
        out = args.out or dse_path(args.label)
        save_dse_report(doc, out)
        print(f'dse report: {out} (schema-valid)')
        return 1 if doc['triage'].get('n_sim_failed', 0) else 0

    if args.dse_command == 'predict':
        _check_point(args.benchmark, args.config)
        model = _dse_load_model(args.calib)
        from .manycore import DEFAULT_CONFIG
        overrides = {}
        if args.frame_counters is not None:
            overrides['frame_counters'] = args.frame_counters
        if args.llc_banks is not None:
            overrides['llc_banks'] = args.llc_banks
        if args.noc_width is not None:
            overrides['noc_width_words'] = args.noc_width
        if args.dram_bandwidth is not None:
            overrides['dram_bandwidth_words_per_cycle'] = \
                args.dram_bandwidth
        machine = DEFAULT_CONFIG.scaled(**overrides) if overrides \
            else None
        try:
            p = model.predict(args.benchmark, args.config,
                              scale=args.scale, machine=machine)
        except (ModelError, KeyError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 1
        tag = '' if p.calibrated else ' (uncalibrated priors)'
        print(f'{p.benchmark} / {p.config} @{args.scale}{tag}')
        print(f'  predicted cycles  {p.cycles:.1f}')
        print(f'  predicted energy  {p.energy_pj / 1e6:.3f} uJ on-chip')
        print(f'  tiles used        {p.tiles_used}')
        feats = '  '.join(f'{k}={v:.1f}' for k, v in p.features.items())
        print(f'  features          {feats}')
        return 0

    if args.dse_command == 'report':
        return cmd_report(args)
    raise AssertionError(args.dse_command)


def _add_trace_args(p, requests, mean_interarrival, fleet=False):
    """The generated-trace flags ``serve``, ``fleet`` and ``top`` share."""
    noun = 'traffic' if fleet else 'trace'
    p.add_argument('--seed', type=int, default=0, metavar='N',
                   help=f'{noun}-generator seed (default 0)')
    p.add_argument('--requests', type=int, default=requests, metavar='N',
                   help=f'generated {noun} length (default {requests})')
    p.add_argument('--scale', choices=('test', 'bench'), default='test',
                   help='problem sizes for generated requests '
                        '(default test)')
    p.add_argument('--mean-interarrival', type=int,
                   default=mean_interarrival, metavar='CYCLES',
                   help=f'mean request interarrival '
                        f'(default {mean_interarrival})')
    p.add_argument('--timeout', type=int, default=None, metavar='CYCLES',
                   help='per-request deadline measured from arrival')
    p.add_argument('--no-verify', action='store_true',
                   help='skip numpy output verification'
                        + (' in shards' if fleet else ''))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='repro',
        description='Rockcress (MICRO 2021) reproduction CLI')
    sub = parser.add_subparsers(dest='command', required=True)

    sub.add_parser('list', help='show benchmarks and configurations')

    p = sub.add_parser('run', help='simulate one benchmark/configuration')
    p.add_argument('benchmark')
    p.add_argument('config')
    p.add_argument('--scale', choices=('test', 'bench'), default='bench')
    p.add_argument('--report', metavar='OUT.json',
                   help='enable telemetry; write the run-report artifact')
    p.add_argument('--trace', metavar='OUT.json',
                   help='enable telemetry + tracing; write a Perfetto '
                        '(Chrome trace-event) JSON')
    p.add_argument('--sample-interval', type=int, default=1000,
                   metavar='N', help='cycles between interval samples '
                                     '(default 1000; 0 disables sampling)')
    p.add_argument('--per-core-samples', action='store_true',
                   help='record per-core stall deltas in every sample')
    p.add_argument('--trace-limit', type=int, default=200_000,
                   help='max traced instructions (default 200000)')
    p.add_argument('--self-profile', action='store_true',
                   help='attribute host wall time to simulator '
                        'components (see docs/perf.md)')
    p.add_argument('--deep-profile', action='store_true',
                   help='also wrap the run in cProfile and print the '
                        'top hot functions (slower)')
    p.add_argument('--flamegraph', metavar='OUT.folded',
                   help='write collapsed-stack flamegraph input '
                        '(implies --self-profile)')

    p = sub.add_parser('figure', help='regenerate one paper figure')
    p.add_argument('name', choices=sorted(FIGURE_NAMES))
    p.add_argument('--scale', choices=('test', 'bench'), default='bench')
    p.add_argument('--jobs', type=int, default=1, metavar='N',
                   help='run the figure\'s points across N worker '
                        'processes first (default 1 = serial)')
    p.add_argument('--store', metavar='DIR',
                   help='persistent result store directory')

    p = sub.add_parser('experiment', help='run a JSON experiment file')
    p.add_argument('file')
    p.add_argument('--jobs', type=int, default=1, metavar='N',
                   help='worker processes for the point sweep (default 1)')
    p.add_argument('--store', metavar='DIR',
                   help='persistent result store directory')

    p = sub.add_parser('sweep', help='execute figure sweeps as a '
                                     'resumable parallel job manifest')
    p.add_argument('figures', nargs='+', choices=sorted(FIGURE_NAMES),
                   metavar='FIGURE',
                   help='figures whose points to execute '
                        f'({", ".join(sorted(FIGURE_NAMES))})')
    p.add_argument('--scale', choices=('test', 'bench'), default='bench')
    p.add_argument('--jobs', type=int, default=1, metavar='N',
                   help='max concurrent worker processes (default 1)')
    p.add_argument('--store', default='.repro-store', metavar='DIR',
                   help='result store directory (default .repro-store)')
    p.add_argument('--manifest', default='sweep-manifest.json',
                   metavar='PATH', help='manifest path '
                                        '(default sweep-manifest.json)')
    p.add_argument('--resume', action='store_true',
                   help='reload the manifest and run only pending/failed '
                        'points')
    p.add_argument('--no-cache', action='store_true',
                   help='ignore store hits; recompute (and overwrite) '
                        'every point')
    p.add_argument('--timeout', type=float, default=None, metavar='SEC',
                   help='per-job wall-clock timeout in seconds')
    p.add_argument('--retries', type=int, default=1, metavar='K',
                   help='retries after a crash/timeout (default 1)')
    p.add_argument('--report', metavar='OUT.json',
                   help='write the sweep report artifact')
    p.add_argument('--render', action='store_true',
                   help='render the swept figures afterwards (all cache '
                        'hits)')
    p.add_argument('--benches', metavar='A,B,...',
                   help='restrict the benchmark set (comma-separated)')

    p = sub.add_parser('serve', help='replay a kernel-request trace on '
                                     'one multi-tenant fabric')
    p.add_argument('trace_file', nargs='?', metavar='TRACE.json',
                   help='request trace to replay (omit to generate a '
                        'seeded trace)')
    _add_trace_args(p, requests=8, mean_interarrival=2000)
    p.add_argument('--save-trace', metavar='OUT.json',
                   help='also write the (generated) trace file')
    p.add_argument('--report', metavar='OUT.json',
                   help='write the schema-checked serving report')
    p.add_argument('--store', metavar='DIR',
                   help='persist the serving report in a result store')
    p.add_argument('--perfetto', metavar='OUT.json',
                   help='write a Chrome trace with per-core request/'
                        'group annotation')
    p.add_argument('--metrics-out', metavar='OUT.jsonl',
                   help='attach the observability plane and write '
                        'periodic metric snapshots as JSONL')
    p.add_argument('--heatmaps', action='store_true',
                   help='attach the observability plane and print '
                        'NoC/LLC/inet congestion heatmaps')
    p.add_argument('--snapshot-interval', type=int, default=5000,
                   metavar='CYCLES',
                   help='cycles between metric snapshots (default 5000)')
    p.add_argument('--slo', metavar='POLICY.json',
                   help='evaluate an SLO threshold policy; exit 2 on '
                        'fail (see docs/observability.md)')

    p = sub.add_parser('fleet', help='run a sharded fabric fleet under '
                                     'open-loop traffic')
    p.add_argument('trace_file', nargs='?', metavar='TRACE.json',
                   help='request trace to replay (omit to generate '
                        'seeded open-loop traffic)')
    _add_trace_args(p, requests=24, mean_interarrival=4000, fleet=True)
    p.add_argument('--pattern', default='mixed',
                   choices=('steady', 'diurnal', 'bursty', 'mixed'),
                   help='arrival process (default mixed: diurnal wave '
                        '+ bursts, heavy-tailed sizes)')
    p.add_argument('--shards', type=int, default=3, metavar='N',
                   help='initial fleet size (default 3)')
    p.add_argument('--epoch-cycles', type=int, default=50_000,
                   metavar='CYCLES',
                   help='router hand-off quantum (default 50000)')
    p.add_argument('--shard-queue-cap', type=int, default=8, metavar='N',
                   help='per-shard backlog cap before backpressure '
                        '(default 8)')
    p.add_argument('--max-queue', type=int, default=256, metavar='N',
                   help='router queue cap; admission control rejects '
                        'beyond it (default 256)')
    p.add_argument('--workers', type=int, default=4, metavar='N',
                   help='concurrent shard worker processes (default 4)')
    p.add_argument('--worker-timeout', type=float, default=None,
                   metavar='SEC',
                   help='wall-clock budget per shard batch')
    p.add_argument('--autoscale', metavar='POLICY.json',
                   help="SLO-driven autoscaling policy file, or "
                        "'default' for the built-in thresholds")
    p.add_argument('--slo', metavar='POLICY.json',
                   help='evaluate an SLO threshold policy against the '
                        'fleet summary; exit 2 on fail')
    p.add_argument('--crash', action='append', metavar='SHARD@EPOCH',
                   help='inject a worker SIGKILL into a shard batch '
                        '(repeatable); its requests are re-routed')
    p.add_argument('--no-affinity', action='store_true',
                   help='disable job-key affinity (pure '
                        'join-shortest-queue)')
    p.add_argument('--metrics-out', metavar='OUT.jsonl',
                   help='write per-epoch fleet metric snapshots as '
                        'JSONL')
    p.add_argument('--report', metavar='OUT.json',
                   help='write the schema-checked cross-shard fleet '
                        'report')
    p.add_argument('--flight', metavar='DIR',
                   help='attach the flight layer: distributed-trace '
                        'journal, black-box event ring, anomaly '
                        'detection, and POSTMORTEM_* dumps on crash/'
                        'deadlock/SLO-fail, all written under DIR')
    p.add_argument('--flight-label', default='fleet', metavar='LABEL',
                   help='label embedded in flight artifacts '
                        '(default fleet)')
    p.add_argument('--flight-ring', type=int, default=256, metavar='N',
                   help='black-box event ring capacity (default 256)')
    p.add_argument('--shard-metrics-dir', metavar='DIR',
                   help='each shard worker appends observe-plane '
                        'snapshots to DIR/shard<N>.jsonl (feeds '
                        '`repro top --fleet DIR`)')
    p.add_argument('--snapshot-interval', type=int, default=5000,
                   metavar='CYCLES',
                   help='cycles between shard metric snapshots '
                        '(default 5000)')

    p = sub.add_parser('top', help='serve a trace with a live '
                                   'terminal dashboard attached')
    p.add_argument('trace_file', nargs='?', metavar='TRACE.json',
                   help='request trace to replay (omit to generate a '
                        'seeded trace)')
    _add_trace_args(p, requests=8, mean_interarrival=2000)
    p.add_argument('--refresh', type=int, default=5000, metavar='CYCLES',
                   help='simulated cycles between dashboard frames '
                        '(default 5000)')
    p.add_argument('--metrics-out', metavar='OUT.jsonl',
                   help='also write JSONL metric snapshots')
    p.add_argument('--fleet', metavar='DIR',
                   help='fleet mode: tail the per-shard JSONL snapshot '
                        'streams under DIR (from `repro fleet '
                        '--shard-metrics-dir`) and render an aggregated '
                        'per-shard dashboard instead of serving a trace')
    p.add_argument('--follow', action='store_true',
                   help='with --fleet: keep re-reading the streams '
                        'until interrupted')
    p.add_argument('--interval', type=float, default=1.0, metavar='SEC',
                   help='with --fleet --follow: seconds between frames '
                        '(default 1.0)')

    p = sub.add_parser('trace', help='merge/export/inspect fleet '
                                     'flight journals')
    tsub = p.add_subparsers(dest='trace_command', required=True)
    pt = tsub.add_parser('merge', help='merge journal(s) into one '
                                       'Perfetto trace')
    pt.add_argument('journals', nargs='+', metavar='FLIGHT.jsonl')
    pt.add_argument('--out', required=True, metavar='OUT.json',
                    help='merged Chrome trace-event JSON path')
    pt = tsub.add_parser('export', help='export one trace_id as a '
                                        'Perfetto trace')
    pt.add_argument('journal', metavar='FLIGHT.jsonl')
    pt.add_argument('--trace-id', required=True, metavar='TID')
    pt.add_argument('--out', required=True, metavar='OUT.json')
    pt = tsub.add_parser('inspect', help='print span trees + '
                                         'continuity verdicts')
    pt.add_argument('journal', metavar='FLIGHT.jsonl')
    pt.add_argument('--trace-id', metavar='TID',
                    help='restrict to one trace (default: all)')

    p = sub.add_parser('postmortem', help='validate/dump POSTMORTEM_* '
                                          'artifacts')
    psub = p.add_subparsers(dest='postmortem_command', required=True)
    pp = psub.add_parser('validate', help='schema-check a post-mortem')
    pp.add_argument('file', metavar='POSTMORTEM.json')
    pp = psub.add_parser('dump', help='schema-check + render a '
                                      'post-mortem')
    pp.add_argument('file', metavar='POSTMORTEM.json')

    p = sub.add_parser('dse', help='analytical fast-path: calibrate the '
                                   'model, explore config spaces, '
                                   'simulate only the Pareto frontier')
    dsub = p.add_subparsers(dest='dse_command', required=True)

    pd = dsub.add_parser('calibrate', help='fit model coefficients '
                                           'against simulator ground '
                                           'truth; write CALIB_*.json')
    pd.add_argument('--kernels', metavar='A,B,...',
                    help='kernels to calibrate (default: the full '
                         'modeled suite)')
    pd.add_argument('--smoke', action='store_true',
                    help='small 3-kernel suite (CI mode)')
    pd.add_argument('--scale', choices=('test', 'bench'), default='test')
    pd.add_argument('--configs', metavar='V4,V16,...',
                    help='vector configs in the grid (default V4,V16)')
    pd.add_argument('--depths', metavar='4,5,8',
                    help='frame-counter depths in the grid '
                         '(default 4,5,8; must be >= 4)')
    pd.add_argument('--banks', metavar='4,16',
                    help='LLC bank counts in the grid (default 4,16)')
    pd.add_argument('--label', default='local',
                    help='label embedded in the artifact and its '
                         'default filename (default local)')
    pd.add_argument('--out', metavar='OUT.json',
                    help='artifact path (default CALIB_<label>.json)')
    pd.add_argument('--store', default='.repro-store', metavar='DIR',
                    help='result store for ground truth '
                         '(default .repro-store)')
    pd.add_argument('--jobs', type=int, default=1, metavar='N',
                    help='max concurrent worker processes (default 1)')
    pd.add_argument('--timeout', type=float, default=None, metavar='SEC',
                    help='per-job wall-clock timeout')
    pd.add_argument('--no-cache', action='store_true',
                    help='ignore store hits; resimulate every point')
    pd.add_argument('--max-mape', type=float, default=None, metavar='PCT',
                    help='error gate: exit 2 when overall median APE '
                         'exceeds this percentage')

    pd = dsub.add_parser('explore', help='triage a config space '
                                         'analytically; simulate only '
                                         'the Pareto frontier; write '
                                         'DSE_*.json')
    pd.add_argument('benchmark', help='kernel to explore')
    pd.add_argument('--calib', metavar='CALIB.json',
                    help='calibration artifact (omit for rough '
                         'uncalibrated priors)')
    pd.add_argument('--space', choices=('default', 'small'),
                    default='default',
                    help='axes grid: default (576 points) or small '
                         '(8-point CI smoke)')
    pd.add_argument('--scale', choices=('test', 'bench'), default='test')
    pd.add_argument('--no-simulate', action='store_true',
                    help='skip frontier re-simulation (pure triage)')
    pd.add_argument('--label', default='local',
                    help='label embedded in the artifact and its '
                         'default filename (default local)')
    pd.add_argument('--out', metavar='OUT.json',
                    help='artifact path (default DSE_<label>.json)')
    pd.add_argument('--store', default='.repro-store', metavar='DIR',
                    help='result store for frontier simulations '
                         '(default .repro-store)')
    pd.add_argument('--jobs', type=int, default=1, metavar='N',
                    help='max concurrent worker processes (default 1)')
    pd.add_argument('--timeout', type=float, default=None, metavar='SEC',
                    help='per-job wall-clock timeout')
    pd.add_argument('--no-cache', action='store_true',
                    help='ignore store hits; resimulate the frontier')

    pd = dsub.add_parser('predict', help='predict one point in closed '
                                         'form (no simulation)')
    pd.add_argument('benchmark')
    pd.add_argument('config')
    pd.add_argument('--scale', choices=('test', 'bench'), default='test')
    pd.add_argument('--calib', metavar='CALIB.json',
                    help='calibration artifact (omit for rough '
                         'uncalibrated priors)')
    pd.add_argument('--frame-counters', type=int, default=None,
                    metavar='N')
    pd.add_argument('--llc-banks', type=int, default=None, metavar='N')
    pd.add_argument('--noc-width', type=int, default=None, metavar='W',
                    help='NoC link width in words')
    pd.add_argument('--dram-bandwidth', type=float, default=None,
                    metavar='WPC', help='DRAM words per cycle')

    pd = dsub.add_parser('report', help='validate + render a CALIB_*/'
                                        'DSE_* artifact')
    pd.add_argument('file')

    sub.add_parser('version', help='print package version + provenance '
                                   'salts')

    p = sub.add_parser('report', help='validate + summarize a run report')
    p.add_argument('file')

    p = sub.add_parser('compare', help='diff two run reports; nonzero '
                                       'exit on regression')
    p.add_argument('a')
    p.add_argument('b')
    p.add_argument('--threshold', type=float, default=0.02,
                   help='relative regression threshold (default 0.02)')

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {'list': cmd_list, 'run': cmd_run, 'figure': cmd_figure,
               'experiment': cmd_experiment, 'sweep': cmd_sweep,
               'serve': cmd_serve, 'fleet': cmd_fleet, 'top': cmd_top,
               'trace': cmd_trace, 'postmortem': cmd_report,
               'report': cmd_report,
               'compare': cmd_compare, 'dse': cmd_dse,
               'version': cmd_version}[args.command]
    try:
        return command(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == '__main__':
    sys.exit(main())
