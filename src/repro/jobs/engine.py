"""Parallel sweep execution: a farm of single-job worker processes.

The gem5 artifact this repo reproduces drove its sweeps as independent
jobs; we do the same.  Each job gets its own worker process (not a
long-lived pool worker), which buys three properties cheaply:

* **per-job timeout** — a runaway simulation is ``terminate()``d without
  poisoning other jobs;
* **crash recovery** — a worker that dies without reporting (OOM kill,
  segfault, ``SIGKILL``) is detected by its exit code and the job is
  retried or marked crashed, while the rest of the sweep proceeds;
* **determinism** — a worker runs exactly :func:`run_job`, the same code
  the serial path uses, so parallel cycle counts are bit-identical to
  serial ones (tested).

Results cross back over a one-way pipe as the lossless dict form from
:mod:`repro.jobs.serialize`; only the parent touches the
:class:`~repro.jobs.store.ResultStore`.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Sequence

from .serialize import result_from_dict, result_to_dict
from .spec import JobSpec

# outcome statuses
DONE = 'done'          # simulated successfully this run
CACHED = 'cached'      # served from the persistent store, no worker launched
FAILED = 'failed'      # the job raised (deterministic; not retried)
TIMEOUT = 'timeout'    # exceeded the per-job timeout on every attempt
CRASHED = 'crashed'    # worker died without reporting on every attempt


def run_job(spec: JobSpec):
    """Execute one job in the current process; the worker entry point.

    This is *the* definition of what a job spec means — the serial
    figure/experiment path calls it too, which is what makes parallel
    and serial sweeps bit-identical.
    """
    from ..harness.runner import run_benchmark
    from ..kernels import registry
    bench = registry.make(spec.benchmark)
    params = bench.params_for('test' if spec.scale == 'test' else 'bench')
    params.update(spec.params_dict())
    return run_benchmark(
        bench, spec.config, params,
        base_machine=spec.machine_config(),
        verify=spec.verify,
        active_cores=list(spec.active_cores) if spec.active_cores else None,
        max_cycles=spec.max_cycles)


def _worker_entry(job_fn, spec, conn, encode=result_to_dict):
    """Run one job and ship the serialized result (or traceback) back."""
    try:
        result = job_fn(spec)
        conn.send(('ok', encode(result)))
    except BaseException:
        try:
            conn.send(('error', traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class JobOutcome:
    """Terminal state of one job after caching, retries and recovery."""

    spec: JobSpec
    key: str
    status: str
    result: Optional[object] = None  # RunResult when ok
    error: str = ''
    attempts: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (DONE, CACHED)

    @property
    def from_cache(self) -> bool:
        return self.status == CACHED


class SweepEngine:
    """Execute a set of job specs across a bounded worker farm.

    Parameters
    ----------
    jobs:
        Max concurrent worker processes (>= 1).
    timeout:
        Per-job wall-clock budget in seconds; ``None`` disables.
    retries:
        Extra attempts after a crash or timeout (raised exceptions are
        deterministic and are not retried).
    store:
        Optional ``get(key)`` / ``put(key, result)`` store — a
        :class:`~repro.jobs.store.ResultStore`, or a
        :class:`~repro.harness.figures.ResultCache` to fill a figure's
        cache directly; hits skip the worker launch entirely and fresh
        results are written back.
    use_cache:
        When False the store is write-only (``--no-cache``).
    job_fn:
        The callable a worker runs; tests substitute failure-injecting
        functions here.  Must accept a JobSpec and return a RunResult.
    progress:
        ``callback(outcome, done, total)`` fired as each job reaches a
        terminal state.
    encode / decode:
        The wire format a result takes across the worker pipe.  The
        defaults carry :class:`~repro.harness.runner.RunResult`s
        losslessly; other farms (``repro.fleet`` ships serving-report
        dicts) substitute their own pair.  ``decode`` must accept the
        encoded payload and return the outcome's ``result`` object.

    ``self.launched`` counts actual worker launches — the number tests
    assert on to prove cache hits and resumes do no simulation work.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None,
                 retries: int = 1, store=None, use_cache: bool = True,
                 job_fn: Callable = run_job,
                 progress: Optional[Callable] = None,
                 encode: Callable = result_to_dict,
                 decode: Callable = None):
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.store = store
        self.use_cache = use_cache
        self.job_fn = job_fn
        self.progress = progress
        self.ctx = mp.get_context('fork' if 'fork' in
                                  mp.get_all_start_methods() else 'spawn')
        self.encode = encode
        self.decode = (decode if decode is not None
                       else lambda doc: result_from_dict(
                           doc, source='simulated'))
        self.launched = 0

    # ------------------------------------------------------------------ api
    def execute(self, specs: Sequence[JobSpec],
                manifest=None) -> List[JobOutcome]:
        """Run every (deduplicated) spec; returns outcomes in spec order.

        ``manifest`` (a :class:`~repro.jobs.manifest.SweepManifest`) is
        updated and saved after each terminal outcome, making the sweep
        resumable after an interrupt.
        """
        unique: Dict[str, JobSpec] = {}  # key -> first spec with it
        for s in specs:
            unique.setdefault(s.key(), s)

        self._outcomes: Dict[str, JobOutcome] = {}
        self._manifest = manifest
        self._total = len(unique)
        pending = deque()
        for k, s in unique.items():
            cached = (self.store.get(k)
                      if self.use_cache and self.store is not None else None)
            if cached is not None:
                self._finish(JobOutcome(s, k, CACHED, cached, attempts=0))
            else:
                pending.append((s, k, 1))

        active: Dict[object, dict] = {}  # recv conn -> launch info
        try:
            while pending or active:
                while pending and len(active) < self.jobs:
                    self._launch(pending.popleft(), active)
                ready = mp_connection.wait(list(active), timeout=0.02) \
                    if active else []
                now = time.monotonic()
                for conn in ready:
                    info = active.pop(conn)
                    try:
                        payload = conn.recv()
                    except (EOFError, OSError):
                        payload = None
                    conn.close()
                    info['proc'].join()
                    elapsed = now - info['started']
                    if payload is None:
                        self._retry_or_fail(
                            info, CRASHED, pending, elapsed,
                            f'worker exited without a result '
                            f'(exitcode {info["proc"].exitcode})')
                    elif payload[0] == 'ok':
                        result = self.decode(payload[1])
                        if self.store is not None:
                            self.store.put(info['key'], result)
                        self._finish(JobOutcome(
                            info['spec'], info['key'], DONE, result,
                            attempts=info['attempt'], elapsed=elapsed))
                    else:
                        self._retry_or_fail(info, FAILED, pending, elapsed,
                                            payload[1])
                for conn, info in list(active.items()):
                    elapsed = now - info['started']
                    if self.timeout is not None and elapsed > self.timeout:
                        active.pop(conn)
                        self._kill(info['proc'])
                        conn.close()
                        self._retry_or_fail(
                            info, TIMEOUT, pending, elapsed,
                            f'exceeded per-job timeout of {self.timeout}s')
                    elif not info['proc'].is_alive() and not conn.poll():
                        # died silently (e.g. SIGKILL); a sent-then-exited
                        # worker still has data in the pipe and is handled
                        # by the ready loop above.
                        active.pop(conn)
                        conn.close()
                        info['proc'].join()
                        self._retry_or_fail(
                            info, CRASHED, pending, elapsed,
                            f'worker killed '
                            f'(exitcode {info["proc"].exitcode})')
        finally:
            for info in active.values():
                self._kill(info['proc'])
        return [self._outcomes[k] for k in unique]

    # ------------------------------------------------------------- internals
    def _launch(self, item, active) -> None:
        spec, key, attempt = item
        recv, send = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(target=_worker_entry,
                                args=(self.job_fn, spec, send, self.encode),
                                daemon=True)
        proc.start()
        send.close()
        self.launched += 1
        active[recv] = {'proc': proc, 'spec': spec, 'key': key,
                        'attempt': attempt, 'started': time.monotonic()}

    @staticmethod
    def _kill(proc) -> None:
        try:
            proc.terminate()
            proc.join(0.5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        except (OSError, ValueError):
            pass

    def _retry_or_fail(self, info, status, pending, elapsed, error) -> None:
        if status in (CRASHED, TIMEOUT) \
                and info['attempt'] <= self.retries:
            pending.append((info['spec'], info['key'], info['attempt'] + 1))
            return
        self._finish(JobOutcome(info['spec'], info['key'], status, None,
                                error=error, attempts=info['attempt'],
                                elapsed=elapsed))

    def _finish(self, outcome: JobOutcome) -> None:
        self._outcomes[outcome.key] = outcome
        if self._manifest is not None:
            self._manifest.record(outcome)
            self._manifest.save()
        if self.progress is not None:
            self.progress(outcome, len(self._outcomes), self._total)


def any_failed(outcomes: Sequence[JobOutcome]) -> bool:
    return any(not o.ok for o in outcomes)


def render_summary(outcomes: Sequence[JobOutcome], store=None) -> str:
    """Readable sweep wrap-up: totals plus one line per failed point.

    With ``store``, also reports how much simulation the cache saved
    and the store's on-disk footprint.
    """
    counts = {}
    for o in outcomes:
        counts[o.status] = counts.get(o.status, 0) + 1
    done = counts.get(DONE, 0)
    cached = counts.get(CACHED, 0)
    bad = sum(counts.get(s, 0) for s in (FAILED, TIMEOUT, CRASHED))
    lines = [f'sweep: {len(outcomes)} job(s) — {done} simulated, '
             f'{cached} cached, {bad} failed']
    for o in outcomes:
        if not o.ok:
            reason = o.error.strip().splitlines()[-1] if o.error else ''
            lines.append(f'  {o.status.upper():8s} {o.spec.label()} '
                         f'(attempts={o.attempts}): {reason}')
    if store is not None:
        saved = (f'cache served {cached} of {len(outcomes)} job(s)'
                 if outcomes else 'cache served 0 job(s)')
        lines.append(f'store: {store.root} — {len(store)} result(s), '
                     f'{_human_bytes(store.total_bytes())}; {saved}')
    return '\n'.join(lines)


def _human_bytes(n: int) -> str:
    for unit in ('B', 'KiB', 'MiB', 'GiB'):
        if n < 1024 or unit == 'GiB':
            return f'{n:.1f} {unit}' if unit != 'B' else f'{n} B'
        n /= 1024.0
    return f'{n} B'
