"""Invariant monitors: a test-side consumer of the machine's probe plane.

ROADMAP item 1 asks for machine-checked microarchitectural invariants.
The probe plane (``repro.manycore.probes``) reports every fact they
need, so the monitors are one more :class:`Consumer` — declared and
attached from here; the only fact added for them is ``inet_push``.
They assert when the plane drains:

* **LLC request port** — per bank, successive ``llc_access`` service
  starts are at least one cycle apart and no access waited a negative
  time (the port serialises at one request per cycle, §3.4);
* **microthreads** — ``mt_launch`` and ``mt_end`` strictly alternate per
  expander (after a serving request was killed mid-flight, a launch on
  a still-open expander is the truncation, not a violation);
* **DAE frames** (§3.3) — every ``frame_words`` packet lies inside the
  configured ``num_slots x frame_size`` window, a ``frame_start`` for
  ``(core, seq)`` comes only after that frame received ``frame_size``
  words, and ``frame_free`` sequences rise by one per core;
* **jobs** — no frame word lands on a tile whose ``job`` is ``None``
  (every program, a kernel run's too, runs as a ``FabricJob``);
* **inet queues** — every ``inet_push`` leaves its queue holding at most
  ``capacity`` entries (the sender's backpressure rule, §3.2).

``tests/conftest.py`` turns them on for the golden sweep and the
serve/fleet suites; ``Monitors().attach(fabric)`` does it by hand.
"""

from operator import itemgetter

from repro.manycore.probes import Consumer
from repro.serve import FAILED, TIMED_OUT


class Monitors(Consumer):
    """Asserts the invariants above over every drained batch."""

    facts = ('llc_access', 'mt_launch', 'mt_end', 'frame_cfg',
             'frame_words', 'frame_start', 'frame_free', 'request_state',
             'inet_push')

    def __init__(self):
        self.records = 0          # records checked (tests assert > 0)
        self._bank_start = {}     # bank -> last service start
        self._mt_open = set()     # expanders inside a microthread
        self._killed = False      # a serving request died mid-flight
        self._frame_cfg = {}      # core -> (base, frame_size, num_slots)
        self._frame_head = {}     # core -> sequence the next remem frees
        self._frame_fill = {}     # (core, seq) -> words arrived

    def attach(self, fabric) -> 'Monitors':
        fabric.probes.attach(self)
        return self

    def fold(self, batches) -> None:
        self.records += sum(len(batches.get(f, ())) for f in self.facts)
        self._check_llc(batches.get('llc_access', ()))
        for now, core, depth, capacity in batches.get('inet_push', ()):
            assert depth <= capacity, (
                f'core {core}: inet push at {now} left {depth} entries in a '
                f'{capacity}-entry queue')
        for _now, _req, state, _depth, _running in \
                batches.get('request_state', ()):
            self._killed = self._killed or state in (FAILED, TIMED_OUT)
        # events (frame deliveries) fire before the same cycle's tile
        # steps, and sorted() is stable: list the deliveries first
        steps = [(rec[0], fact, rec)
                 for fact in ('frame_words', 'frame_cfg', 'frame_start',
                              'frame_free', 'mt_launch', 'mt_end')
                 for rec in batches.get(fact, ())]
        for now, fact, rec in sorted(steps, key=itemgetter(0)):
            getattr(self, '_on_' + fact)(*rec)

    # ------------------------------------------------------------- LLC port
    def _check_llc(self, accesses) -> None:
        last = self._bank_start
        for bank, start, wait, _miss, _job in accesses:
            assert wait >= 0, f'bank {bank}: negative port wait {wait}'
            prev = last.get(bank)
            assert prev is None or start - prev >= 1, (
                f'bank {bank} request port served two requests within one '
                f'cycle (starts {prev} and {start})')
            last[bank] = start

    # ---------------------------------------------------------- microthreads
    def _on_mt_launch(self, now, core, mt_pc) -> None:
        assert core not in self._mt_open or self._killed, (
            f'core {core}: microthread launched at {now} (pc {mt_pc}) '
            f'inside an open one')
        self._mt_open.add(core)

    def _on_mt_end(self, now, core) -> None:
        assert core in self._mt_open, (
            f'core {core}: vend at {now} with no microthread open')
        self._mt_open.discard(core)

    # ---------------------------------------------------------------- frames
    def _on_frame_cfg(self, now, core, base, frame_size, num_slots) -> None:
        self._frame_cfg[core] = (base, frame_size, num_slots)
        self._frame_head[core] = 0
        for key in [k for k in self._frame_fill if k[0] == core]:
            del self._frame_fill[key]

    def _on_frame_words(self, now, core, offset, n, job) -> None:
        cfg = self._frame_cfg.get(core)
        assert cfg is not None, (
            f'core {core}: frame words at {now} with no frame queue')
        assert job is not None, (
            f'core {core}: frame words at {now} on a tile no job owns')
        base, fsize, nslots = cfg
        assert base <= offset and offset + n <= base + nslots * fsize, (
            f'core {core}: frame words [{offset}, {offset + n}) outside '
            f'the window [{base}, {base + nslots * fsize})')
        # the hardware's own inference: a slot holds the one frame of
        # the open window that maps to it
        head = self._frame_head[core]
        for rel in range(offset - base, offset - base + n):
            seq = head + (rel // fsize - head) % nslots
            key = (core, seq)
            self._frame_fill[key] = self._frame_fill.get(key, 0) + 1

    def _on_frame_start(self, now, core, seq) -> None:
        got = self._frame_fill.get((core, seq), 0)
        need = self._frame_cfg[core][1]
        assert got >= need, (
            f'core {core}: frame_start at {now} on frame {seq} with '
            f'{got} of {need} words')

    def _on_frame_free(self, now, core, seq) -> None:
        assert seq == self._frame_head[core], (
            f'core {core}: remem at {now} freed frame {seq}, expected '
            f'{self._frame_head[core]}')
        self._frame_head[core] = seq + 1
        self._frame_fill.pop((core, seq), None)
