"""One manycore tile: an in-order core with I-cache, scratchpad, and inet.

The pipeline model follows the paper's CPU (8-stage, single-issue, in-order
issue, out-of-order writeback, in-order commit) at issue granularity: at
most one instruction issues per cycle, destination/source registers are
tracked with a scoreboard whose release times model functional-unit
latencies, and loads occupy one of two load-queue entries until their
response returns.  Taken branches cost a fixed bubble.

A tile operates in one of four roles (paper Figure 1/6):

* ``independent`` — ordinary MIMD execution, fetching from its I-cache;
* ``scalar``      — leads a vector group; fetches normally, plus issues
  ``vissue`` / ``vload`` / ``devec`` on the group's behalf;
* ``expander``    — fetches microthread instructions and forwards them on
  the inet; executes them as lane 0;
* ``vector``      — frontend and I-cache disabled; executes instructions
  popped from the inet and forwards them downstream.

Stall accounting uses *gap attribution*: when an instruction finally issues,
the idle gap since the core was last ready is charged to the most recent
blocking cause, producing the CPI stacks of Figures 12/13/15.

This module is the tile's *sequencer*: when may the next instruction
issue, what does the wait get charged to, and where does the instruction
go next.  It reads only the static decode of :mod:`repro.isa.decode`
(``inst.deps``, ``inst.seq``, ``inst.mix`` ...) and never inspects an
opcode to compute a result — that is the *datapath*, the per-opcode
``inst.run(tile, now)`` closures of :mod:`repro.manycore.execute`, bound
when the fabric loads the program.

Every vector lane is sequenced on its own, one :meth:`Tile.step` per lane
per forwarded instruction; DESIGN.md ("The run loop") says why one
sequencer per group did not pay.  ``Tile`` declares ``__slots__`` because
the run loop and the step functions read its attributes on every issue.
"""

from __future__ import annotations

from ..core.vgroup import (ROLE_EXPANDER, ROLE_INDEPENDENT, ROLE_NAMES,
                           ROLE_VECTOR)
from ..core.inet import InetQueue, MSG_DEVEC, MSG_INST, MSG_LAUNCH
from ..isa import opcodes as op
from ..isa.decode import SEQ_FRAME, SEQ_LOAD, SEQ_SEND
from ..isa.instruction import Instr
from .icache import ICache
from .scratchpad import Scratchpad
from .stats import CoreStats

INF = 1 << 60

# run states
RUN = 0
WAIT_BARRIER = 1
WAIT_VCONFIG = 2
HALTED = 3


class SimError(Exception):
    """An architectural error detected during simulation."""


class Tile:
    """One core of the fabric: architectural state and the issue sequencer.

    What an issued instruction *does* lives in the per-opcode table of
    :mod:`repro.manycore.execute`; see the module docstring.
    """

    __slots__ = ('core_id', 'fabric', 'probes', 'cfg', 'stats', 'icache',
                 'spad', 'inet_in', 'program', 'pc', 'regs', 'vregs',
                 '_busy', '_busy_load', '_vbusy', 'lq_count', 'mode',
                 'state', 'halted', 'group', 'successor', 'lane_idx', 'pred',
                 'in_mt', 'mt_pc', 'fetch_stall_until', '_fetch_pc',
                 'next_wake', '_ready_at', '_stall_cause', 'tid',
                 'ncores_csr', 'group_id_csr', 'ngroups_csr', 'job')

    def __init__(self, core_id: int, fabric, cfg):
        self.core_id = core_id
        self.fabric = fabric
        self.probes = fabric.probes
        self.cfg = cfg
        self.stats = CoreStats()
        self.icache = ICache(cfg.icache_capacity_bytes, cfg.icache_ways,
                             cfg.cache_line_bytes, self.stats)
        self.spad = Scratchpad(cfg.spad_words, self.stats)
        self.inet_in = InetQueue(cfg.inet_queue_entries,
                                 cfg.router_hop_latency)

        self.program = None
        self.pc = 0
        self.regs = [0] * 64
        self.vregs = [[0.0] * cfg.simd_width for _ in range(8)]
        self._busy = [0] * 64  # scoreboard: cycle the register frees
        self._busy_load = [False] * 64  # true if busy due to pending load
        self._vbusy = [0] * 8
        self.lq_count = 0

        self.mode = ROLE_INDEPENDENT
        self.state = RUN
        self.halted = False
        self.group = None
        self.successor = None  # next Tile on the inet path
        self.lane_idx = -1
        self.pred = True

        # expander microthread fetch state
        self.in_mt = False
        self.mt_pc = 0

        # frontend state
        self.fetch_stall_until = 0
        self._fetch_pc = -1

        # scheduling / accounting
        self.next_wake = 0
        self._ready_at = 0
        self._stall_cause = 'other'
        self.tid = 0
        self.ncores_csr = 1
        self.group_id_csr = 0
        self.ngroups_csr = 0
        self.job = None  # owning FabricJob; None until a job launches here

    # ------------------------------------------------------------------ wiring
    def reset_for_job(self, program, tid: int, ncores: int, job,
                      start: int) -> None:
        """Hand this tile to a new job, to first step at cycle ``start``.

        This scrubs every piece of architectural and microarchitectural
        state a prior tenant may have left — registers, scoreboard, load
        queue, inet queue, frame config, I-cache — so the new job's
        behaviour (and its numeric output) cannot depend on what ran here
        before.
        """
        self.program = program
        self.pc = 0
        self.tid = tid
        self.ncores_csr = ncores
        self.job = job
        self.regs = [0] * 64
        self.vregs = [[0.0] * self.cfg.simd_width for _ in range(8)]
        self._busy = [0] * 64
        self._busy_load = [False] * 64
        self._vbusy = [0] * 8
        self.lq_count = 0
        self.mode = ROLE_INDEPENDENT
        self.state = RUN
        self.halted = False
        self.group = None
        self.successor = None
        self.lane_idx = -1
        self.pred = True
        self.in_mt = False
        self.mt_pc = 0
        self.fetch_stall_until = 0
        self._fetch_pc = -1
        self.next_wake = start
        self._ready_at = start
        self._stall_cause = 'other'
        self.group_id_csr = 0
        self.ngroups_csr = 0
        self.inet_in.clear()
        self.spad.reset_frames()
        self.icache.flush()

    def push_inet(self, kind: str, payload, now: int) -> None:
        """Called by the upstream tile; wakes this tile when data lands."""
        q = self.inet_in
        q.push(now, kind, payload)
        rec = self.probes.inet_push
        if rec is not None:
            rec((now, self.core_id, len(q.entries), q.capacity))
        self.fabric.wake_tile(self, now + q.hop_latency)

    # -------------------------------------------------------------- accounting
    def _stall(self, cause: str, wake: int) -> int:
        self._stall_cause = cause
        return wake

    def _charge_stall(self, gap: int, cause: str) -> None:
        st = self.stats
        if cause == 'inet_input':
            st.stall_inet_input += gap
        elif cause == 'frame':
            st.stall_frame += gap
        elif cause == 'scoreboard':
            st.stall_scoreboard += gap
        elif cause == 'backpressure':
            st.stall_backpressure += gap
        elif cause == 'other':
            st.stall_other += gap
        elif cause == 'branch':
            st.stall_branch += gap
        else:
            st.stall_loadq += gap

    def _commit_issue(self, inst: Instr, now: int) -> None:
        """Charge the wait to its cause and count the issue (and its mix)."""
        gap = now - self._ready_at
        if gap > 0:
            self._charge_stall(gap, self._stall_cause)
        self._ready_at = now + 1
        st = self.stats
        st.instrs += 1
        mix = inst.mix
        if mix == 'n_int_alu':
            st.n_int_alu += 1
        elif mix == 'n_fp':
            st.n_fp += 1
        elif mix == 'n_mem':
            st.n_mem += 1
        elif mix == 'n_simd':
            st.n_simd += 1
        elif mix == 'n_control':
            st.n_control += 1
        elif mix == 'n_mul':
            st.n_mul += 1
        else:
            st.n_div += 1
        q = self.probes.issue
        if q is not None:
            q((now, self.core_id, inst, self.mode))

    def _charge_gap(self, now: int, cause: str) -> None:
        """Attribute idle time without an instruction issue (mode changes)."""
        gap = now - self._ready_at
        if gap > 0:
            self._charge_stall(gap, cause)
        self._ready_at = now + 1

    # ------------------------------------------------------------------ stepping
    def step(self, now: int) -> int:
        """Advance this tile at cycle ``now``; returns the next wake cycle."""
        if self.state != RUN:
            return INF
        m = self.mode
        if m == ROLE_VECTOR:
            return self._step_vector(now)
        if m == ROLE_EXPANDER:
            return self._step_expander(now)
        return self._step_front(now)

    # -- frontend modes (independent / scalar) ---------------------------------
    def _step_front(self, now: int) -> int:
        if self.fetch_stall_until > now:
            return self.fetch_stall_until
        pc = self.pc
        instrs = self.program.instrs
        if pc >= len(instrs):
            raise SimError(f'core {self.core_id} fell off the program end')
        inst = instrs[pc]
        if self._fetch_pc != pc:
            pen = self.icache.fetch(pc)
            self._fetch_pc = pc
            if pen:
                self.fetch_stall_until = now + pen
                return self._stall('other', self.fetch_stall_until)
        wake = self._operands_busy_until(inst, now)
        if wake:
            return wake
        seq = inst.seq
        if seq:  # structural checks that must precede issue
            if seq == SEQ_LOAD:
                if self.lq_count >= self.cfg.load_queue_entries:
                    return self._stall('loadq', INF)
            elif seq == SEQ_FRAME:
                if not self._frame_ready():
                    return self._stall('frame', INF)
            elif seq == SEQ_SEND:
                succ = self.successor
                if succ is None:
                    raise SimError(f'{op.name(inst.op)} outside a vector '
                                   f'group (core {self.core_id})')
                if not succ.inet_in.can_accept():
                    return self._stall('backpressure', now + 1)
        self._commit_issue(inst, now)
        if seq > SEQ_FRAME:
            self._execute_sequenced(inst, now)
            return max(now + 1, self.fetch_stall_until)
        inst.run(self, now)
        self.pc = pc + 1
        return now + 1

    def _execute_sequenced(self, inst: Instr, now: int) -> None:
        """Frontend-mode instructions that steer the tile; advances self.pc."""
        o = inst.op
        if inst.ctrl:
            if o == op.J:
                self.pc = inst.imm
            elif o == op.JAL:
                if inst.rd:
                    self.regs[inst.rd] = self.pc + 1
                    self._busy[inst.rd] = now + 1
                self.pc = inst.imm
            elif o == op.JR:
                self.pc = int(self.regs[inst.rs1])
            else:
                taken, target = self._branch_outcome(inst)
                if not taken:
                    self.pc += 1
                    return
                self.pc = target
            self.fetch_stall_until = now + self.cfg.branch_bubble
            self._stall_cause = 'branch'
            return
        self.pc += 1
        if o == op.HALT:
            self.halted = True
            self.state = HALTED
            self.fabric.on_halt(self, now)
        elif o == op.BARRIER:
            self.fabric.barrier_arrive(self, now)
        elif o == op.VCONFIG:
            self.fabric.vconfig_arrive(self, int(self.regs[inst.rs1]), now)
        elif o == op.VISSUE:
            self.successor.push_inet(MSG_LAUNCH, inst.imm, now)
            self.stats.inet_forwards += 1
        else:  # DEVEC
            self.successor.push_inet(MSG_DEVEC, inst.imm, now)
            self.stats.inet_forwards += 1
            self.mode = ROLE_INDEPENDENT
            self.group = None
            self.successor = None

    def _branch_outcome(self, inst: Instr):
        o = inst.op
        if o == op.BEQ:
            return self.regs[inst.rs1] == self.regs[inst.rs2], inst.imm
        if o == op.BNE:
            return self.regs[inst.rs1] != self.regs[inst.rs2], inst.imm
        if o == op.BLT:
            return self.regs[inst.rs1] < self.regs[inst.rs2], inst.imm
        if o == op.BGE:
            return self.regs[inst.rs1] >= self.regs[inst.rs2], inst.imm
        return False, inst.imm

    # -- expander ---------------------------------------------------------------
    def _step_expander(self, now: int) -> int:
        if not self.in_mt:
            return self._await_launch(now)
        if self.fetch_stall_until > now:
            return self.fetch_stall_until
        inst = self.program.instrs[self.mt_pc]
        if self._fetch_pc != self.mt_pc:
            pen = self.icache.fetch(self.mt_pc)
            self._fetch_pc = self.mt_pc
            if pen:
                self.fetch_stall_until = now + pen
                return self._stall('other', self.fetch_stall_until)
        succ = self.successor
        forward = succ is not None and inst.forwards
        if forward:
            sq = succ.inet_in
            if len(sq.entries) >= sq.capacity:
                return self._stall('backpressure', now + 1)
        ctrl = inst.ctrl
        skip = not self.pred and not inst.pred_exempt and not ctrl
        if not skip:
            if inst.seq == SEQ_FRAME and not self._frame_ready():
                return self._stall('frame', INF)
            wake = self._operands_busy_until(inst, now)
            if wake:
                return wake
        self._commit_issue(inst, now)
        if forward:
            self._forward(succ, inst, now)
        if inst.op == op.VEND:
            self.in_mt = False
            q = self.probes.mt_end
            if q is not None:
                q((now, self.core_id))
            return now + 1
        if ctrl:
            self._execute_control_mt(inst, now)
        else:
            if not skip:
                inst.run(self, now)
            self.mt_pc += 1
        return max(now + 1, self.fetch_stall_until)

    def _await_launch(self, now: int) -> int:
        """Expander between microthreads: wait for a ``vissue`` or ``devec``."""
        q = self.inet_in
        msg = q.peek(now)
        if msg is None:
            nr = q.next_ready_cycle()
            return self._stall('inet_input', nr if nr is not None else INF)
        kind, payload = msg
        if kind == MSG_DEVEC:
            return self._handle_devec(payload, now)
        if kind != MSG_LAUNCH:
            raise SimError(f'expander received unexpected inet message '
                           f'{kind!r}')
        q.pop(now)
        self.in_mt = True
        self.mt_pc = payload
        self.stats.microthreads += 1
        self._charge_gap(now, 'inet_input')
        self._fetch_pc = -1
        q = self.probes.mt_launch
        if q is not None:
            q((now, self.core_id, payload))
        return now + 1

    def _execute_control_mt(self, inst: Instr, now: int) -> None:
        """Branches/jumps inside a microthread (expander only)."""
        o = inst.op
        if o in (op.J, op.JAL):
            if o == op.JAL:
                self.regs[inst.rd] = self.mt_pc + 1
            self.mt_pc = inst.imm
            bubble = True
        elif o == op.JR:
            self.mt_pc = int(self.regs[inst.rs1])
            bubble = True
        else:
            taken, target = self._branch_outcome(inst)
            self.mt_pc = target if taken else self.mt_pc + 1
            # the expander pauses fetch on *every* branch until it resolves,
            # to avoid forwarding wrong-path instructions (paper Section 3.2)
            bubble = taken or self.cfg.expander_pause_on_branch
        if bubble:
            self.fetch_stall_until = now + self.cfg.branch_bubble
            self._stall_cause = 'branch'

    # -- vector lane --------------------------------------------------------------
    def _step_vector(self, now: int) -> int:
        # The fabric's hottest function (N-2 of every N group tiles run it
        # for every forwarded instruction), so both inet hops work on the
        # queues' deques directly: the stall rules below *are* the queue
        # protocol's two checks (head has crossed the link; room downstream).
        entries = self.inet_in.entries
        if not entries or entries[0][0] > now:
            self._stall_cause = 'inet_input'
            return entries[0][0] if entries else INF
        _, kind, inst = entries[0]
        if kind != MSG_INST:
            if kind == MSG_DEVEC:
                return self._handle_devec(inst, now)
            raise SimError(f'vector core {self.core_id} received {kind!r}')
        succ = self.successor
        if succ is not None:
            sq = succ.inet_in
            if len(sq.entries) >= sq.capacity:
                self._stall_cause = 'backpressure'
                return now + 1
        skip = not self.pred and not inst.pred_exempt
        if inst.seq == SEQ_FRAME and not self._frame_ready():
            return self._stall('frame', INF)
        if not skip:
            wake = self._operands_busy_until(inst, now)
            if wake:
                return wake
        entries.popleft()  # the head was seen ready above
        if succ is not None:
            self._forward(succ, inst, now)
        self._commit_issue(inst, now)
        if not skip:
            inst.run(self, now)
        return now + 1

    def _forward(self, succ: 'Tile', inst: Instr, now: int) -> None:
        """Send ``inst`` down the inet.  The caller has just seen room in
        ``succ``'s queue (its backpressure stall rule), so this appends
        without ``InetQueue.push``'s second capacity check."""
        sq = succ.inet_in
        ready = now + sq.hop_latency
        sq.entries.append((ready, MSG_INST, inst))
        sq.pushes += 1
        if len(sq.entries) > sq.peak_depth:
            sq.peak_depth = len(sq.entries)
        q = self.probes.inet_push
        if q is not None:
            q((now, succ.core_id, len(sq.entries), sq.capacity))
        if ready < succ.next_wake:
            self.fabric.wake_tile(succ, ready)
        self.stats.inet_forwards += 1

    def _handle_devec(self, resume_pc: int, now: int) -> int:
        succ = self.successor
        if succ is not None:
            if not succ.inet_in.can_accept():
                return self._stall('backpressure', now + 1)
            succ.push_inet(MSG_DEVEC, resume_pc, now)
        self.inet_in.pop(now)
        self._charge_gap(now, 'inet_input')
        self._leave_group(resume_pc)
        return now + 1

    def _leave_group(self, resume_pc: int) -> None:
        self.mode = ROLE_INDEPENDENT
        self.group = None
        self.successor = None
        self.lane_idx = -1
        self.pred = True
        self.in_mt = False
        self.pc = resume_pc
        self._fetch_pc = -1

    def _frame_ready(self) -> bool:
        fq = self.spad.frames
        if fq is None:
            raise SimError(f'frame_start with no frame config '
                           f'(core {self.core_id})')
        return fq.head_ready()

    # ---------------------------------------------------------------- scoreboard
    def _operands_busy_until(self, inst: Instr, now: int) -> int:
        """0 if every operand is ready; else the wake cycle (stall recorded).

        ``inst.deps`` lists sources then destinations, so a later write to
        a register with a pending load is held as well (WAW).
        """
        busy = self._busy
        worst = now
        is_load = False
        for r in inst.deps:
            b = busy[r]
            if b > worst:
                worst = b
                is_load = self._busy_load[r]
        if inst.vdeps:
            vbusy = self._vbusy
            for r in inst.vdeps:
                if vbusy[r] > worst:
                    worst = vbusy[r]
        if worst <= now:
            return 0
        self._stall_cause = 'frame' if is_load else 'scoreboard'
        return worst

    # ------------------------------------------------------------------- CSRs
    def _csr_write(self, csr: int, value) -> None:
        if csr == op.CSR_FRAME_CFG:
            v = int(value)
            frame_size = v & 0xFFF
            slots = (v >> 12) & 0xFFF
            fq = self.spad.configure_frames(frame_size, slots,
                                            self.cfg.frame_counters)
            q = self.probes.frame_cfg
            if q is not None:
                q((self.fabric.cycle, self.core_id, fq.base, fq.frame_size,
                   fq.num_slots))
        elif csr == op.CSR_VCONFIG:
            pass  # modeled via the VCONFIG instruction
        else:
            raise SimError(f'write to unknown CSR {csr}')

    def _csr_read(self, csr: int):
        if csr == op.CSR_TID:
            return self.lane_idx if self.lane_idx >= 0 else self.tid
        if csr == op.CSR_GROUP_SIZE:
            return self.group.num_lanes if self.group else 1
        if csr == op.CSR_COREID:
            return self.core_id
        if csr == op.CSR_NCORES:
            return self.ncores_csr
        if csr == op.CSR_GROUP_ID:
            return self.group_id_csr
        if csr == op.CSR_NGROUPS:
            return self.ngroups_csr
        raise SimError(f'read of unknown CSR {csr}')

    def __repr__(self):
        return (f'<Tile {self.core_id} {ROLE_NAMES[self.mode]} pc={self.pc} '
                f'state={self.state}>')

    # ------------------------------------------------------------- diagnostics
    def blocked_instruction(self) -> str:
        """The instruction this tile is stuck on, best-effort by role."""
        if self.state == WAIT_BARRIER:
            return 'barrier'
        if self.state == WAIT_VCONFIG:
            return f'vconfig (group {self.group.group_id})' \
                if self.group else 'vconfig'
        if self.mode == ROLE_VECTOR or (self.mode == ROLE_EXPANDER
                                        and not self.in_mt):
            msg = self.inet_in.peek(1 << 62)
            if msg is None:
                return '<inet empty>'
            kind, payload = msg
            return f'{kind} {payload!r}'
        prog, pc = self.program, (self.mt_pc if self.in_mt else self.pc)
        if prog is None or not 0 <= pc < len(prog.instrs):
            return f'<pc {pc} out of range>'
        return f'pc={pc} {prog.instrs[pc]!r}'

    def describe_wait_state(self) -> str:
        """One dump line for DeadlockError diagnostics."""
        parts = [f'core {self.core_id} [{ROLE_NAMES[self.mode]}]',
                 f'stall={self._stall_cause}',
                 f'blocked-on: {self.blocked_instruction()}']
        fq = self.spad.frames
        if fq is not None:
            parts.append(f'frames: head={fq.head} '
                         f'open={fq.open_frames()}/{fq.num_counters} '
                         f'counters={fq.counters}')
        else:
            parts.append('frames: unconfigured')
        parts.append(f'inet-depth={len(self.inet_in)}/'
                     f'{self.inet_in.capacity}')
        parts.append(f'lq={self.lq_count}')
        parts.append(f'job={self.job.job_id}')
        return '  '.join(parts)
