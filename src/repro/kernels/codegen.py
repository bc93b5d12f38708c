"""Kernel code generation: the role of the paper's compiler (Section 4).

The paper compiles C with GCC and splits scalar / microthread code with an
assembly post-pass.  Here, benchmarks are written against two builders that
encapsulate the same structure:

* :class:`MimdKernelBuilder` — SPMD programs for the NV / NV_PF / PCV
  configurations.  Each active core partitions work by its thread id.
* :class:`VectorKernelBuilder` — software-defined vector programs.  It plans
  the vector groups, emits the dispatch preamble (every core finds its role
  and runs ``vconfig``), generates one specialized scalar stream per group
  (with group constants baked in), and appends the shared microthreads.

The builders also own the **DAE pacing discipline** of Section 4.2: the
scalar stream is emitted as ``prologue(ahead) -> steady loop -> epilogue``
so that at most ``safe_runahead`` frames are ever in flight, which the
scratchpad's frame-counter window then never overflows.

Register conventions (documented so benchmarks compose safely):

=========  =======================================================
register   use
=========  =======================================================
x1..x19    free for benchmark scalar code
x20, x21   builder loop counters
x22        rotating frame-slot offset (scalar DAE streams)
x23        frame region size (wrap bound)
x24..x27   builder scratch / vload offset staging
x28        microthread frame pointer (``frame_start`` destination)
x29        microthread cached lane id
x30, x31   scratch (x31 is used by ``Assembler.for_range``)
f0..f31    free for benchmark code
=========  =======================================================
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.sync import instruction_delay_bound, safe_runahead
from ..core.vgroup import GroupDescriptor, plan_groups, plan_groups_in
from ..isa import Assembler, Program, VL_GROUP, VL_PREFIX, VL_SUFFIX, \
    opcodes as op


def pack_frame_cfg(frame_size: int, num_slots: int) -> int:
    """Pack (frame_size, num_slots) for the FRAME_CFG CSR."""
    if not 0 < frame_size < 4096 or not 0 < num_slots < 4096:
        raise ValueError('frame_size/num_slots out of CSR field range')
    return frame_size | (num_slots << 12)


# --------------------------------------------------------------------------- MIMD
class MimdKernelBuilder:
    """SPMD skeleton: every active core runs each kernel, then barriers.

    Kernels read the core's rank from ``x1`` (thread id) and the active
    core count from ``x2``; a global barrier separates consecutive kernels
    (as in the paper's evaluation).  ``loop(n)`` wraps enclosed kernels in
    a run-time repetition whose index lives in ``x19`` (e.g. fdtd-2d's time
    loop).
    """

    def __init__(self):
        self.asm = Assembler()
        a = self.asm
        a.csrr('x1', op.CSR_TID)
        a.csrr('x2', op.CSR_NCORES)
        a.li('x19', 0)
        self._in_loop = False

    def add_kernel(self, body: Callable[[Assembler], None]) -> None:
        body(self.asm)
        self.asm.barrier()

    @contextmanager
    def loop(self, n_iters: int):
        """Repeat the enclosed kernels ``n_iters`` times (index in x19)."""
        if self._in_loop:
            raise ValueError('kernel loops do not nest')
        self._in_loop = True
        a = self.asm
        a.li('x19', 0)
        top = a.label()
        a.bind(top)
        yield
        a.addi('x19', 'x19', 1)
        a.li('x18', n_iters)
        a.blt('x19', 'x18', top.name)
        self._in_loop = False

    def build(self) -> Program:
        self.asm.halt()
        return self.asm.finish()


# -------------------------------------------------------------------- NV_PF DAE
@dataclass
class SelfDaeStream:
    """Per-core DAE prefetch stream for the NV_PF / PCV_PF configurations.

    An independent core uses SELF vloads to prefetch line-sized frames into
    its own scratchpad, running ``ahead`` frames in front of consumption —
    the paper's "non-blocking wide loads for MLP" baseline.
    """

    frame_size: int
    num_slots: int
    ahead: int

    def emit_config(self, a: Assembler) -> None:
        a.li('x30', pack_frame_cfg(self.frame_size, self.num_slots))
        a.csrw(op.CSR_FRAME_CFG, 'x30')
        a.li('x22', 0)
        a.li('x23', self.frame_size * self.num_slots)

    def emit_advance_slot(self, a: Assembler) -> None:
        lab = a.label()
        a.addi('x22', 'x22', self.frame_size)
        a.blt('x22', 'x23', lab.name)
        a.li('x22', 0)
        a.bind(lab)


def self_dae_loop(a: Assembler, stream: SelfDaeStream, n_iters: int,
                  emit_loads: Callable[[Assembler], None],
                  emit_advance: Callable[[Assembler], None],
                  emit_consume: Callable[[Assembler], None]) -> None:
    """Software-pipelined prefetch loop on an independent core.

    ``emit_loads`` issues the SELF vloads for one frame at the current
    addresses; ``emit_advance`` bumps the address registers; ``emit_consume``
    does ``frame_start`` / compute / ``remem`` for one frame.  ``n_iters``
    is a compile-time trip count.
    """
    ahead = min(stream.ahead, n_iters)
    for _ in range(ahead):  # prologue: fill the pipeline
        emit_loads(a)
        stream.emit_advance_slot(a)
        emit_advance(a)
    steady = n_iters - ahead
    if steady > 0:
        with a.for_count('x20', steady):
            emit_loads(a)
            stream.emit_advance_slot(a)
            emit_advance(a)
            emit_consume(a)
    for _ in range(ahead):  # epilogue: drain
        emit_consume(a)


# ------------------------------------------------------------------- vector SDV
@dataclass
class GroupCtx:
    """Per-group context handed to the scalar-stream generator."""

    group_id: int
    num_groups: int
    lanes: int
    frame_size: int
    num_slots: int
    ahead: int
    desc: GroupDescriptor


class VectorKernelBuilder:
    """Build an SPMD program with software-defined vector groups.

    Parameters
    ----------
    fabric:
        The target fabric; group descriptors are registered with it.
    lanes:
        Vector length (lanes per group, excluding the scalar core).
    frame_size, num_slots:
        DAE frame configuration applied on every lane.  May be left out
        when every ``vector_phase`` names its own frame size.
    max_groups:
        Optionally cap the number of groups (else pack the whole mesh).
    mt_body_instrs:
        Estimated microthread length, used for the Section 4.2 runahead
        bound.
    tiles:
        Optional explicit, path-ordered tile region to carve groups from
        (the serving allocator's region) instead of planning over the whole
        mesh.  Group ids and the NGROUPS CSR are scoped to this region.
    """

    def __init__(self, fabric, lanes: int, frame_size: Optional[int] = None,
                 num_slots: int = None, max_groups: int = None,
                 mt_body_instrs: int = 16,
                 tiles: Optional[Sequence[int]] = None):
        cfg = fabric.cfg
        self.fabric = fabric
        self.lanes = lanes
        self.frame_size = self.num_slots = None
        if frame_size is not None:
            self.set_frame_size(frame_size, num_slots)
        if tiles is not None:
            self.groups, self.idle = plan_groups_in(tiles, lanes,
                                                    max_groups)
        else:
            self.groups, self.idle = plan_groups(
                cfg.mesh_width, cfg.mesh_height, lanes, max_groups)
        if not self.groups:
            where = f'{len(tiles)}-tile region' if tiles is not None \
                else 'mesh'
            raise ValueError(f'no {lanes}-lane group fits the {where}')
        self.handles = {}
        for g in self.groups:
            self.handles[g.group_id] = fabric.register_group(g)
        # Static DAE pacing needs room in the frame-counter window for the
        # runahead distance plus every microthread launch the inet can
        # buffer (paper Section 4.2).  A queue deeper than the window
        # cannot be paced by vissue backpressure alone.
        if cfg.frame_counters - cfg.inet_queue_entries - 1 < 1:
            raise ValueError(
                f'inet queue of {cfg.inet_queue_entries} cannot be '
                f'statically paced with {cfg.frame_counters} frame '
                f'counters (need inet_queue <= frame_counters - 2)')
        self.ahead = safe_runahead(lanes + 1, mt_body_instrs,
                                   max_frames=cfg.frame_counters,
                                   inet_queue=cfg.inet_queue_entries,
                                   pipeline_buf_total=cfg.pipeline_buf_total,
                                   rob_entries=cfg.rob_entries)
        self.sync_bound = instruction_delay_bound(
            lanes + 1, cfg.inet_queue_entries, cfg.pipeline_buf_total,
            cfg.rob_entries)

    def set_frame_size(self, frame_size: int,
                       num_slots: Optional[int] = None) -> None:
        """Reconfigure the frame geometry for the next vector phase.

        Each kernel configures its frame size via the FRAME_CFG CSR before
        forming its vector group (paper Section 2.3.1); phases with
        different per-microthread data footprints therefore use different
        frame sizes within one program.
        """
        cfg = self.fabric.cfg
        if num_slots is None:
            num_slots = max(cfg.frame_counters,
                            min(8, cfg.spad_words // (2 * frame_size)))
        if frame_size * num_slots > cfg.spad_words:
            raise ValueError('frame region exceeds scratchpad capacity')
        if num_slots < cfg.frame_counters:
            raise ValueError('fewer frame slots than hardware counters')
        self.frame_size = frame_size
        self.num_slots = num_slots

    # -- program skeleton ------------------------------------------------------
    def program(self) -> 'VectorProgram':
        """Start a phase-structured program (see :class:`VectorProgram`)."""
        return VectorProgram(self)

    def build(self, scalar_stream: Callable[[Assembler, GroupCtx], None],
              microthreads: Callable[[Assembler], None]) -> Program:
        """Assemble a single-phase program (convenience wrapper).

        ``scalar_stream(a, g)`` emits one group's scalar code (between
        ``vconfig`` and ``devec``).  ``microthreads(a)`` emits the shared,
        labeled microthread bodies.
        """
        p = self.program()
        p.vector_phase(scalar_stream)
        return p.finish(microthreads)

    # -- scalar-side DAE helpers ---------------------------------------------
    def emit_vload_at(self, a: Assembler, off_reg: str, addr_reg: str,
                      width: int, variant: int = VL_GROUP, core_off: int = 0,
                      unaligned: bool = False) -> None:
        """Issue a wide load with an explicit scratchpad-offset register."""
        if unaligned:
            a.vload(off_reg, addr_reg, core_off, width, variant, VL_PREFIX)
            a.vload(off_reg, addr_reg, core_off, width, variant, VL_SUFFIX)
        else:
            a.vload(off_reg, addr_reg, core_off, width, variant)

    def emit_advance_slot(self, a: Assembler) -> None:
        lab = a.label()
        a.addi('x22', 'x22', self.frame_size)
        a.blt('x22', 'x23', lab.name)
        a.li('x22', 0)
        a.bind(lab)

    def dae_loop(self, a: Assembler, n_iters: int,
                 emit_loads: Callable[[Assembler], None],
                 emit_advance: Callable[[Assembler], None],
                 body_label: str) -> None:
        """Software-pipelined scalar stream: loads run ``ahead`` frames in
        front of the ``vissue``d bodies (paper Figure 3)."""
        ahead = min(self.ahead, n_iters)
        for _ in range(ahead):
            emit_loads(a)
            self.emit_advance_slot(a)
            emit_advance(a)
        steady = n_iters - ahead
        if steady > 0:
            with a.for_count('x20', steady):
                a.vissue(body_label)
                emit_loads(a)
                self.emit_advance_slot(a)
                emit_advance(a)
        for _ in range(ahead):
            a.vissue(body_label)

    def emit_sync_pad(self, a: Assembler) -> None:
        """Pad a microthread with the Section 4.2 instruction-count barrier.

        After these nops, every lane in the group is guaranteed to have
        executed any instruction that preceded the pad (plus a small margin
        for remote-store flight time across the mesh).
        """
        margin = self.lanes + 4
        for _ in range(self.sync_bound + margin):
            a.nop()


class VectorProgram:
    """A phase-structured SPMD program over software-defined vector groups.

    The paper's applications form vector groups at the start of each kernel,
    disband them at the end, and synchronize with a global barrier between
    kernels (Section 6.1).  A *phase* here is exactly one such kernel:

    * :meth:`vector_phase` — every group forms, runs its scalar stream
      (which ``vissue``s microthreads), disbands, and all cores barrier.
      Tiles that belong to no group skip straight to the barrier.
    * :meth:`mimd_phase` — all cores run an SPMD body (used for cross-lane
      reductions, boundary fix-ups, transposes), then barrier.
    * :meth:`loop` — a run-time repetition of the enclosed phases (e.g.
      fdtd-2d's time loop); the iteration index lives in ``x19``.

    Lane registers persist across phases (devec does not clear state), so
    microthreads may carry accumulators from one phase to the next if the
    kernel requires it.
    """

    def __init__(self, builder: VectorKernelBuilder):
        self.b = builder
        self.asm = Assembler()
        self._phase_n = 0
        self._loop_depth = 0
        self._mt_emitters: List[Callable[[Assembler], None]] = []
        self._dispatch_tables: List[tuple] = []  # (base, {core: Label})
        self.asm.li('x19', 0)  # loop index register (see loop())

    def add_microthreads(self, emitter: Callable[[Assembler], None]) -> None:
        """Register microthread bodies to be appended after the main code."""
        self._mt_emitters.append(emitter)

    def vector_phase(self, scalar_stream: Callable[[Assembler, GroupCtx],
                                                   None],
                     frame_size: Optional[int] = None) -> None:
        a = self.asm
        b = self.b
        if frame_size is not None:
            b.set_frame_size(frame_size)
        if b.frame_size is None:
            raise ValueError('vector_phase needs a frame_size: none was '
                             'given here or to the builder')
        n = self._phase_n
        self._phase_n += 1
        resume = f'.resume_{n}'
        # Dispatch through a per-core entry table in global memory — the
        # software analogue of each core deriving its role from the vconfig
        # bitmask in O(1), instead of a long compare chain.
        table = b.fabric.alloc(b.fabric.cfg.num_cores)
        entries = {}
        for g in b.groups:
            for i, t in enumerate(g.tiles):
                kind = 'scalar' if i == 0 else 'lane'
                entries[t] = a.label(f'.{kind}_{n}_g{g.group_id}_{i}')
        self._dispatch_tables.append((table, dict(entries),
                                      a.label(resume)))
        a.csrr('x1', op.CSR_COREID)
        a.li('x30', table)
        a.add('x30', 'x30', 'x1')
        a.lw('x30', 'x30', 0)
        a.jr('x30')  # idle tiles land on the resume barrier

        for g in b.groups:
            handle = b.handles[g.group_id]
            for i in range(1, len(g.tiles)):
                a.bind(f'.lane_{n}_g{g.group_id}_{i}')
                a.li('x30', pack_frame_cfg(b.frame_size, b.num_slots))
                a.csrw(op.CSR_FRAME_CFG, 'x30')
                a.li('x30', handle)
                a.vconfig('x30')
                a.halt()  # unreachable: devec redirects to the resume label
            a.bind(f'.scalar_{n}_g{g.group_id}_0')
            a.li('x30', handle)
            a.vconfig('x30')
            a.li('x22', 0)
            a.li('x23', b.frame_size * b.num_slots)
            ctx = GroupCtx(g.group_id, len(b.groups), b.lanes,
                           b.frame_size, b.num_slots, b.ahead, g)
            scalar_stream(a, ctx)
            a.devec(resume)
            a.j(resume)

        a.bind(resume)
        a.barrier()

    def mimd_phase(self, body: Callable[[Assembler], None]) -> None:
        """All cores run ``body`` SPMD-style (tid in x1, ncores in x2)."""
        a = self.asm
        a.csrr('x1', op.CSR_TID)
        a.csrr('x2', op.CSR_NCORES)
        body(a)
        a.barrier()

    @contextmanager
    def loop(self, n_iters: int):
        """Repeat the enclosed phases ``n_iters`` times (index in x19)."""
        if self._loop_depth:
            raise ValueError('phase loops do not nest')
        self._loop_depth += 1
        a = self.asm
        a.li('x19', 0)
        top = a.label()
        a.bind(top)
        yield
        a.addi('x19', 'x19', 1)
        a.li('x18', n_iters)
        a.blt('x19', 'x18', top.name)
        self._loop_depth -= 1

    def finish(self,
               microthreads: Optional[Callable[[Assembler], None]] = None,
               ) -> Program:
        a = self.asm
        a.halt()
        if microthreads is not None:
            microthreads(a)
        for emitter in self._mt_emitters:
            emitter(a)
        program = a.finish()
        # patch the dispatch tables now that label PCs are resolved
        memory = self.b.fabric.memory
        for base, entries, resume in self._dispatch_tables:
            for cid in range(self.b.fabric.cfg.num_cores):
                lab = entries.get(cid, resume)
                memory[base + cid] = lab.pc
        return program


# ------------------------------------------------------------------- misc utils
def emit_fp_zero(a: Assembler, freg: str) -> None:
    """Zero a floating-point register."""
    a.li(freg, 0)
    a.fcvt_sw(freg, freg)


@contextmanager
def strided_loop(a: Assembler, total: int):
    """for x3 in range(tid, total, ncores) — x1/x2 hold tid/ncores."""
    a.mv('x3', 'x1')
    top = a.label()
    end = a.label()
    a.bind(top)
    a.li('x31', total)
    a.bge('x3', 'x31', end.name)
    yield
    a.add('x3', 'x3', 'x2')
    a.j(top.name)
    a.bind(end)
