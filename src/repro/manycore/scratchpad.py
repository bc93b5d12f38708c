"""Per-tile scratchpad with optional DAE frame-queue region.

The scratchpad is explicitly managed software memory (no coherence).  When a
core configures frames (via the frame-config CSR), the low region becomes
the circular frame buffer of :class:`repro.core.frames.FrameQueue`; the rest
stays available for programmer data and the stack.  Words arriving from the
memory system with the frame flag set bump the arrival counters.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.frames import FrameQueue


class ScratchpadError(Exception):
    """Out-of-bounds or misconfigured scratchpad access."""


class Scratchpad:
    """Word-addressed local memory with frame bookkeeping."""

    def __init__(self, words: int, stats):
        self.words = words
        self.data = [0.0] * words
        self.stats = stats
        self.frames: Optional[FrameQueue] = None

    def configure_frames(self, frame_size: int, num_slots: int,
                         num_counters: int, base: int = 0) -> FrameQueue:
        region = frame_size * num_slots
        if base + region > self.words:
            raise ScratchpadError(
                f'frame region of {region} words exceeds scratchpad '
                f'({self.words} words)')
        self.frames = FrameQueue(base, frame_size, num_slots, num_counters)
        return self.frames

    def reset_frames(self) -> None:
        self.frames = None

    def read(self, offset: int):
        if not 0 <= offset < self.words:
            raise ScratchpadError(f'spad read at {offset} out of bounds')
        self.stats.spad_reads += 1
        return self.data[offset]

    def write(self, offset: int, value) -> None:
        if not 0 <= offset < self.words:
            raise ScratchpadError(f'spad write at {offset} out of bounds')
        self.stats.spad_writes += 1
        self.data[offset] = value

    def read_block(self, offset: int, n: int) -> list:
        """``n`` consecutive words (a PCV register): one check, one count."""
        end = offset + n
        if not (0 <= offset and end <= self.words):
            raise ScratchpadError(
                f'spad read [{offset}, {end}) out of bounds')
        self.stats.spad_reads += n
        return self.data[offset:end]

    def write_block(self, offset: int, values: Sequence) -> None:
        end = offset + len(values)
        if not (0 <= offset and end <= self.words):
            raise ScratchpadError(
                f'spad write [{offset}, {end}) out of bounds')
        self.stats.spad_writes += len(values)
        self.data[offset:end] = values

    def deliver(self, offset: int, values: Sequence, is_frame: bool) -> None:
        """A response packet (or remote store) lands in the scratchpad."""
        end = offset + len(values)
        if not (0 <= offset and end <= self.words):
            raise ScratchpadError(
                f'memory response [{offset}, {end}) out of bounds')
        self.data[offset:end] = list(values)
        self.stats.spad_writes += len(values)
        if is_frame:
            if self.frames is None:
                raise ScratchpadError('frame data arrived with no frame '
                                      'queue configured')
            for off in range(offset, end):
                self.frames.word_arrived(off)
