"""Frame-queue bookkeeping for decoupled access/execute (paper Section 3.3).

A frame is a fixed-size chunk of a core's scratchpad that one microthread
consumes.  The scratchpad dedicates a circular buffer of ``num_slots``
frame-sized regions starting at ``base``.  Hardware keeps ``num_counters``
arrival counters (the paper uses five 10-bit counters): counter *i* counts
words that have arrived for frame ``head + i``.  When the head counter
reaches ``frame_size`` the frame is ready; freeing the head shifts all
counters left and zeroes the last one.

Frames are identified externally by their scratchpad offset; the queue infers
the *absolute* frame sequence number from the slot, which is unambiguous as
long as the open-frame window never exceeds the number of slots — exactly the
invariant the paper's compiler pacing (Section 4.2) guarantees.
"""

from __future__ import annotations


class FrameWindowOverflow(Exception):
    """Data arrived for a frame beyond the hardware counter window.

    In the paper this cannot happen for correctly compiled code: the
    compiler's implicit-synchronization bound paces the scalar core.  The
    simulator raises instead of corrupting state, modeling a hardware fault.
    """


class FrameQueue:
    """Arrival-counter bookkeeping for the DAE frame circular buffer."""

    def __init__(self, base: int, frame_size: int, num_slots: int,
                 num_counters: int = 5):
        if frame_size <= 0:
            raise ValueError('frame_size must be positive')
        if num_slots < num_counters:
            raise ValueError('need at least as many slots as counters '
                             '(window must fit in the buffer)')
        self.base = base
        self.frame_size = frame_size
        self.num_slots = num_slots
        self.num_counters = num_counters
        self.head = 0  # absolute sequence number of the head frame
        self.counters = [0] * num_counters
        self.total_words = 0
        self.frames_freed = 0

    @property
    def region_words(self) -> int:
        """Scratchpad words occupied by the frame buffer."""
        return self.num_slots * self.frame_size

    def slot_offset(self, seq: int) -> int:
        """Scratchpad offset of the frame with absolute sequence ``seq``."""
        return self.base + (seq % self.num_slots) * self.frame_size

    def seq_for_offset(self, spad_offset: int) -> int:
        """Infer the absolute frame sequence for an arriving word."""
        rel = spad_offset - self.base
        if not 0 <= rel < self.region_words:
            raise ValueError(f'offset {spad_offset} outside frame region')
        slot = rel // self.frame_size
        head_slot = self.head % self.num_slots
        return self.head + ((slot - head_slot) % self.num_slots)

    def word_arrived(self, spad_offset: int) -> None:
        """Record one word arriving into the frame region."""
        seq = self.seq_for_offset(spad_offset)
        idx = seq - self.head
        if idx >= self.num_counters:
            raise FrameWindowOverflow(
                f'word for frame {seq} but window is '
                f'[{self.head}, {self.head + self.num_counters})')
        self.counters[idx] += 1
        if self.counters[idx] > self.frame_size:
            raise FrameWindowOverflow(
                f'frame {seq} received more than {self.frame_size} words')
        self.total_words += 1

    def head_ready(self) -> bool:
        """Is the frame at the head of the queue completely filled?"""
        return self.counters[0] >= self.frame_size

    def head_offset(self) -> int:
        return self.slot_offset(self.head)

    def free_head(self) -> None:
        """Free the head frame (the ``remem`` instruction)."""
        if not self.head_ready():
            raise FrameWindowOverflow(
                f'remem on frame {self.head} before it was filled')
        self.head += 1
        self.counters.pop(0)
        self.counters.append(0)
        self.frames_freed += 1

    def open_frames(self) -> int:
        """Number of frames in the window with at least one arrived word."""
        return sum(1 for c in self.counters if c > 0)

    def __repr__(self):
        return (f'FrameQueue(head={self.head}, counters={self.counters}, '
                f'fsize={self.frame_size}, slots={self.num_slots})')
