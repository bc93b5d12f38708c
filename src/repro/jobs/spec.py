"""Hashable job specifications and content-addressed cache keys.

A :class:`JobSpec` names one simulation point — (benchmark, configuration,
scale, machine overrides, active cores, parameter overrides) — in a fully
normalized form, so two call sites asking for the same point always build
the same spec and therefore the same cache key.  Normalization rules:

* ``params_override`` is stored as a sorted tuple of items (dict ordering
  never leaks into the key);
* ``active_cores=None``, ``()`` and ``[]`` all mean "the default core set"
  and normalize to ``None``;
* a :class:`~repro.manycore.config.MachineConfig` is flattened to a sorted
  tuple of its fields, so structurally equal configs key identically.

The key itself is a SHA-256 prefix over the canonical JSON of the spec
plus :data:`CODE_VERSION`, a salt bumped whenever a simulator change makes
old results incomparable — bumping it invalidates every persisted result
at once (the store never has to be cleared by hand).

This module deliberately depends only on the standard library and
``manycore.config`` so it can be imported from anywhere (telemetry,
harness, CLI) without cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

#: Bump when simulator semantics change and cached results must not be
#: reused.  Part of every job key, so stale store entries simply stop
#: matching instead of needing explicit invalidation.
CODE_VERSION = 1

DEFAULT_MAX_CYCLES = 200_000_000


def _canon(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace — stable across runs."""
    return json.dumps(obj, sort_keys=True, separators=(',', ':'))


def code_version_hash() -> str:
    """Stable short hash of the :data:`CODE_VERSION` salt.

    This is the exact serialization of the salt as it enters every
    :meth:`JobSpec.key`, so a bench/provenance record carrying it can be
    cross-checked against ``repro version`` from the shell: if the
    hashes differ, the two sides would address disjoint store keys.
    """
    return hashlib.sha256(_canon(CODE_VERSION).encode()).hexdigest()[:16]


def machine_hash(machine) -> str:
    """Stable short hash of a MachineConfig's fields.

    ``None`` (meaning "the configuration's own default machine") hashes to
    the literal string ``'default'`` so reports stay greppable.
    """
    if machine is None:
        return 'default'
    fields = machine if isinstance(machine, dict) \
        else dataclasses.asdict(machine)
    return hashlib.sha256(_canon(fields).encode()).hexdigest()[:16]


def _norm_machine(machine) -> Optional[Tuple[Tuple[str, object], ...]]:
    if machine is None:
        return None
    if isinstance(machine, tuple):
        return tuple(sorted((str(k), v) for k, v in machine))
    if isinstance(machine, dict):
        return tuple(sorted((str(k), v) for k, v in machine.items()))
    return tuple(sorted(dataclasses.asdict(machine).items()))


@dataclass(frozen=True)
class JobSpec:
    """One fully-normalized simulation point.  Build via :meth:`make`."""

    benchmark: str
    config: str
    scale: str = 'bench'
    verify: bool = True
    params_override: Tuple[Tuple[str, int], ...] = ()
    machine: Optional[Tuple[Tuple[str, object], ...]] = None
    active_cores: Optional[Tuple[int, ...]] = None
    max_cycles: int = DEFAULT_MAX_CYCLES

    @classmethod
    def make(cls, benchmark: str, config: str, scale: str = 'bench',
             verify: bool = True,
             params_override: Optional[Dict[str, int]] = None,
             machine=None,
             active_cores: Optional[Sequence[int]] = None,
             max_cycles: int = DEFAULT_MAX_CYCLES) -> 'JobSpec':
        """Normalizing constructor — the only way specs should be built."""
        params = tuple(sorted((params_override or {}).items()))
        cores = tuple(int(c) for c in active_cores) if active_cores else None
        return cls(benchmark=str(benchmark), config=str(config),
                   scale=str(scale), verify=bool(verify),
                   params_override=params, machine=_norm_machine(machine),
                   active_cores=cores, max_cycles=int(max_cycles))

    # ------------------------------------------------------------- accessors
    def params_dict(self) -> Dict[str, int]:
        return dict(self.params_override)

    def machine_config(self):
        """Reconstruct the MachineConfig override (or None)."""
        if self.machine is None:
            return None
        from ..manycore.config import MachineConfig
        return MachineConfig(**dict(self.machine))

    def label(self) -> str:
        """Short human-readable name for progress lines and summaries."""
        bits = [f'{self.benchmark}/{self.config}']
        if self.active_cores is not None:
            bits.append(f'cores={len(self.active_cores)}')
        if self.machine is not None:
            bits.append(f'machine={machine_hash(dict(self.machine))[:8]}')
        if self.params_override:
            bits.append('params=' + ','.join(
                f'{k}={v}' for k, v in self.params_override))
        return ' '.join(bits)

    # ------------------------------------------------------------------ keys
    def key(self, salt: Optional[int] = None) -> str:
        """Content-addressed cache key for this point.

        ``salt`` defaults to the module-level :data:`CODE_VERSION` read at
        call time, so bumping the global invalidates existing keys.
        """
        doc = [
            salt if salt is not None else CODE_VERSION,
            self.benchmark, self.config, self.scale, self.verify,
            [[k, v] for k, v in self.params_override],
            None if self.machine is None
            else [[k, v] for k, v in self.machine],
            None if self.active_cores is None else list(self.active_cores),
            self.max_cycles,
        ]
        return hashlib.sha256(_canon(doc).encode()).hexdigest()[:24]

    # --------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            'benchmark': self.benchmark,
            'config': self.config,
            'scale': self.scale,
            'verify': self.verify,
            'params_override': dict(self.params_override),
            'machine': None if self.machine is None else dict(self.machine),
            'active_cores': None if self.active_cores is None
            else list(self.active_cores),
            'max_cycles': self.max_cycles,
        }

    @classmethod
    def from_dict(cls, d: dict) -> 'JobSpec':
        return cls.make(
            d['benchmark'], d['config'], scale=d.get('scale', 'bench'),
            verify=d.get('verify', True),
            params_override=d.get('params_override') or None,
            machine=d.get('machine'),
            active_cores=d.get('active_cores'),
            max_cycles=d.get('max_cycles', DEFAULT_MAX_CYCLES))
