"""Resumable sweep manifests.

A manifest is the durable to-do list of one sweep: every job spec plus
its terminal status.  The engine saves it after each finished job, so an
interrupted sweep (Ctrl-C, OOM, machine reboot) can be resumed with only
the missing/failed points re-executed.

Keys are recomputed from the specs on load: if the code-version salt was
bumped since the manifest was written, the stored keys no longer match
and every such entry is reset to pending — the manifest invalidates
itself exactly like the result store does.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..artifact import write_json_atomic
from .engine import CACHED, DONE, JobOutcome
from .spec import CODE_VERSION, JobSpec

MANIFEST_SCHEMA_VERSION = 1
MANIFEST_KIND = 'repro-sweep-manifest'

_FINISHED = (DONE, CACHED)


class SweepManifest:
    """Ordered ``key -> {spec, status, ...}`` map with atomic persistence."""

    def __init__(self, name: str = 'sweep',
                 specs: Optional[Sequence[JobSpec]] = None,
                 path: Optional[Union[str, Path]] = None):
        self.name = name
        self.path = Path(path) if path is not None else None
        self.entries: Dict[str, dict] = {}
        for s in specs or ():
            self.add(s)

    def add(self, spec: JobSpec) -> str:
        key = spec.key()
        if key not in self.entries:
            self.entries[key] = {'spec': spec.to_dict(), 'status': 'pending',
                                 'attempts': 0, 'error': '', 'elapsed': 0.0}
        return key

    # ------------------------------------------------------------- queries
    def specs(self) -> List[JobSpec]:
        return [JobSpec.from_dict(e['spec']) for e in self.entries.values()]

    def pending(self) -> List[JobSpec]:
        """Specs still needing execution (anything not done/cached)."""
        return [JobSpec.from_dict(e['spec'])
                for e in self.entries.values()
                if e['status'] not in _FINISHED]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.entries.values():
            out[e['status']] = out.get(e['status'], 0) + 1
        return out

    def record(self, outcome: JobOutcome) -> None:
        entry = self.entries.setdefault(
            outcome.key, {'spec': outcome.spec.to_dict()})
        entry.update(status=outcome.status, attempts=outcome.attempts,
                     error=outcome.error, elapsed=round(outcome.elapsed, 3))

    # -------------------------------------------------------------- persist
    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError('manifest has no path')
        self.path = target
        doc = {
            'schema_version': MANIFEST_SCHEMA_VERSION,
            'kind': MANIFEST_KIND,
            'name': self.name,
            'code_version': CODE_VERSION,
            'jobs': self.entries,
        }
        # plan order is the resume order, so keys stay unsorted
        write_json_atomic(doc, target, sort_keys=False)
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> 'SweepManifest':
        with open(path) as f:
            doc = json.load(f)
        if doc.get('kind') != MANIFEST_KIND:
            raise ValueError(f'{path}: not a sweep manifest')
        if doc.get('schema_version') != MANIFEST_SCHEMA_VERSION:
            raise ValueError(f'{path}: manifest schema '
                             f'v{doc.get("schema_version")} unsupported')
        m = cls(name=doc.get('name', 'sweep'), path=path)
        for stored_key, entry in doc.get('jobs', {}).items():
            spec = JobSpec.from_dict(entry['spec'])
            key = spec.key()
            fresh = dict(entry, spec=spec.to_dict())
            if key != stored_key:
                # the code-version salt moved under this manifest: the old
                # result is unaddressable, so the point runs again.
                fresh.update(status='pending', attempts=0, error='',
                             elapsed=0.0)
            m.entries[key] = fresh
        return m
