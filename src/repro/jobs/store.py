"""Content-addressed on-disk result store.

One JSON file per result, named by the job key (see
:meth:`repro.jobs.JobSpec.key`); because the key covers the benchmark,
parameters, configuration, machine fields, active cores and the
code-version salt, a stored result can never be served for a point it
does not exactly describe — stale results after a simulator change simply
stop being addressed.

Writes are atomic (:func:`repro.artifact.write_json_atomic`) and
performed only by the sweep parent process — workers hand results back
over a pipe — so there are no cross-process write races.  Reads are
fully defensive: a corrupt, truncated, or schema-incompatible file is a
cache miss, never an error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union

from ..artifact import write_json_atomic
from .serialize import RESULT_SCHEMA_VERSION, result_from_dict, \
    result_to_dict


class ResultStore:
    """Persistent ``key -> RunResult`` map rooted at a directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> Path:
        return self.root / f'{key}.json'

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self) -> List[str]:
        return sorted(p.stem for p in self.root.glob('*.json'))

    def get(self, key: str):
        """Return the stored RunResult for ``key``, or None on any miss."""
        try:
            with open(self.path(key)) as f:
                doc = json.load(f)
            if doc.get('store_schema_version') != RESULT_SCHEMA_VERSION:
                raise ValueError('store schema mismatch')
            if doc.get('key') != key:
                raise ValueError('key mismatch')
            result = result_from_dict(doc['result'], source='store')
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _write(self, key: str, field: str, value: dict) -> Path:
        target = self.path(key)
        write_json_atomic({'store_schema_version': RESULT_SCHEMA_VERSION,
                           'key': key, field: value},
                          target, indent=None, sort_keys=False)
        return target

    def put(self, key: str, result) -> Path:
        """Atomically persist one result under ``key``."""
        return self._write(key, 'result', result_to_dict(result))

    def put_doc(self, key: str, doc: dict) -> Path:
        """Atomically persist an arbitrary JSON document (e.g. a serving
        report) under ``key``.  Keys for documents must carry a kind
        prefix (``serve-...``) so they can never shadow a sweep result."""
        return self._write(key, 'doc', doc)

    def get_doc(self, key: str) -> Optional[dict]:
        """Return a stored document for ``key``, or None on any miss."""
        try:
            with open(self.path(key)) as f:
                wrapper = json.load(f)
            if wrapper.get('store_schema_version') != RESULT_SCHEMA_VERSION:
                raise ValueError('store schema mismatch')
            if wrapper.get('key') != key:
                raise ValueError('key mismatch')
            doc = wrapper['doc']
            if not isinstance(doc, dict):
                raise TypeError('document is not an object')
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return doc

    def total_bytes(self) -> int:
        """On-disk footprint of every stored result, in bytes."""
        n = 0
        for p in self.root.glob('*.json'):
            try:
                n += p.stat().st_size
            except OSError:
                pass
        return n

    def clear(self) -> int:
        """Delete every stored result; returns how many were removed."""
        n = 0
        for p in self.root.glob('*.json'):
            p.unlink()
            n += 1
        return n
