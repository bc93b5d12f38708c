"""The artifact envelope: one format for every ``repro-*`` JSON document.

Everything this repo archives — run, serve, fleet and sweep reports,
calibration / DSE artifacts, post-mortems — is a JSON object
with the same outer shape::

    {"schema_version": 1, "kind": "repro-...", "generated": {...},
     "label": "...", "provenance": {...},        # labelled kinds only
     ...body keys...}

A subsystem declares its kind once, as an :class:`Artifact` (body
schema, renderer, at most one extra invariant hook), and gets stamping,
validation, loading, atomic saving and canonical file naming from here;
``repro report FILE`` reads any of them through :func:`load_any`.  The
table of kinds lives in DESIGN.md ("Artifacts").

Schemas are a practical subset of JSON Schema enforced by the built-in
:func:`check_schema`, so artifacts stay checkable on machines without
the ``jsonschema`` package.  This module imports nothing from the
simulator at module level: provenance is resolved lazily, on stamp.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional

_TYPES = {
    'object': dict,
    'array': list,
    'string': str,
    'integer': int,
    'number': (int, float),
    'boolean': bool,
    'null': type(None),
}


class ReportValidationError(ValueError):
    """The file or document is not a valid artifact of the expected kind."""


def _check(doc, schema: dict, path: str, errors: List[str]) -> None:
    typ = schema.get('type')
    if typ is not None:
        py = _TYPES[typ]
        ok = isinstance(doc, py) and not (
            typ in ('integer', 'number') and isinstance(doc, bool))
        if not ok:
            errors.append(f'{path}: expected {typ}, got '
                          f'{type(doc).__name__}')
            return
    if 'enum' in schema and doc not in schema['enum']:
        errors.append(f'{path}: {doc!r} not in {schema["enum"]}')
    if 'minimum' in schema and isinstance(doc, (int, float)) \
            and not isinstance(doc, bool) and doc < schema['minimum']:
        errors.append(f'{path}: {doc} < minimum {schema["minimum"]}')
    if isinstance(doc, dict):
        for key in schema.get('required', ()):
            if key not in doc:
                errors.append(f'{path}: missing required key {key!r}')
        props = schema.get('properties', {})
        for key, sub in props.items():
            if key in doc:
                _check(doc[key], sub, f'{path}.{key}', errors)
    if isinstance(doc, list) and 'items' in schema:
        for i, item in enumerate(doc):
            _check(item, schema['items'], f'{path}[{i}]', errors)


def check_schema(doc, schema: dict) -> List[str]:
    """Validate ``doc`` against a schema; returns the error list."""
    errors: List[str] = []
    _check(doc, schema, '$', errors)
    return errors


# ------------------------------------------------------------------ provenance
GENERATED_SCHEMA = {
    'type': 'object',
    'required': ['git_sha', 'timestamp', 'python'],
    'properties': {
        'git_sha': {'type': 'string'},
        'timestamp': {'type': 'string'},
        'python': {'type': 'string'},
    },
}

PROVENANCE_SCHEMA = {
    'type': 'object',
    'required': ['code_version', 'code_version_hash', 'machine_hash'],
    'properties': {
        'code_version': {'type': 'integer'},
        'code_version_hash': {'type': 'string'},
        'machine_hash': {'type': 'string'},
    },
}


@functools.lru_cache(maxsize=None)
def git_sha(cwd: Optional[str] = None) -> str:
    """``git rev-parse HEAD``, forked once per process (and ``cwd``)."""
    try:
        out = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=cwd,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return 'unknown'


def _generated() -> dict:
    return {
        'git_sha': git_sha(),
        'timestamp': datetime.now(timezone.utc).isoformat(),
        'python': platform.python_version(),
    }


def provenance() -> dict:
    """The code-version + default-machine stamp labelled artifacts carry."""
    from .jobs.spec import CODE_VERSION, code_version_hash, machine_hash
    from .manycore import DEFAULT_CONFIG
    return {'code_version': CODE_VERSION,
            'code_version_hash': code_version_hash(),
            'machine_hash': machine_hash(DEFAULT_CONFIG)}


def envelope(kind: str, version: int, label: Optional[str] = None) -> dict:
    """The stamped outer keys of a new document; a ``label`` makes it a
    labelled one (``label`` + ``provenance``)."""
    doc = {'schema_version': version, 'kind': kind,
           'generated': _generated()}
    if label is not None:
        doc.update(label=label, provenance=provenance())
    return doc


# ------------------------------------------------------------------------ disk
def write_json_atomic(doc: dict, path, indent: Optional[int] = 1,
                      sort_keys: bool = True) -> str:
    """Write JSON via a pid-unique tmp file + ``os.replace``: a process
    killed mid-write leaves the previous file (or none), never a
    truncated one, and two writers of one path cannot share a tmp file.

    The defaults are the human-facing artifact encoding; ``indent=None``
    is the one-line encoding of :class:`~repro.jobs.ResultStore` entries.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f'.{tail}.{os.getpid()}.tmp')
    with open(tmp, 'w') as f:
        json.dump(doc, f, indent=indent, sort_keys=sort_keys)
        if indent is not None:
            f.write('\n')
    os.replace(tmp, path)
    return path


def _load(path: str, pick: Callable[[object], 'Artifact']) -> dict:
    """Read ``path`` and validate it as the artifact ``pick(doc)`` names;
    every way that can fail is one ReportValidationError naming the file."""
    try:
        with open(path) as f:
            doc = json.load(f)
        pick(doc).validate(doc)
    except OSError as exc:
        raise ReportValidationError(
            f'{path}: unreadable: {exc.strerror or exc}') from None
    except ReportValidationError as exc:
        raise ReportValidationError(f'{path}: {exc}') from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ReportValidationError(f'{path}: not JSON: {exc}') from None
    return doc


# -------------------------------------------------------------------- registry
#: kind -> Artifact, filled as the owning modules are imported
REGISTRY: Dict[str, 'Artifact'] = {}

#: the modules that declare an Artifact (the DESIGN.md table, by import path)
OWNERS = ('repro.telemetry.report', 'repro.serve.report',
          'repro.fleet.report', 'repro.jobs.report',
          'repro.model.calibrate', 'repro.dse.driver',
          'repro.flight.postmortem')

#: kind -> the rest of the sentence an old file of that kind is refused with
RETIRED = {
    'repro-bench-report': 'was retired in PR 24 (use '
                          'benchmarks/ladder/run.py and compare.py)',
}


class Artifact:
    """One registered document kind.

    ``body_schema`` lists the kind's own ``required`` keys and
    ``properties``; the envelope keys are injected here.  ``render``
    turns a valid document into its human-readable summary; ``check`` is
    an optional invariant beyond the schema, run on every validate.  A
    ``file_prefix`` makes the kind a *labelled* artifact: documents
    carry ``label`` + ``provenance`` and are canonically named
    ``<PREFIX>_<label>.json``.
    """

    def __init__(self, kind: str, version: int, body_schema: dict,
                 render: Callable[[dict], str],
                 check: Optional[Callable[[dict], None]] = None,
                 file_prefix: Optional[str] = None):
        if kind in REGISTRY:
            raise ValueError(f'artifact kind {kind!r} registered twice')
        self.kind = kind
        self.version = version
        self.render = render
        self.check = check
        self.file_prefix = file_prefix
        props = {'schema_version': {'type': 'integer', 'enum': [version]},
                 'kind': {'type': 'string', 'enum': [kind]},
                 'generated': GENERATED_SCHEMA}
        if file_prefix is not None:
            props.update(label={'type': 'string'},
                         provenance=PROVENANCE_SCHEMA)
        self.schema = {
            'type': 'object',
            'required': list(props) + list(body_schema.get('required', ())),
            'properties': {**props, **body_schema.get('properties', {})},
        }
        REGISTRY[kind] = self

    def stamp(self, body: dict, label: Optional[str] = None) -> dict:
        """Wrap ``body`` in a fresh envelope (pass ``label`` exactly for
        labelled kinds); the result is validated."""
        doc = {**envelope(self.kind, self.version, label), **body}
        self.validate(doc)
        return doc

    def validate(self, doc) -> None:
        """Raise :class:`ReportValidationError` unless ``doc`` is valid."""
        errors = check_schema(doc, self.schema)
        if errors:
            raise ReportValidationError('; '.join(errors[:20]))
        if self.check is not None:
            self.check(doc)

    def load(self, path: str) -> dict:
        return _load(path, lambda doc: self)

    def save(self, doc: dict, path: str) -> str:
        """Validate, then write atomically; returns ``path``."""
        self.validate(doc)
        return write_json_atomic(doc, path)

    def path(self, label: str, directory: str = '.') -> str:
        """Canonical artifact name: ``<PREFIX>_<label>.json``."""
        safe = ''.join(c if c.isalnum() or c in '-_.' else '-' for c in label)
        return os.path.join(directory, f'{self.file_prefix}_{safe}.json')


def registry() -> Dict[str, Artifact]:
    """:data:`REGISTRY` with every owning module imported."""
    for name in OWNERS:
        importlib.import_module(name)
    return REGISTRY


def _artifact_of(doc) -> Artifact:
    if not isinstance(doc, dict):
        raise ReportValidationError(
            f'expected a JSON object, got {type(doc).__name__}')
    known = registry()
    kind = doc.get('kind')
    if isinstance(kind, str):
        if kind in known:
            return known[kind]
        if kind in RETIRED:
            raise ReportValidationError(f'{kind!r} {RETIRED[kind]}')
    raise ReportValidationError(
        f'unknown kind {kind!r} (known: {", ".join(sorted(known))})')


def load_any(path: str) -> dict:
    """Load and validate a document of whichever registered kind it
    claims; render it with ``REGISTRY[doc['kind']].render(doc)``."""
    return _load(path, _artifact_of)
