"""Golden fleet observations: the flight journal and merged trace bytes.

The fleet-side counterpart of ``tests/data/probe_golden.json``.  For the
crash-reroute fleet run ``tests/test_fleet_flight.py`` drives and for the
hand-built ``_rerouted_trace()`` of ``tests/test_flight_trace.py``, this
pins the sha256 of

* the merged Chrome-trace file as ``write_merged_trace`` writes it;
* the flight journal's lines, with the header's ``generated`` and
  ``provenance`` stamps (time, git sha, code hash) removed.

Both are byte digests, so a change of key order in a span record or a
trace event fails here.  Print fresh digests, only when an output is
meant to change, with::

    PYTHONPATH=src python tests/test_flight_golden.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from repro.fleet import FleetRouter
from repro.flight import FleetFlight, write_journal, write_merged_trace
from tests.test_fleet_flight import _config, _trace
from tests.test_flight_trace import _rerouted_trace

GOLDEN = {
    'fleet': {
        'merged_trace': '9cbb1c5f2026593c30a64ec9eb937d5e'
                        '656290eff76efcb553160e5691e59416',
        'journal': '7ffd1c6c19b7c2a2881ada5b3480dd1a'
                   '1f35fb5ca0ca7d24c80a0798f99d0183'},
    'rerouted': {
        'merged_trace': '4dba840f5ed04f15c3944b35924a8097'
                        'c2ba5a7a3bea66d3a816632d0128cc71',
        'journal': '1910dff6f0d8c9d0d8fcb634fd712027'
                   'fbe8d861ab320c13a03850f9d9b4c57c'},
}

_ANOMALIES = [{'t': 450, 'signal': 'queue_depth', 'value': 9.0,
               'mean': 1.0, 'std': 0.5, 'z': 16.0}]


def _sha_file(path: str, strip_header: bool = False) -> str:
    with open(path) as f:
        text = f.read()
    if strip_header:
        first, _, rest = text.partition('\n')
        header = json.loads(first)
        header.pop('generated')
        header.pop('provenance')
        text = json.dumps(header) + '\n' + rest
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(spans, anomalies, label, tmpdir) -> dict:
    trace = os.path.join(tmpdir, 'merged.json')
    journal = os.path.join(tmpdir, 'FLIGHT.jsonl')
    write_merged_trace(trace, spans, anomalies, label)
    write_journal(journal, spans, anomalies, label)
    return {'merged_trace': _sha_file(trace),
            'journal': _sha_file(journal, strip_header=True)}


def observe(case: str) -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        if case == 'rerouted':
            _, spans = _rerouted_trace()
            return _digests(spans, _ANOMALIES, 't', tmpdir)
        flight = FleetFlight(label='t', out_dir=tmpdir)
        FleetRouter(_config(), flight=flight).run(iter(_trace()))
        return _digests(flight.spans, flight.detector.anomalies, 't',
                        tmpdir)


@pytest.mark.parametrize('case', sorted(GOLDEN))
def test_flight_outputs_match_golden(case):
    assert observe(case) == GOLDEN[case]


if __name__ == '__main__':
    print(json.dumps({case: observe(case) for case in sorted(GOLDEN)},
                     indent=1))
