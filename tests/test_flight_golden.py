"""Golden fleet observations: the flight journal and merged trace bytes.

The fleet-side counterpart of ``tests/data/probe_golden.json``.  For the
crash-reroute fleet run ``tests/test_fleet_flight.py`` drives and for the
hand-built ``_rerouted_trace()`` of ``tests/test_flight_trace.py``, this
pins the sha256 of

* the merged Chrome-trace file as ``write_merged_trace`` writes it;
* the flight journal's lines, with the header's ``generated`` and
  ``provenance`` stamps (time, git sha, code hash) removed.

For the crash-reroute run it also pins

* the crash post-mortem, with ``generated`` and ``provenance`` removed;
* the recorder's ring events, in ring order and key order;
* the fleet report, with ``generated`` removed;
* the epoch-log rows, as ``repro fleet --metrics-out`` writes them;

and the last two once more for the same run with no flight attached.

All are byte digests, so a change of key order in a span record or a
trace event fails here.  Print fresh digests, only when an output is
meant to change, with::

    PYTHONPATH=src python tests/test_flight_golden.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from repro.fleet import FleetRouter, build_fleet_report
from repro.flight import FleetFlight, write_journal, write_merged_trace
from tests.test_fleet_flight import _config, _trace
from tests.test_flight_trace import _rerouted_trace

GOLDEN = {
    'fleet': {
        'merged_trace': '9cbb1c5f2026593c30a64ec9eb937d5e'
                        '656290eff76efcb553160e5691e59416',
        'journal': '7ffd1c6c19b7c2a2881ada5b3480dd1a'
                   '1f35fb5ca0ca7d24c80a0798f99d0183',
        'postmortem': '5fb06f71e991de36bd042b83b99b808d'
                      'b67b3af6a48db49bd0baa1b66936cdc2',
        'ring': 'bcd09f74458ead89cd249d427d023c5d'
                '85e3e196d1d5d8f6558f69e4d811c086',
        'report': '3bb7a8361903b79f98f2be0341514c01'
                  '3b1c7c5a2d04083ccd9e926223cec172',
        'epoch_log': 'b93f52532edd6080989499713f9a6b98'
                     '8ba099fa1765b8471d0e4951eecf2b25'},
    # flight off: the same report and epoch log, byte for byte
    'fleet_plain': {
        'report': '3bb7a8361903b79f98f2be0341514c01'
                  '3b1c7c5a2d04083ccd9e926223cec172',
        'epoch_log': 'b93f52532edd6080989499713f9a6b98'
                     '8ba099fa1765b8471d0e4951eecf2b25'},
    'rerouted': {
        'merged_trace': '4dba840f5ed04f15c3944b35924a8097'
                        'c2ba5a7a3bea66d3a816632d0128cc71',
        'journal': '1910dff6f0d8c9d0d8fcb634fd712027'
                   'fbe8d861ab320c13a03850f9d9b4c57c'},
}

_ANOMALIES = [{'t': 450, 'signal': 'queue_depth', 'value': 9.0,
               'mean': 1.0, 'std': 0.5, 'z': 16.0}]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sha_file(path: str, strip_header: bool = False) -> str:
    with open(path) as f:
        text = f.read()
    if strip_header:
        first, _, rest = text.partition('\n')
        header = json.loads(first)
        header.pop('generated')
        header.pop('provenance')
        text = json.dumps(header) + '\n' + rest
    return _sha(text)


def _sha_doc(doc: dict, *stamps: str) -> str:
    doc = {k: v for k, v in doc.items() if k not in stamps}
    return _sha(json.dumps(doc, indent=1, sort_keys=True))


def _digests(spans, anomalies, label, tmpdir) -> dict:
    trace = os.path.join(tmpdir, 'merged.json')
    journal = os.path.join(tmpdir, 'FLIGHT.jsonl')
    write_merged_trace(trace, spans, anomalies, label)
    write_journal(journal, spans, anomalies, label)
    return {'merged_trace': _sha_file(trace),
            'journal': _sha_file(journal, strip_header=True)}


def _fleet_digests(result) -> dict:
    return {'report': _sha_doc(build_fleet_report(result), 'generated'),
            'epoch_log': _sha(''.join(json.dumps(row) + '\n'
                                      for row in result.epoch_log))}


def observe(case: str) -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        if case == 'rerouted':
            _, spans = _rerouted_trace()
            return _digests(spans, _ANOMALIES, 't', tmpdir)
        if case == 'fleet_plain':
            return _fleet_digests(
                FleetRouter(_config()).run(iter(_trace())))
        flight = FleetFlight(label='t', out_dir=tmpdir)
        result = FleetRouter(_config(), flight=flight).run(iter(_trace()))
        (crash,) = [p['path'] for p in flight.postmortems
                    if p['trigger'] == 'crash']
        with open(crash) as f:
            postmortem = json.load(f)
        return {**_digests(flight.spans, flight.detector.anomalies, 't',
                           tmpdir),
                'postmortem': _sha_doc(postmortem, 'generated',
                                       'provenance'),
                'ring': _sha(json.dumps(flight.recorder.events())),
                **_fleet_digests(result)}


@pytest.mark.parametrize('case', sorted(GOLDEN))
def test_flight_outputs_match_golden(case):
    assert observe(case) == GOLDEN[case]


if __name__ == '__main__':
    print(json.dumps({case: observe(case) for case in sorted(GOLDEN)},
                     indent=1))
