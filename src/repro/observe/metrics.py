"""The metrics registry: named counters, gauges, and log2 histograms.

A :class:`MetricsRegistry` is the always-on spine of the serving
observability plane.  It is deliberately boring: metric *families* are
named once (``registry.counter('llc_bank_accesses_total')``) and labeled
children (``family.labels(bank=3)``) are plain Python objects whose hot
operation is one integer add — cheap enough that the plane keeps the
registry attached by default.  Nothing in here touches the simulator;
the :class:`~repro.observe.ObservePlane` (and its subclass
:class:`~repro.telemetry.Telemetry`) feeds it at drain/snapshot time,
and schedulers feed it on (rare) request state changes.  Histogram
children are the :class:`~repro.observe.histogram.Log2Histogram`
beside this module.

Two export formats:

* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  (``# HELP`` / ``# TYPE`` / ``name{label="v"} value``), so a snapshot
  can be scraped or diffed with standard tooling;
* :meth:`MetricsRegistry.snapshot` — a flat JSON-safe dict, one entry
  per family, written as JSONL time-series lines by the plane's
  ``--metrics-out`` sink.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .histogram import Log2Histogram

COUNTER = 'counter'
GAUGE = 'gauge'
HISTOGRAM = 'histogram'

LabelValues = Tuple[Tuple[str, object], ...]


def _label_key(labels: dict) -> LabelValues:
    return tuple(sorted(labels.items()))


def _label_str(key: LabelValues) -> str:
    return ','.join(f'{k}="{v}"' for k, v in key)


def _escape_label_value(v: object) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and line feed must be escaped inside the
    quoted value (in that order, so introduced backslashes survive)."""
    return (str(v).replace('\\', r'\\').replace('"', r'\"')
            .replace('\n', r'\n'))


def _escape_help(text: str) -> str:
    """HELP text escaping: backslash and line feed only (quotes are
    legal verbatim outside a quoted string)."""
    return text.replace('\\', r'\\').replace('\n', r'\n')


def _prom_label_str(key: LabelValues) -> str:
    """Exposition-format label rendering (escaped), as opposed to
    :func:`_label_str` which keys JSON snapshots and must stay stable."""
    return ','.join(f'{k}="{_escape_label_value(v)}"' for k, v in key)


class Counter:
    """A monotonically increasing count; ``inc`` is the hot operation."""

    __slots__ = ('value',)

    def __init__(self):
        self.value = 0

    def inc(self, n=1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (queue depth, occupancy, utilization)."""

    __slots__ = ('value',)

    def __init__(self):
        self.value = 0

    def set(self, v) -> None:
        self.value = v

    def inc(self, n=1) -> None:
        self.value += n

    def dec(self, n=1) -> None:
        self.value -= n


class MetricFamily:
    """One named metric with zero or more labeled children.

    The unlabeled child (``family.labels()`` with no kwargs) is created
    eagerly so ``family.inc()`` / ``family.set()`` work directly for
    scalar metrics.
    """

    def __init__(self, name: str, kind: str, help: str = '',
                 unit: str = ''):
        self.name = name
        self.kind = kind
        self.help = help
        self.unit = unit
        self.children: Dict[LabelValues, object] = {}
        self._default = self._child(())

    def _new_child(self):
        if self.kind == COUNTER:
            return Counter()
        if self.kind == GAUGE:
            return Gauge()
        return Log2Histogram(self.name, unit=self.unit or 'cycles')

    def _child(self, key: LabelValues):
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = self._new_child()
        return child

    def labels(self, **labels):
        """The child for this label set (created on first use)."""
        if not labels:
            return self._default
        return self._child(_label_key(labels))

    # scalar convenience (proxies to the unlabeled child)
    def inc(self, n=1) -> None:
        self._default.inc(n)

    def set(self, v) -> None:
        self._default.set(v)

    def dec(self, n=1) -> None:
        self._default.dec(n)

    def observe(self, v) -> None:
        self._default.record(v)

    # ---------------------------------------------------------------- export
    def _value_of(self, child):
        if self.kind == HISTOGRAM:
            return {'count': child.count, 'mean': child.mean,
                    'p50': child.percentile(50),
                    'p99': child.percentile(99),
                    'max': float(child.max) if child.max is not None
                    else 0.0}
        return child.value

    def snapshot_value(self):
        """JSON-safe value: scalar for unlabeled, dict for labeled."""
        labeled = {k: v for k, v in self.children.items() if k}
        default = self._value_of(self._default)
        if not labeled:
            return default
        out = {_label_str(k): self._value_of(c) for k, c in
               sorted(labeled.items())}
        if self.kind == HISTOGRAM or self._nonzero(default):
            out[''] = default
        return out

    @staticmethod
    def _nonzero(v) -> bool:
        if isinstance(v, dict):
            return any(MetricFamily._nonzero(x) for x in v.values())
        return bool(v)

    def expose(self) -> List[str]:
        """Prometheus text-exposition lines for this family."""
        lines = []
        if self.help:
            lines.append(f'# HELP {self.name} {_escape_help(self.help)}')
        lines.append(f'# TYPE {self.name} {self.kind}')
        for key, child in sorted(self.children.items()):
            suffix = '{%s}' % _prom_label_str(key) if key else ''
            if self.kind == HISTOGRAM:
                if not child.count:
                    continue
                base = key + (('le', '+Inf'),)
                cum = 0
                for lo, n in sorted(child.buckets().items()):
                    cum += n
                    bkey = key + (('le', str(lo)),)
                    lines.append(f'{self.name}_bucket'
                                 f'{{{_prom_label_str(bkey)}}} {cum}')
                lines.append(f'{self.name}_bucket'
                             f'{{{_prom_label_str(base)}}} {child.count}')
                lines.append(f'{self.name}_sum{suffix} {child.total}')
                lines.append(f'{self.name}_count{suffix} {child.count}')
            else:
                if key or self._nonzero(child.value) \
                        or len(self.children) == 1:
                    lines.append(f'{self.name}{suffix} {child.value}')
        return lines


class MetricsRegistry:
    """A namespace of metric families, cheap enough to stay attached."""

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------- definition
    def _family(self, name: str, kind: str, help: str,
                unit: str) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = self._families[name] = MetricFamily(name, kind, help,
                                                      unit)
        elif fam.kind != kind:
            raise ValueError(f'metric {name!r} already registered as '
                             f'{fam.kind}, not {kind}')
        return fam

    def counter(self, name: str, help: str = '',
                unit: str = '') -> MetricFamily:
        return self._family(name, COUNTER, help, unit)

    def gauge(self, name: str, help: str = '',
              unit: str = '') -> MetricFamily:
        return self._family(name, GAUGE, help, unit)

    def histogram(self, name: str, help: str = '',
                  unit: str = 'cycles') -> MetricFamily:
        return self._family(name, HISTOGRAM, help, unit)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __iter__(self) -> Iterable[MetricFamily]:
        return iter(self._families.values())

    def __len__(self) -> int:
        return len(self._families)

    # ----------------------------------------------------------------- export
    def snapshot(self) -> dict:
        """Flat JSON-safe view of every family's current value."""
        return {name: fam.snapshot_value()
                for name, fam in sorted(self._families.items())}

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the whole registry."""
        lines: List[str] = []
        for _, fam in sorted(self._families.items()):
            lines.extend(fam.expose())
        return '\n'.join(lines) + '\n'
