"""Metrics registry: counters, gauges and histograms with labels.

The registry is the single place every subsystem publishes its numbers.
Two publication styles are supported:

* **eager instruments** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) for code that wants to record values as they
  happen — e.g. the ADC sample counter or a switch's route-hold-time
  histogram; and
* **lazy collectors** (:meth:`MetricsRegistry.register_collector`,
  :meth:`MetricsRegistry.counter_fn`, :meth:`MetricsRegistry.gauge_fn`)
  that are only polled at :meth:`MetricsRegistry.snapshot` time.  Hot
  paths keep their existing plain-int counters (``link.tokens_carried``,
  ``core.stats.instructions``, ...) and pay *nothing* per event; the
  collector reads them when somebody asks.

Series are identified by ``name{label=value,...}`` with labels sorted,
e.g. ``switch.tokens_forwarded{node=3}``.  Snapshots are deterministic:
two identical simulation runs serialise to byte-identical JSON, which is
part of the repository's determinism invariant (see
``tests/sim/test_determinism.py``).

When the registry is disabled every instrument degrades to a cheap
no-op (one attribute check) and :meth:`MetricsRegistry.snapshot`
returns an empty snapshot without running any collector.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.canonical import canonical_json

#: A collector's emit callback: ``emit(name, labels, value)``.
EmitFn = Callable[[str, dict[str, str], Any], None]

#: Default histogram bucket boundaries (powers of ten; values are
#: whatever unit the caller observes in — often picoseconds).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(10.0 ** k for k in range(0, 13))


def series_key(name: str, labels: dict[str, str] | None = None) -> str:
    """The canonical ``name{k=v,...}`` identity of one series."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Metric:
    """Base class for eager instruments: a named, labelled series."""

    __slots__ = ("name", "labels", "help", "_enabled")

    def __init__(self, name: str, labels: dict[str, str], help: str = ""):
        self.name = name
        self.labels = dict(labels)
        self.help = help
        self._enabled = True

    @property
    def key(self) -> str:
        """The series key, e.g. ``adc.samples{slice=0,0}``."""
        return series_key(self.name, self.labels)

    def sample_value(self) -> Any:
        """The value this instrument contributes to a snapshot."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.key}={self.sample_value()!r}>"


class Counter(Metric):
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, name: str, labels: dict[str, str], help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if not self._enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def sample_value(self) -> int | float:
        """Current count."""
        return self.value


class Gauge(Metric):
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self, name: str, labels: dict[str, str], help: str = ""):
        super().__init__(name, labels, help)
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        """Replace the gauge's value."""
        if self._enabled:
            self.value = value

    def add(self, amount: int | float) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        if self._enabled:
            self.value += amount

    def sample_value(self) -> int | float:
        """Current value."""
        return self.value


class Histogram(Metric):
    """A distribution summarised as cumulative bucket counts."""

    __slots__ = ("buckets", "counts", "total", "sum")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
    ):
        super().__init__(name, labels, help)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name}: needs at least one bucket")
        self.counts = [0] * len(self.buckets)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: int | float) -> None:
        """Record one observation."""
        if not self._enabled:
            return
        self.total += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def sample_value(self) -> dict[str, Any]:
        """Bucket counts (cumulative, Prometheus-style) plus count/sum."""
        cumulative: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = self.total
        return {"buckets": cumulative, "count": self.total, "sum": self.sum}


class MetricsSnapshot:
    """An immutable point-in-time view of every series in a registry."""

    def __init__(self, samples: list[tuple[str, dict[str, str], Any]]):
        self._samples = list(samples)
        self._by_key: dict[str, Any] = {}
        for name, labels, value in self._samples:
            key = series_key(name, labels)
            if key in self._by_key:
                raise ValueError(f"duplicate metric series {key!r}")
            self._by_key[key] = value

    # -- mapping-ish access ------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def __getitem__(self, key: str) -> Any:
        return self._by_key[key]

    def keys(self) -> list[str]:
        """All series keys, sorted."""
        return sorted(self._by_key)

    def as_dict(self) -> dict[str, Any]:
        """``{series_key: value}`` sorted by key."""
        return {key: self._by_key[key] for key in sorted(self._by_key)}

    # -- structured queries ------------------------------------------------

    def value(self, name: str, default: Any = 0, **labels: str) -> Any:
        """The value of one exact series (``default`` when absent)."""
        return self._by_key.get(series_key(name, labels), default)

    def series(self, name: str) -> list[tuple[dict[str, str], Any]]:
        """Every ``(labels, value)`` pair recorded under ``name``."""
        return [
            (dict(labels), value)
            for sample_name, labels, value in self._samples
            if sample_name == name
        ]

    def sum(self, name: str, **match: str) -> float:
        """Sum of all numeric ``name`` series whose labels include ``match``."""
        total = 0.0
        for labels, value in self.series(name):
            if all(labels.get(k) == v for k, v in match.items()):
                total += value
        return total

    # -- comparison / export -----------------------------------------------

    def delta(self, earlier: "MetricsSnapshot") -> dict[str, Any]:
        """Per-series change versus an earlier snapshot.

        Numeric series subtract; histogram series subtract count and sum.
        Series absent from ``earlier`` count from zero.  Series that did
        not change are omitted, so an idle window reads as ``{}``.
        """
        out: dict[str, Any] = {}
        for key in sorted(self._by_key):
            new = self._by_key[key]
            old = earlier._by_key.get(key)
            if isinstance(new, dict):
                old_count = old["count"] if isinstance(old, dict) else 0
                old_sum = old["sum"] if isinstance(old, dict) else 0.0
                change = {"count": new["count"] - old_count,
                          "sum": new["sum"] - old_sum}
                if change["count"] or change["sum"]:
                    out[key] = change
            else:
                change = new - (old if isinstance(old, (int, float)) else 0)
                if change:
                    out[key] = change
        return out

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact) — byte-stable across runs."""
        return canonical_json(self._by_key)

    def render(self, prefix: str | None = None) -> str:
        """A human-readable listing, optionally filtered by name prefix."""
        lines = []
        for key in sorted(self._by_key):
            if prefix is not None and not key.startswith(prefix):
                continue
            value = self._by_key[key]
            if isinstance(value, dict):
                value = f"count={value['count']} sum={value['sum']:g}"
            elif isinstance(value, float):
                value = f"{value:g}"
            lines.append(f"{key:<56} {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<MetricsSnapshot {len(self._by_key)} series>"


class MetricsRegistry:
    """Home for every metric series published by a simulation.

    ``enabled=False`` builds a registry whose instruments no-op and whose
    snapshots are empty — the near-zero-overhead path for production-style
    runs that only want the final energy report.
    """

    def __init__(self, enabled: bool = True):
        self._enabled = bool(enabled)
        self._instruments: dict[str, Metric] = {}
        self._collectors: list[Callable[[EmitFn], None]] = []

    @property
    def enabled(self) -> bool:
        """Whether instruments record and snapshots collect."""
        return self._enabled

    def enable(self) -> None:
        """Turn recording on (also re-arms existing instruments)."""
        self._enabled = True
        for metric in self._instruments.values():
            metric._enabled = True

    def disable(self) -> None:
        """Turn recording off; instruments become cheap no-ops."""
        self._enabled = False
        for metric in self._instruments.values():
            metric._enabled = False

    # -- eager instruments -------------------------------------------------

    def _instrument(self, cls, name: str, labels: dict[str, str],
                    help: str, **kwargs) -> Metric:
        key = series_key(name, labels)
        metric = self._instruments.get(key)
        if metric is None:
            metric = cls(name, labels, help=help, **kwargs)
            metric._enabled = self._enabled
            self._instruments[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(f"series {key!r} already registered as "
                             f"{type(metric).__name__}")
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """Get-or-create the :class:`Counter` for ``name{labels}``."""
        return self._instrument(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """Get-or-create the :class:`Gauge` for ``name{labels}``."""
        return self._instrument(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        """Get-or-create the :class:`Histogram` for ``name{labels}``."""
        return self._instrument(Histogram, name, labels, help, buckets=buckets)

    # -- lazy collectors ---------------------------------------------------

    def register_collector(self, collect: Callable[[EmitFn], None]) -> None:
        """Register ``collect(emit)``, polled once per :meth:`snapshot`.

        The callback may emit any number of series (dynamic label sets —
        e.g. one ``core.instructions`` series per opcode class actually
        executed).  Registration is free at runtime: nothing is called
        until a snapshot is taken.
        """
        self._collectors.append(collect)

    def counter_fn(self, name: str, fn: Callable[[], int | float],
                   help: str = "", **labels: str) -> None:
        """Publish ``fn()`` as a lazily-read counter series."""
        frozen = dict(labels)
        self._collectors.append(lambda emit: emit(name, frozen, fn()))

    def gauge_fn(self, name: str, fn: Callable[[], int | float],
                 help: str = "", **labels: str) -> None:
        """Publish ``fn()`` as a lazily-read gauge series."""
        frozen = dict(labels)
        self._collectors.append(lambda emit: emit(name, frozen, fn()))

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Collect every series right now (empty when disabled)."""
        if not self._enabled:
            return MetricsSnapshot([])
        samples: list[tuple[str, dict[str, str], Any]] = [
            (metric.name, metric.labels, metric.sample_value())
            for metric in self._instruments.values()
        ]
        emit: EmitFn = lambda name, labels, value: samples.append(
            (name, dict(labels), value)
        )
        for collect in self._collectors:
            collect(emit)
        return MetricsSnapshot(samples)

    def __repr__(self) -> str:
        state = "enabled" if self._enabled else "disabled"
        return (f"<MetricsRegistry {state}, {len(self._instruments)} "
                f"instruments, {len(self._collectors)} collectors>")
