"""Declarative alerting over the telemetry store: burn rates, holds, state.

The rule engine closes the observe→detect half of the loop the
:class:`~repro.serving.slo.SloController` opened: the controller accounts
every request against the error budget of a target p99
(``repro_slo_good_requests_total`` / ``repro_slo_bad_requests_total``);
this module *watches* those counters — retained by
:class:`~repro.obs.tsdb.TelemetryStore` — and decides when a human should
be paged.

Rule kinds
----------
``burn_rate``
    The SRE multi-window burn-rate test over the error budget.  With an
    objective of 0.99 ("99% of requests meet the target p99"), the budget
    is the remaining 1%; the *burn rate* of a window is
    ``(bad / total) / (1 - objective)`` — 1x means spending the budget
    exactly at the sustainable pace, 100x means every request is bad.  The
    rule fires only when **both** a fast window (default 5m — catches the
    spike quickly) and a slow window (default 1h — suppresses blips that
    cannot meaningfully dent the budget) exceed the threshold; it resolves
    as soon as the fast window recovers.  Evaluated per ``model`` label.
``ratio``
    ``window_sum(numerator) / window_sum(denominator)`` over one window,
    compared against a threshold — shed rate, incomplete-trace ratio.
``instant``
    A live signal sampled outside the store — the fleet lease census
    (replicas down) or the distributed queue (quarantined groups) —
    supplied to the engine as a named callable.
``gauge``
    The latest retained gauge value compared against a threshold.

Every rule carries a ``for:`` hold: the condition must stay true for that
long before the alert transitions ``pending → firing`` (``0`` fires on the
first evaluation).  When the condition clears, ``firing → resolved`` is
recorded and the state returns to ``ok``.  Transitions append to a JSONL
history log so "when did this last page" survives restarts.

Rules load from a JSON file (``{"rules": [{...}]}``; ``"for"`` is accepted
as an alias for ``for_seconds``) or come from :func:`default_rules`.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

GOOD_METRIC = "repro_slo_good_requests_total"
BAD_METRIC = "repro_slo_bad_requests_total"

_KINDS = ("burn_rate", "ratio", "instant", "gauge")
_OPS = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
}
_STATE_ORDER = {"firing": 0, "pending": 1, "ok": 2}


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule; only the fields of its ``kind`` are read."""

    name: str
    kind: str
    severity: str = "page"
    for_seconds: float = 0.0
    threshold: float = 0.0
    # burn_rate
    fast_window: float = 300.0
    slow_window: float = 3600.0
    objective: float = 0.99
    good_metric: str = GOOD_METRIC
    bad_metric: str = BAD_METRIC
    group_by: str = "model"
    min_samples: float = 1.0
    # ratio / gauge
    numerator: str = ""
    denominator: str = ""
    metric: str = ""
    window: float = 300.0
    # instant / gauge
    signal: str = ""
    op: str = ">"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown alert rule kind {self.kind!r} "
                             f"(expected one of {_KINDS})")
        if self.op not in _OPS:
            raise ValueError(f"unknown comparator {self.op!r}")
        if self.kind == "burn_rate" and not 0.0 < self.objective < 1.0:
            raise ValueError("burn_rate objective must be in (0, 1)")
        if self.kind == "ratio" and not (self.numerator and self.denominator):
            raise ValueError(f"ratio rule {self.name!r} needs numerator "
                             f"and denominator metrics")
        if self.kind == "instant" and not self.signal:
            raise ValueError(f"instant rule {self.name!r} needs a signal")
        if self.kind == "gauge" and not self.metric:
            raise ValueError(f"gauge rule {self.name!r} needs a metric")


@dataclass
class AlertStatus:
    """Mutable per-instance state (one rule may fan out per model)."""

    rule: str
    labels: dict
    severity: str
    state: str = "ok"
    since: float | None = None      # condition first observed true
    fired_at: float | None = None
    resolved_at: float | None = None
    value: float | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def default_rules(*, objective: float = 0.99, fast_window: float = 300.0,
                  slow_window: float = 3600.0,
                  burn_threshold: float = 4.0) -> list[AlertRule]:
    """The stock rule set, parameterised by the SLO the controller runs."""
    return [
        AlertRule(name="slo-burn-rate", kind="burn_rate", severity="page",
                  objective=objective, fast_window=fast_window,
                  slow_window=slow_window, threshold=burn_threshold),
        AlertRule(name="shed-rate", kind="ratio", severity="ticket",
                  numerator="repro_shed_requests_total",
                  denominator="repro_requests_total",
                  window=300.0, threshold=0.05, for_seconds=60.0),
        AlertRule(name="incomplete-traces", kind="ratio", severity="ticket",
                  numerator="repro_traces_flushed",
                  denominator="repro_traces_started",
                  window=900.0, threshold=0.01, for_seconds=300.0),
        AlertRule(name="replica-down", kind="instant", severity="page",
                  signal="fleet_replicas_down", threshold=0.0, op=">"),
        AlertRule(name="worker-quarantine", kind="instant", severity="ticket",
                  signal="dist_groups_quarantined", threshold=0.0, op=">"),
    ]


_JSON_ALIASES = {"for": "for_seconds"}


def rule_from_dict(data: dict) -> AlertRule:
    fields = {f.name for f in dataclasses.fields(AlertRule)}
    kwargs = {}
    for key, value in data.items():
        key = _JSON_ALIASES.get(key, key)
        if key not in fields:
            raise ValueError(f"unknown alert rule key {key!r} "
                             f"in rule {data.get('name', '?')!r}")
        kwargs[key] = value
    if "name" not in kwargs or "kind" not in kwargs:
        raise ValueError(f"alert rule needs at least name and kind: {data!r}")
    return AlertRule(**kwargs)


def load_rules(path) -> list[AlertRule]:
    """Load ``{"rules": [{...}]}`` from a JSON file (strict: unknown keys
    and kinds raise, so a typo'd rule file fails CI instead of never
    firing)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed alert rules file {path}: {exc}") from exc
    rules_data = payload.get("rules") if isinstance(payload, dict) else None
    if not isinstance(rules_data, list) or not rules_data:
        raise ValueError(f"alert rules file {path} must contain a "
                         f"non-empty \"rules\" list")
    rules = [rule_from_dict(entry) for entry in rules_data]
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate rule names in {path}: {names}")
    return rules


@dataclass
class _Instance:
    labels: dict
    value: float
    active: bool
    detail: str = ""


class AlertEngine:
    """Evaluates rules against a :class:`TelemetryStore` and tracks the
    ``ok → pending → firing → resolved`` lifecycle per alert instance.

    ``instants`` maps signal names to zero-argument callables sampled at
    evaluation time (fleet census, dist-queue census).  ``history_path``
    appends one JSON line per firing/resolved transition.  Thread-safe:
    the collector thread evaluates while the HTTP frontend snapshots
    :meth:`as_dict`.
    """

    def __init__(self, rules, store, *, instants: dict | None = None,
                 clock=time.time, history_path=None):
        self.rules = list(rules)
        self.store = store
        self.instants = dict(instants or {})
        self.clock = clock
        self.history_path = Path(history_path) if history_path else None
        self._statuses: dict[tuple, AlertStatus] = {}
        self._lock = threading.Lock()
        self.evaluated_at: float | None = None

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, now: float | None = None) -> list[dict]:
        """One evaluation pass at ``now``; returns the status snapshot."""
        now = float(self.clock() if now is None else now)
        with self._lock:
            for rule in self.rules:
                instances = self._instances(rule, now)
                seen = set()
                for instance in instances:
                    key = (rule.name,
                           tuple(sorted(instance.labels.items())))
                    seen.add(key)
                    status = self._statuses.get(key)
                    if status is None:
                        status = AlertStatus(rule=rule.name,
                                             labels=dict(instance.labels),
                                             severity=rule.severity)
                        self._statuses[key] = status
                    self._step(rule, status, instance, now)
                # An instance that vanished (model retired, replica gone)
                # is a cleared condition, not a stuck alert.
                for key, status in self._statuses.items():
                    if key[0] == rule.name and key not in seen:
                        self._step(rule, status, _Instance(
                            status.labels, 0.0, False, "series gone"), now)
            self.evaluated_at = now
            return self._snapshot()

    def replay(self, times) -> list[dict]:
        """Evaluate at each timestamp in order — how one-shot ``repro
        alerts`` reconstructs ``for:`` holds from retained history."""
        result: list[dict] = []
        for t in sorted(times):
            result = self.evaluate(t)
        return result

    def _step(self, rule: AlertRule, status: AlertStatus,
              instance: _Instance, now: float) -> None:
        status.value = instance.value
        status.detail = instance.detail
        if instance.active:
            if status.state == "ok":
                status.state = "pending"
                status.since = now
            if status.state == "pending" and \
                    now - status.since >= rule.for_seconds:
                status.state = "firing"
                status.fired_at = now
                self._record(status, "firing", now)
        else:
            if status.state == "firing":
                status.state = "ok"
                status.resolved_at = now
                self._record(status, "resolved", now)
            elif status.state == "pending":
                status.state = "ok"
            status.since = None

    def _record(self, status: AlertStatus, event: str, now: float) -> None:
        if self.history_path is None:
            return
        line = json.dumps({
            "t": now, "rule": status.rule, "labels": status.labels,
            "event": event, "value": status.value,
            "severity": status.severity, "detail": status.detail,
        }, separators=(",", ":"))
        try:
            self.history_path.parent.mkdir(parents=True, exist_ok=True)
            with self.history_path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:
            pass  # alerting must not die because the disk did

    # ------------------------------------------------------------------ #
    # rule kinds
    # ------------------------------------------------------------------ #
    def _instances(self, rule: AlertRule, now: float) -> list[_Instance]:
        if rule.kind == "burn_rate":
            return self._eval_burn_rate(rule, now)
        if rule.kind == "ratio":
            return self._eval_ratio(rule, now)
        if rule.kind == "instant":
            return self._eval_instant(rule)
        return self._eval_gauge(rule, now)

    def _eval_burn_rate(self, rule: AlertRule, now: float) -> list[_Instance]:
        by = rule.group_by
        fast_good = self.store.window_sum(rule.good_metric, by=by,
                                          window=rule.fast_window, at=now)
        fast_bad = self.store.window_sum(rule.bad_metric, by=by,
                                         window=rule.fast_window, at=now)
        slow_good = self.store.window_sum(rule.good_metric, by=by,
                                          window=rule.slow_window, at=now)
        slow_bad = self.store.window_sum(rule.bad_metric, by=by,
                                         window=rule.slow_window, at=now)
        budget = 1.0 - rule.objective
        instances = []
        for group in sorted(set(fast_good) | set(fast_bad) |
                            set(slow_good) | set(slow_bad)):
            labels = {by: group}
            fast_total = fast_good.get(group, 0.0) + fast_bad.get(group, 0.0)
            slow_total = slow_good.get(group, 0.0) + slow_bad.get(group, 0.0)
            if fast_total < rule.min_samples or \
                    slow_total < rule.min_samples:
                instances.append(_Instance(labels, 0.0, False,
                                           "insufficient data"))
                continue
            fast_burn = (fast_bad.get(group, 0.0) / fast_total) / budget
            slow_burn = (slow_bad.get(group, 0.0) / slow_total) / budget
            active = fast_burn > rule.threshold and \
                slow_burn > rule.threshold
            detail = (f"burn {fast_burn:.1f}x/{int(rule.fast_window)}s "
                      f"and {slow_burn:.1f}x/{int(rule.slow_window)}s "
                      f"(threshold {rule.threshold:g}x of the "
                      f"{budget:.2%} budget)")
            instances.append(_Instance(labels, min(fast_burn, slow_burn),
                                       active, detail))
        return instances

    def _eval_ratio(self, rule: AlertRule, now: float) -> list[_Instance]:
        numerator = self.store.window_sum(rule.numerator,
                                          window=rule.window, at=now)
        denominator = self.store.window_sum(rule.denominator,
                                            window=rule.window, at=now)
        if denominator < rule.min_samples:
            return [_Instance({}, 0.0, False, "insufficient data")]
        value = numerator / denominator
        detail = (f"{rule.numerator}/{rule.denominator} = {value:.4f} "
                  f"over {int(rule.window)}s (threshold {rule.threshold:g})")
        return [_Instance({}, value, value > rule.threshold, detail)]

    def _eval_instant(self, rule: AlertRule) -> list[_Instance]:
        source = self.instants.get(rule.signal)
        if source is None:
            return [_Instance({}, 0.0, False,
                              f"signal {rule.signal} unavailable")]
        try:
            value = float(source())
        except Exception as exc:  # census may race a teardown
            return [_Instance({}, 0.0, False,
                              f"signal {rule.signal} failed: {exc}")]
        active = _OPS[rule.op](value, rule.threshold)
        detail = f"{rule.signal} = {value:g} ({rule.op} {rule.threshold:g})"
        return [_Instance({}, value, active, detail)]

    def _eval_gauge(self, rule: AlertRule, now: float) -> list[_Instance]:
        value = self.store.latest(rule.metric, at=now, max_age=rule.window)
        if value is None:
            return [_Instance({}, 0.0, False, "no data")]
        active = _OPS[rule.op](float(value), rule.threshold)
        detail = f"{rule.metric} = {value:g} ({rule.op} {rule.threshold:g})"
        return [_Instance({}, float(value), active, detail)]

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    def _snapshot(self) -> list[dict]:
        statuses = sorted(
            self._statuses.values(),
            key=lambda s: (_STATE_ORDER.get(s.state, 9), s.rule,
                           sorted(s.labels.items())))
        return [status.as_dict() for status in statuses]

    def statuses(self) -> list[dict]:
        with self._lock:
            return self._snapshot()

    def firing(self) -> list[dict]:
        return [status for status in self.statuses()
                if status["state"] == "firing"]

    def as_dict(self) -> dict:
        """The ``GET /alerts`` / ``repro alerts`` payload."""
        with self._lock:
            alerts = self._snapshot()
        return {
            "evaluated_at": self.evaluated_at,
            "rules": [rule.name for rule in self.rules],
            "firing": sum(1 for status in alerts
                          if status["state"] == "firing"),
            "alerts": alerts,
        }


def fleet_down_signal(fleet_dir):
    """An ``instants`` callable: expired (heartbeat-lapsed) replicas in the
    fleet lease census."""
    from repro.serving.fleet import FleetView

    def signal() -> float:
        status = FleetView(fleet_dir).status()
        return float(sum(1 for replica in status.replicas if replica.expired))

    return signal


def quarantine_signal(dist_dir):
    """An ``instants`` callable: quarantined groups in a distributed sweep
    queue (workers exhausted their retry budget)."""
    from repro.distributed.queue import WorkQueue

    def signal() -> float:
        return float(len(WorkQueue(dist_dir).quarantined_ids()))

    return signal


def format_alert_table(payload: dict) -> str:
    """Human-readable rendering shared by ``repro alerts`` and the
    dashboard's alert pane."""
    alerts = payload.get("alerts", [])
    if not alerts:
        return "no alert instances (no rules matched any data)"
    lines = []
    for status in alerts:
        labels = ",".join(f"{k}={v}" for k, v in
                          sorted(status["labels"].items()))
        name = status["rule"] + (f"{{{labels}}}" if labels else "")
        value = status.get("value")
        value_text = "-" if value is None else f"{value:.4g}"
        lines.append(f"  {status['state'].upper():<8} {name:<44} "
                     f"{status['severity']:<7} value={value_text:<10} "
                     f"{status.get('detail', '')}")
    firing = payload.get("firing", 0)
    header = (f"{len(alerts)} alert instance(s), {firing} firing "
              f"(evaluated at {payload.get('evaluated_at')})")
    return "\n".join([header] + lines)
