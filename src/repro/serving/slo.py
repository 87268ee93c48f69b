"""SLO error-budget accounting and queue-depth load shedding.

The latency histograms (:mod:`repro.serving.metrics`) make serving latency
*observable*; this module judges it against an objective and guards the
queues:

* :class:`SloController` — every ``interval`` it reads each model's
  latency histogram, takes the window since its last tick (the difference
  of two bucket-count snapshots) and charges that window against the SLO
  error budget: requests in buckets at or under the target p99 are good,
  the rest spend the budget.  Cumulative good/bad counters and the rolling
  budget and burn-rate gauges ride ``/metrics``, where the telemetry
  collector retains them and the alert rules (:mod:`repro.obs.alerts`) and
  the fleet dashboard read them.  The controller observes only: batching is
  a fixed row cap over a work-conserving queue
  (:mod:`repro.serving.batcher`), with nothing left to tune.

* :class:`OverloadedError` — raised by the service's queue-depth admission
  check *before* a request is parked on a batch ticket.  The HTTP frontend
  maps it to ``429 Too Many Requests`` with a ``Retry-After`` hint, so
  overload is answered with a cheap rejection before the matmul, not with a
  timeout after it.  The retry hint is the estimated drain time of the
  queue the request would have joined.

Neither mechanism touches the data plane's one promise: accounting and
admission change *whether* a request is accepted — never the numbers a
served request returns, which stay bitwise equal to offline
``decision_scores``.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ReproError
from repro.serving.metrics import LATENCY_BUCKETS


class OverloadedError(ReproError):
    """A request was shed by admission control (queue depth over the cap).

    ``retry_after`` is the estimated seconds until the model's queue has
    drained — what the HTTP frontend serialises into the ``Retry-After``
    header (rounded up to whole seconds, as the header requires).
    """

    def __init__(self, message: str, *, retry_after: float, label: str,
                 depth: int, max_queue_depth: int):
        super().__init__(message)
        self.retry_after = float(retry_after)
        self.label = label
        self.depth = int(depth)
        self.max_queue_depth = int(max_queue_depth)

    @property
    def retry_after_header(self) -> int:
        """``Retry-After`` header value: whole seconds, at least 1."""
        return max(1, math.ceil(self.retry_after))


def estimate_drain_seconds(depth: int, max_batch_size: int) -> float:
    """Rough drain time of a queue ``depth`` tickets deep: each flush clears
    up to ``max_batch_size`` tickets and is charged a 10 ms floor, which
    keeps the hint non-zero even for a queue that drains at once."""
    flushes = math.ceil(max(depth, 1) / max(max_batch_size, 1))
    return flushes * 0.010




@dataclass
class ModelBudget:
    """One model label's error-budget account, as ``/stats`` exposes it."""

    good_total: int = 0       # requests at or under the target (cumulative)
    bad_total: int = 0        # requests over the target (cumulative)
    budget_remaining: float = 1.0   # over the rolling budget window
    budget_consumed: float = 0.0
    burn_rate: float = 0.0
    _counts: tuple = field(default=(), repr=False)  # last snapshot
    # (at, good, bad) of every non-idle window still inside the rolling
    # budget window, and their running sums: an idle window adds nothing,
    # so it is never stored and a tick never re-sums the history.
    _history: deque = field(default_factory=deque, repr=False)
    _window_good: int = field(default=0, repr=False)
    _window_bad: int = field(default=0, repr=False)

    def as_dict(self) -> dict:
        return {
            "good_requests": self.good_total,
            "bad_requests": self.bad_total,
            "error_budget_remaining": self.budget_remaining,
            "error_budget_consumed": self.budget_consumed,
            "burn_rate": self.burn_rate,
        }


class SloController:
    """Charges each model's latency windows against the SLO error budget.

    Parameters
    ----------
    metrics:
        The :class:`~repro.serving.metrics.ServingMetrics` whose latency
        histograms are read and into which the budget series are published.
    target_p99:
        The latency objective in **seconds**: a request at or under it is
        good, one over it spends the error budget.
    interval:
        Seconds between ticks of the background loop (the window length).
    objective:
        Fraction of requests that must meet the target (0 < objective < 1);
        the error budget is the remaining ``1 - objective``.
    budget_window:
        Seconds of history the rolling budget and burn rate are judged over.
    clock:
        Injectable time source (the tests drive a fake one).
    """

    def __init__(self, metrics, *, target_p99: float, interval: float = 0.25,
                 objective: float = 0.99, budget_window: float = 3600.0,
                 clock=time.monotonic):
        if target_p99 <= 0:
            raise ValueError(f"target_p99 must be > 0, got {target_p99}")
        if interval <= 0:  # a zero wait would spin the loop on one core
            raise ValueError(f"interval must be > 0, got {interval}")
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        if budget_window <= 0:
            raise ValueError(
                f"budget_window must be > 0, got {budget_window}")
        self.metrics = metrics
        self.target_p99 = float(target_p99)
        self.interval = float(interval)
        self.objective = float(objective)
        self.budget_window = float(budget_window)
        # Buckets whose upper edge is at or under the target hold the
        # "good" requests; the error budget is everything above.
        self._good_buckets = bisect_right(LATENCY_BUCKETS, self.target_p99)
        self._clock = clock
        self._lock = threading.Lock()
        self._budgets: dict[str, ModelBudget] = {}
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self.ticks = 0
        self.last_error: str | None = None

    # ------------------------------------------------------------------ #
    # the accounting step
    # ------------------------------------------------------------------ #
    def tick(self) -> None:
        """Charge every model's window since the last tick (the
        deterministic entry point the tests call directly with a fake clock
        and a hand-fed metrics object)."""
        snapshot = self.metrics.latency_snapshot()
        publish = getattr(self.metrics, "set_series", None)
        now = self._clock()
        with self._lock:
            self.ticks += 1
            for label, counts in snapshot.items():
                budget = self._budgets.get(label)
                fresh = budget is None
                if fresh:
                    budget = self._budgets[label] = ModelBudget()
                if counts == budget._counts:
                    window = ()  # idle since the last tick
                elif budget._counts:
                    window = [new - old for new, old in
                              zip(counts, budget._counts)]
                else:
                    window = counts
                budget._counts = counts
                changed = self._account(budget, window, now)
                # Hand-fed test doubles only speak snapshots.
                if publish is not None and (changed or fresh):
                    self._publish(publish, label, budget)

    def _account(self, budget: ModelBudget, window, now: float) -> bool:
        """Charge one window against the error budget and roll history older
        than ``budget_window`` out of it; True when the budget moved.

        "Good" is exact, not interpolated: requests in latency buckets whose
        upper edge is at or under the target.  The burn rate over the
        rolling window is ``(bad / total) / (1 - objective)`` — 1x spends
        the budget exactly at the sustainable pace.
        """
        requests = int(sum(window))
        history = budget._history
        if requests:
            good = int(sum(window[:self._good_buckets]))
            bad = requests - good
            budget.good_total += good
            budget.bad_total += bad
            history.append((now, good, bad))
            budget._window_good += good
            budget._window_bad += bad
        changed = bool(requests)
        horizon = now - self.budget_window
        while history and history[0][0] < horizon:
            _at, good, bad = history.popleft()
            budget._window_good -= good
            budget._window_bad -= bad
            changed = True
        if not changed:
            return False
        window_bad = budget._window_bad
        window_total = budget._window_good + window_bad
        allowance = 1.0 - self.objective
        if window_total:
            budget.burn_rate = (window_bad / window_total) / allowance
            budget.budget_consumed = window_bad / (allowance * window_total)
        else:
            budget.burn_rate = 0.0
            budget.budget_consumed = 0.0
        budget.budget_remaining = 1.0 - budget.budget_consumed
        return True

    def _publish(self, publish, label: str, budget: ModelBudget) -> None:
        """Publish one label's account into the metrics registry (rides
        ``/metrics``, retained by the telemetry collector, merged fleet-wide
        by the aggregator)."""
        labels = {"model": label}
        publish("repro_slo_target_p99_seconds", self.target_p99,
                help_text="SLO latency objective the controller holds.")
        publish("repro_slo_objective_ratio", self.objective,
                help_text="Fraction of requests that must meet the target.")
        publish("repro_slo_budget_window_seconds", self.budget_window,
                help_text="Rolling window the error budget is judged over.")
        publish("repro_slo_good_requests_total", budget.good_total,
                kind="counter", labels=labels,
                help_text="Requests at or under the target p99.")
        publish("repro_slo_bad_requests_total", budget.bad_total,
                kind="counter", labels=labels,
                help_text="Requests over the target p99 (budget spend).")
        publish("repro_slo_error_budget_remaining_ratio",
                budget.budget_remaining, labels=labels,
                help_text="Error budget left in the rolling window "
                          "(1 = untouched, <0 = overspent).")
        publish("repro_slo_error_budget_consumed_ratio",
                budget.budget_consumed, labels=labels,
                help_text="Error budget consumed in the rolling window.")
        publish("repro_slo_burn_rate", budget.burn_rate, labels=labels,
                help_text="Budget burn multiple over the rolling window "
                          "(1x = sustainable pace).")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SloController":
        """Run the accounting loop on a daemon thread (idempotent)."""
        if self._thread is None:
            self._stopping.clear()
            self._thread = threading.Thread(target=self._loop, daemon=True,
                                            name="repro-serving-slo")
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._stopping.set()
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "SloController":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _loop(self) -> None:
        while not self._stopping.wait(self.interval):
            try:
                self.tick()
            except Exception as error:  # keep accounting; surface in /stats
                self.last_error = repr(error)

    # ------------------------------------------------------------------ #
    # observability (the /stats "slo" block)
    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        with self._lock:
            models = {label: budget.as_dict()
                      for label, budget in sorted(self._budgets.items())}
            return {
                "target_p99_ms": self.target_p99 * 1e3,
                "objective": self.objective,
                "budget_window_seconds": self.budget_window,
                "interval_seconds": self.interval,
                "ticks": self.ticks,
                "last_error": self.last_error,
                "models": models,
            }
