"""The ``sweep`` workload: the paper's ε-sweep, one GCON group at a time.

Closed loop, ``jobs=1``: each group is one ``(dataset, method, repeat)``
epsilon axis run through ``ParallelExperimentRunner`` + ``FigureCellRunner``
into a ``JsonlResultStore``.  Every group gets a fresh repeat seed, so the
preparation memo never hits and each group trains its encoder.  Set-up is
the first, cold group (graph load, transition build), repeated with the
memos and the propagation cache cleared.
"""

from __future__ import annotations

import math
import time
from statistics import median

import numpy as np

from common import (
    Metric,
    fresh_dir,
    self_cpu_seconds,
    self_peak_rss_mb,
)
from layers import SpanRecorder, layer_totals, layer_unit, traced_layers

DATASET = "cora_ml"
METHOD = "GCON"
EPSILONS = (0.5, 1.0, 2.0, 4.0)
SETUP_REPEATS = 3

class SweepBench:
    """Runs fresh-seed GCON epsilon-sweep groups on the engine."""

    def __init__(self, seed: int, scale: float, encoder_epochs: int):
        from repro.evaluation.figures import FigureSettings
        from repro.runtime.workers import FigureCellRunner

        self.seed = seed
        self.settings = FigureSettings(
            scale=scale, seed=seed, datasets=(DATASET,), epsilons=EPSILONS,
            encoder_epochs=encoder_epochs, jobs=1)
        self.runner = FigureCellRunner(settings=self.settings)
        self.store_path = fresh_dir("sweep") / "results.jsonl"
        self.next_repeat = 0

    def group_cells(self, repeat: int):
        from repro.runtime.cells import expand_cells

        cells = expand_cells([METHOD], [DATASET], EPSILONS, repeat + 1,
                             seed=self.seed)
        return [cell for cell in cells if cell.repeat == repeat]

    def run_group(self):
        """One closed-loop step; returns ``(cells, results, seconds)``."""
        from repro.runtime.engine import ParallelExperimentRunner
        from repro.runtime.store import JsonlResultStore

        cells = self.group_cells(self.next_repeat)
        self.next_repeat += 1
        engine = ParallelExperimentRunner(
            self.runner, jobs=1, store=JsonlResultStore(self.store_path),
            resume_context=self.settings.resume_context())
        start = time.perf_counter()
        results = engine.run(cells)
        return cells, results, time.perf_counter() - start

    def cold_group_seconds(self) -> float:
        from repro.core.propagation import get_default_cache
        from repro.runtime.workers import clear_worker_memos

        clear_worker_memos()
        get_default_cache().clear()
        return self.run_group()[2]

    def reference_scores(self, cells) -> list[float]:
        """Re-solve ``cells`` on the serial per-cell reference path (the
        preparation memo is warm, so only the convex solves run again)."""
        from repro.runtime.engine import ParallelExperimentRunner
        from repro.runtime.workers import FigureCellRunner

        reference = FigureCellRunner(settings=self.settings, fast_sweep=False)
        return [record.micro_f1 for record in
                ParallelExperimentRunner(reference, jobs=1).run(cells)]


def _tolerance_flip(bench: SweepBench, cells, index: int, fast_score: float,
                    reference_score: float) -> str | None:
    """Why a fast-path cell's micro-F1 may differ from the serial reference,
    or ``None`` if it may not.

    The fast path promises the reference's results only up to convex-solver
    tolerance: its theta lies within ``4 * gtol / mu`` of the serial
    minimiser (the bound the repository's sweep-equivalence tests pin).  A
    changed prediction is that drift only if the recomputed fast and
    reference thetas reproduce both scores, their distance is inside the
    bound, and every flipped test node's reference margin is smaller than
    the score change the distance allows.
    """
    from repro.core.model import GCON
    from repro.core.sweep import SweepSolver
    from repro.evaluation.figures import default_gcon_config
    from repro.evaluation.metrics import micro_f1
    from repro.graphs.datasets import load_dataset

    settings = bench.settings
    graph = load_dataset(DATASET, scale=settings.scale, seed=settings.seed)
    delta = 1.0 / max(graph.num_edges, 1)
    cell = cells[index]
    configs = [default_gcon_config(c.epsilon, delta, settings) for c in cells]
    prepared = GCON(configs[0]).prepare(graph, seed=cell.seed)
    fast = SweepSolver(configs[0], strategy=bench.runner.sweep_strategy).solve(
        graph, [c.epsilon for c in cells], seed=cell.seed,
        prepared=prepared)[index]
    reference = GCON(configs[index]).fit(graph, seed=cell.seed, prepared=prepared)
    features = reference.inference_features(graph, mode=bench.runner.inference_mode)
    test = graph.test_idx
    ref_scores = (features @ reference.theta_)[test]
    fast_scores = (features @ fast.theta)[test]
    drift = float(np.max(np.abs(fast.theta - reference.theta_)))
    bound = 4 * configs[index].gtol / fast.perturbation.total_quadratic_coefficient
    flipped = np.nonzero(ref_scores.argmax(1) != fast_scores.argmax(1))[0]
    ordered = np.sort(ref_scores, axis=1)
    margins = ordered[:, -1] - ordered[:, -2]
    allowed = 2 * np.abs(features[test]).sum(axis=1) * drift
    labels = graph.labels[test]
    reproduced = (micro_f1(labels, fast_scores.argmax(1)) == fast_score
                  and micro_f1(labels, ref_scores.argmax(1)) == reference_score)
    if reproduced and drift <= bound and np.all(margins[flipped] <= allowed[flipped]):
        return (f"{flipped.size} test node(s) with reference margin <= "
                f"{margins[flipped].max():.2g} flipped; theta drift "
                f"{drift:.2g} <= tolerance {bound:.2g}")
    return None


def _check(bench: SweepBench, measured) -> tuple[int, list[str], list[str]]:
    """Count wrong cells: invalid scores, records missing from the store,
    and fast-path scores that differ from the serial reference by more than
    solver-tolerance drift.  Returns ``(failed, failures, tolerance flips)``."""
    from repro.runtime.cells import result_key
    from repro.runtime.store import JsonlResultStore

    failed, notes, flips = 0, [], []
    stored = {result_key(record): record.micro_f1
              for record in JsonlResultStore(bench.store_path).load()}
    for _cells, results, _seconds in measured:
        for record in results:
            score = record.micro_f1
            if not (math.isfinite(score) and 0.0 <= score <= 1.0):
                failed += 1
                notes.append(f"invalid micro-F1 {score!r} for {result_key(record)}")
            elif stored.get(result_key(record)) != score:
                failed += 1
                notes.append(f"store lost or changed {result_key(record)}")
    cells, results, _seconds = measured[-1]
    for index, (cell, record, expected) in enumerate(
            zip(cells, results, bench.reference_scores(cells))):
        if record.micro_f1 == expected:
            continue
        what = (f"epsilon={cell.epsilon:g} repeat={cell.repeat}: fast path "
                f"{record.micro_f1!r} != reference {expected!r}")
        reason = _tolerance_flip(bench, cells, index, record.micro_f1, expected)
        if reason is None:
            failed += 1
            notes.append(what)
        else:
            flips.append(f"{what}: {reason}")
    return failed, notes, flips


def _layer_metrics(per_group_spans, epochs: int) -> list[Metric]:
    totals = [layer_totals(spans) for spans in per_group_spans]
    n = len(totals)
    metrics = [Metric(name, median([t[name] for t in totals]),
                      layer_unit(name), n, "median per group")
               for name in totals[0]]
    fit = median([t["core.encoder.fit_s"] for t in totals])
    metrics.append(Metric("core.encoder.step_ms", fit / epochs * 1e3, "ms", n,
                          f"fit time / {epochs} epochs"))
    return metrics


def run(seed: int, seconds: float, trace: bool, *, scale: float = 1.0,
        encoder_epochs: int = 200) -> dict:
    from repro.core.propagation import get_default_cache

    bench = SweepBench(seed, scale, encoder_epochs)
    setup = [bench.cold_group_seconds() for _ in range(SETUP_REPEATS)]

    recorder = SpanRecorder()
    cache_before = get_default_cache().info()
    measured, traced_spans, plain, traced = [], [], [], []
    cpu_start = self_cpu_seconds()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or len(measured) < 1 + trace:
        # The traced run alternates plain and wrapped groups, so the
        # wrappers' own cost is measured on the same inputs.
        if trace and len(measured) % 2 == 1:
            with traced_layers(recorder):
                step = bench.run_group()
            traced_spans.append(recorder.take())
            traced.append(step[2])
        else:
            step = bench.run_group()
            plain.append(step[2])
        measured.append(step)
    elapsed = time.perf_counter() - start
    cpu = self_cpu_seconds() - cpu_start
    cache_after = get_default_cache().info()

    failed, notes, flips = _check(bench, measured)
    group_ms = [step[2] * 1e3 for step in measured]
    cells = sum(len(step[0]) for step in measured)
    end_to_end = [
        Metric("setup_s", median(setup), "s", len(setup),
               "cold first group: graph load, transition build, training"),
        Metric("peak_rss_mb", self_peak_rss_mb(), "MB", 1, "benchmark process"),
        Metric("op_p50_ms", median(group_ms), "ms", len(group_ms),
               "one epsilon-sweep group (4 cells)"),
        Metric("op_cpu_ms", cpu / len(measured) * 1e3, "ms", len(measured),
               "process CPU per group"),
    ]
    detail = [
        Metric("sweep.cells_per_s", cells / elapsed, "1/s", cells),
        Metric("sweep.group_s_p50", median(group_ms) / 1e3, "s", len(group_ms)),
        Metric("sweep.group_s_max", max(group_ms) / 1e3, "s", len(group_ms)),
        Metric("sweep.check.reference_cells", len(measured[-1][0]), "count", 1,
               "last group re-solved on the serial reference path"),
        Metric("sweep.check.tolerance_flips", len(flips), "count", 1,
               "reference cells whose micro-F1 differs by solver-tolerance drift"),
    ]
    layers = []
    if trace:
        layers = _layer_metrics(traced_spans, encoder_epochs)
        lookups = hits = 0
        for layer, counters in cache_after.items():
            layer_hits = counters["hits"] - cache_before[layer]["hits"]
            hits += layer_hits
            lookups += layer_hits + counters["misses"] - cache_before[layer]["misses"]
        layers += [
            Metric("core.propagation.cache_hit_ratio",
                   hits / lookups if lookups else 0.0, "ratio", lookups,
                   "PropagationCache hits / lookups"),
            Metric("core.propagation.cache_lookups", lookups, "count", 1),
            Metric("obs.trace_overhead_ms",
                   median(traced) * 1e3 - median(plain) * 1e3, "ms",
                   min(len(traced), len(plain)),
                   "wrapped group p50 minus plain group p50"),
        ]
    return {"attempted": cells, "failed": failed, "notes": notes, "remarks": flips,
            "end_to_end": end_to_end, "detail": detail, "layers": layers}
