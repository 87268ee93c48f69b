"""Spans around the program's in-process layer entry points.

The traced run wraps public functions and methods of ``repro.core`` and
``repro.runtime`` from outside — by rebinding the names the callers look
up — and records one span per call: layer name, start, end and the
enclosing span.  Nothing under ``src/`` changes, and untraced runs never
install the wrappers.  Spans stay in memory until the run reports.
"""

from __future__ import annotations

import contextlib
import functools
import time


class SpanRecorder:
    """A stack of open spans; finished spans are kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, layer: str, function, on_result=None):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = {"layer": layer, "parent": self._stack[-1]["layer"]
                    if self._stack else None, "children_s": 0.0}
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span["duration_s"] = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1]["children_s"] += span["duration_s"]
                self.spans.append(span)
            if on_result is not None:
                span.update(on_result(result))
            return result
        return traced

    def take(self) -> list[dict]:
        """Finished spans since the last call, oldest first."""
        spans, self.spans = self.spans, []
        return spans


# Span totals the traced runs report, by metric name.
LAYER_SPANS = {
    "core.encoder.fit_s": "core.encoder.fit",
    "core.encoder.encode_s": "core.encoder.encode",
    "core.propagation.propagate_s": "core.propagation.propagate",
    "core.perturbation.calibrate_s": "core.perturbation.calibrate",
    "core.solver.solve_s": "core.solver.solve",
    "core.inference.features_s": "core.inference.features",
    "runtime.store.append_s": "runtime.store.append",
}


def layer_unit(name: str) -> str:
    """The unit of a :func:`layer_totals` entry."""
    return "count" if name == "core.solver.iterations" else "s"


def layer_totals(spans) -> dict:
    """Seconds per reported layer, plus solver iterations and the engine's
    self time (``engine.run`` minus the layer calls directly inside it)."""
    metric_for = {layer: name for name, layer in LAYER_SPANS.items()}
    totals = dict.fromkeys(LAYER_SPANS, 0.0)
    totals["core.solver.iterations"] = 0
    totals["runtime.engine.self_s"] = 0.0
    for span in spans:
        name = metric_for.get(span["layer"])
        if name is not None:
            totals[name] += span["duration_s"]
        totals["core.solver.iterations"] += span.get("iterations", 0)
        if span["layer"] == "runtime.engine.run":
            totals["runtime.engine.self_s"] += span["duration_s"] - span["children_s"]
    return totals


def _solver_iterations(result) -> dict:
    results = result if isinstance(result, list) else [result]
    return {"iterations": sum(int(r.iterations) for r in results)}


@contextlib.contextmanager
def traced_layers(recorder: SpanRecorder):
    """Install the wrappers for the duration of the block."""
    import repro.core.model as model
    import repro.core.sweep as sweep
    from repro.core.encoder import MLPEncoder
    from repro.core.propagation import Propagator
    from repro.runtime.engine import ParallelExperimentRunner
    from repro.runtime.store import JsonlResultStore

    targets = [
        (MLPEncoder, "fit", "core.encoder.fit", None),
        (MLPEncoder, "encode", "core.encoder.encode", None),
        (MLPEncoder, "predict_proba", "core.encoder.encode", None),
        (Propagator, "propagate_concat", "core.propagation.propagate", None),
        (model, "calibrate_perturbation", "core.perturbation.calibrate", None),
        (model, "sample_noise_matrix", "core.perturbation.calibrate", None),
        (sweep, "calibrate_perturbation", "core.perturbation.calibrate", None),
        (sweep, "sample_noise_matrix", "core.perturbation.calibrate", None),
        (model, "minimize_objective", "core.solver.solve", _solver_iterations),
        (sweep, "solve_objective_sweep", "core.solver.solve", _solver_iterations),
        (sweep, "minimize_batched_objective", "core.solver.solve",
         _solver_iterations),
        (model.GCON, "inference_features", "core.inference.features", None),
        (JsonlResultStore, "append", "runtime.store.append", None),
        (ParallelExperimentRunner, "run", "runtime.engine.run", None),
    ]
    originals = []
    try:
        for owner, name, layer, on_result in targets:
            original = owner.__dict__[name] if isinstance(owner, type) \
                else getattr(owner, name)
            originals.append((owner, name, original))
            setattr(owner, name, recorder.wrap(layer, original, on_result))
        yield recorder
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
