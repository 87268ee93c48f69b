"""Self-tests of the benchmark.  Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q

They check that the output checks have power (a flipped score bit or an
answer from the wrong graph epoch counts as failed), that a smoke-sized run
of every workload completes and prints every metric ``BENCHMARK.json``
declares with its unit, and that the benchmark refuses to run without the
program's sources.  The file name keeps it out of the repository's own
test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, WORK, load_spec, require_sources  # noqa: E402

require_sources()

import serve  # noqa: E402
from loadgen import Call, PhaseResult  # noqa: E402


def _answer(call: Call, scores: np.ndarray, sent: float, done: float) -> None:
    call.sent, call.done, call.status = sent, done, 200
    call.response = json.dumps({"model": call.meta["name"] + "@0123456789ab",
                                "scores": scores.tolist()}).encode()


def _references(epochs: int) -> dict:
    rng = np.random.default_rng(0)
    return {name: [rng.standard_normal((30, 4)) for _ in range(epochs)]
            for name, _e, _s in serve.RELEASES}


def _predict(name: str, nodes: list[int], due: float) -> Call:
    return Call("predict", due, "/v1/predict", b"", {"name": name, "nodes": nodes})


def _phase(calls) -> PhaseResult:
    return PhaseResult(calls=calls, duration=10.0, lateness=[], inflight=[])


def test_checker_accepts_exact_answers():
    references = _references(1)
    calls = [_predict("alpha", [3, 5, 7], 0.0), _predict("beta", [1], 0.1)]
    for call in calls:
        matrix = references[call.meta["name"]][0]
        _answer(call, matrix[call.meta["nodes"]], call.due, call.due + 0.01)
    assert serve._check_phase(_phase(calls), references) == []
    assert all(call.ok for call in calls)


def test_checker_counts_a_single_flipped_bit():
    references = _references(1)
    call = _predict("alpha", [2, 4], 0.0)
    scores = references["alpha"][0][[2, 4]].copy()
    bits = scores.view(np.uint64)
    bits[1, 2] ^= np.uint64(1)  # one ulp in one score
    _answer(call, scores, 0.0, 0.01)
    problems = serve._check_phase(_phase([call]), references)
    assert len(problems) == 1 and not call.ok


def test_checker_counts_an_answer_from_the_wrong_epoch():
    references = _references(3)
    update = Call("update", 1.0, "/v1/graph/update", b"", {"epoch": 1})
    update.sent, update.done, update.status = 1.0, 1.2, 200
    update.response = json.dumps({"epoch": 1}).encode()
    # Sent after update 1 was answered: only epoch 1 was ever current.
    stale = _predict("alpha", [0, 1], 1.5)
    _answer(stale, references["alpha"][0][[0, 1]], 1.5, 1.6)
    # In flight while the update ran: epoch 0 or 1 are both right.
    racing = _predict("alpha", [0, 1], 1.1)
    _answer(racing, references["alpha"][0][[0, 1]], 1.1, 1.15)
    fresh = _predict("beta", [0, 1], 1.5)
    _answer(fresh, references["beta"][1][[0, 1]], 1.5, 1.6)
    problems = serve._check_phase(_phase([update, racing, stale, fresh]),
                                  references)
    assert len(problems) == 1
    assert not stale.ok and racing.ok and fresh.ok


def test_sweep_checker_counts_a_changed_score():
    import sweep

    bench = sweep.SweepBench(seed=3, **{"scale": 0.06, "encoder_epochs": 10})
    step = bench.run_group()
    assert sweep._check(bench, [step])[0] == 0
    step[1][0].micro_f1 = 1.0 - step[1][0].micro_f1 / 2  # any other value
    failed, notes, flips = sweep._check(bench, [step])
    assert failed == 2 and len(notes) == 2 and not flips  # store + reference


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "3"):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", seconds, "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "serve_read", "serve_churn"])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in declared}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_program_sources():
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = _run("sweep", 0, cwd=bare)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
