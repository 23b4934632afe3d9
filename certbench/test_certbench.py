"""The benchmark's own tests, on a tiny workload that runs in seconds."""

from __future__ import annotations

import importlib
import json
import math
from pathlib import Path

import pytest

import patchcert.bench
import patchcert.certify
import patchcert.train
from patchcert.ablation import AblationSpec
from patchcert.vit import ViTConfig

from certbench import harness, tracing

TINY = harness.Recipe("tiny", ViTConfig(h=16, w=16, c=1, p=4, d=16, heads=2, layers=1, k=2),
                      b_train=3, samples=32, epochs=2)
CERTIFY = harness.Workload("tiny-certify", "test", "certify", TINY, AblationSpec("column", 3),
                           (2, 3), "safe", rate=2.0)
TRAIN = harness.Workload("tiny-train", "test", "train", TINY, AblationSpec("column", 3),
                         (2,), "safe", rate=64.0, epoch_samples=32, eval_images=4)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("certbench")


def _targets():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.TARGETS}


def test_untraced_run_installs_no_wrappers(work_dir, monkeypatch):
    def refuse(tracer):
        raise AssertionError("the untraced run installed wrappers")

    monkeypatch.setattr(tracing, "installed", refuse)
    before = _targets()
    result = harness.run(CERTIFY, 1, 1, False, work_dir)
    assert result["correct"] and result["failed"] == 0, result["failures"]
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert _targets() == before


@pytest.mark.parametrize("workload", [CERTIFY, TRAIN], ids=lambda w: w.name)
def test_traced_run_removes_its_wrappers(work_dir, workload):
    before = _targets()
    result = harness.run(workload, 1, 1, True, work_dir)
    assert _targets() == before
    # the exact MAC check ran inside the gate and passed
    assert result["correct"] and result["failed"] == 0, result["failures"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(harness.PER_LAYER_UNITS)
    assert metrics["vit.forwards"] > 0 and metrics["numerics.matmul_calls"] > 0
    assert (metrics["train.steps"] > 0) == (workload.kind == "train")
    lines = Path(result["spans"]).read_text().splitlines()
    assert len(lines) == metrics["tracing.spans"]
    assert {"id", "name", "start_ns", "end_ns", "parent", "item"} <= set(json.loads(lines[0]))


def _children() -> list[str]:
    tasks = list(Path("/proc/self/task").glob("*/children"))
    if not tasks:
        pytest.skip("the kernel does not list child processes")
    return [pid for t in tasks for pid in t.read_text().split()]


def test_prepare_leaves_no_process_running(tmp_path):
    before = _children()
    path, loss = harness.checkpoint(TINY, tmp_path)
    assert path.is_file() and math.isfinite(loss)
    assert _children() == before


def test_wrong_vote_is_a_failure(work_dir, monkeypatch):
    honest = patchcert.certify.certified_accuracy

    def wrong_vote(*args, **kwargs):
        report = honest(*args, **kwargs)
        report["per_image"][0]["predicted"] = 1 - report["per_image"][0]["predicted"]
        return report

    monkeypatch.setattr(patchcert.certify, "certified_accuracy", wrong_vote)
    result = harness.run(CERTIFY, 1, 1, False, work_dir)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]


def test_wrong_delta_is_a_failure(work_dir, monkeypatch):
    honest = patchcert.certify.certified_accuracy

    def wrong_delta(*args, **kwargs):
        report = honest(*args, **kwargs)
        report["certified"][0]["delta"] += 1
        return report

    monkeypatch.setattr(patchcert.certify, "certified_accuracy", wrong_delta)
    result = harness.run(CERTIFY, 1, 1, False, work_dir)
    assert not result["correct"]
    assert any("oracle" in f for f in result["failures"])


def test_nonfinite_training_loss_is_a_failed_step(work_dir, monkeypatch):
    honest = patchcert.train.loss_and_gradients
    calls = []

    def diverge_once(*args, **kwargs):
        loss, grads = honest(*args, **kwargs)
        calls.append(1)
        return (math.nan if len(calls) == 1 else loss), grads

    monkeypatch.setattr(patchcert.train, "loss_and_gradients", diverge_once)
    result = harness.run(TRAIN, 1, 1, False, work_dir)
    assert not result["correct"] and result["failed"] >= 1


def test_mac_mismatch_fails_the_traced_run(work_dir, monkeypatch):
    honest = patchcert.bench.smoothing_cost

    def off_by_one(*args, **kwargs):
        cost = honest(*args, **kwargs)
        return dict(cost, macs_drop=cost["macs_drop"] + 1)

    monkeypatch.setattr(patchcert.bench, "smoothing_cost", off_by_one)
    result = harness.run(CERTIFY, 1, 1, True, work_dir)
    assert not result["correct"]
    assert any("count_macs" in f for f in result["failures"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in harness.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
