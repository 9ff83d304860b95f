"""Schema and robustness tests of the benchmark at tiny sizes (no timing asserts)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# the workload's own metrics in the report, beyond the end-to-end ones
REPORTED = {
    "labels": {"train_pos_per_s": "pairs/s", "recon_pairs_per_s": "pairs/s",
               "edge_f1": "F1", "recon_f1": "F1"},
    "joint": {"train_pos_per_s": "pairs/s", "classify_rows_per_s": "inst*levels/s",
              "cls_mf1": "F1"},
    "eval-wide": {"recon_pairs_per_s": "pairs/s", "classify_rows_per_s": "inst*levels/s",
                  "recon_f1": "F1", "cls_mf1": "F1"},
    "heads": {"heads_samples_per_s": "samples/s", "heads_mf1": "F1"},
}


def tiny(workload, trace, tmp_path):
    return run.run_benchmark(workload, 3, 0, trace, sizes=workloads.TINY, work_root=tmp_path)


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.FULL)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.METRICS


@pytest.mark.parametrize("workload", list(workloads.FULL))
@pytest.mark.parametrize("trace", [False, True])
def test_schema(workload, trace, tmp_path):
    out = tiny(workload, trace, tmp_path)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = spans.METRICS if trace else run.E2E
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    report = {n: unit for n, (_, unit) in out["report"].items()}
    assert report.items() >= {**run.E2E, "fail_ratio": "ratio", **REPORTED[workload]}.items()
    assert set(out["machine"]) >= {"nproc", "python", "numpy", "blas_threads"}
    assert not any(tmp_path.glob(f"{workload}-*")), "round directory left behind"


def test_sampler_layer_only_in_training(tmp_path):
    labels = tiny("labels", True, tmp_path)["result"]["metrics"]
    wide = tiny("eval-wide", True, tmp_path)["result"]["metrics"]
    assert labels["sampler.self_s"]["value"] > 0 and labels["sampler.negs"]["value"] > 0
    assert wide["sampler.self_s"]["value"] == 0 and wide["engine.self_s"]["value"] == 0
    assert wide["recon.self_s"]["value"] > 0 and wide["classify.rows"]["value"] > 0


def test_missing_attribute_nulls_its_layer(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(spans.LAYERS, "sampler", [
        ("training", "_sample_negatives_renamed"),
        ("training", "_sample_negatives_rebalanced"),
    ])
    metrics = tiny("labels", True, tmp_path)["result"]["metrics"]
    assert "layer 'sampler' not traced" in capsys.readouterr().err
    for name in ("sampler.calls", "sampler.negs", "sampler.self_s", "sampler.fill_ratio"):
        assert metrics[name]["value"] is None
    # the untraced sampler's time stays with its caller, the epoch engine
    assert metrics["engine.self_s"]["value"] > 0
    assert metrics["kernel.rows"]["value"] > 0


def test_self_time_subtracts_children():
    # parent 0..10 with children 1..3 and 4..8; grandchild 5..6 under the second
    s = [["a", "x", 0.0, 10.0, -1, None], ["b", "y", 1.0, 3.0, 0, None],
         ["c", "y", 4.0, 8.0, 0, None], ["d", "x", 5.0, 6.0, 2, None]]
    assert spans.self_times(s) == [4.0, 2.0, 3.0, 1.0]


def test_host_speed_scales_by_nearby_samples():
    speed = run.HostSpeed()
    step = run.SAMPLE_S
    speed.samples = [(0.0, 2 * run.REF_S), (step, 2 * run.REF_S), (10 * step, run.REF_S)]
    # a command from 0.5 to 1.5 periods sees the first two samples: half speed
    assert speed.scale(0.5 * step, 1.5 * step) == pytest.approx(0.5 * step)
    # no sample within a period of the command: the one nearest its end
    assert speed.scale(5 * step, 7 * step) == pytest.approx(2 * step)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "labels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
