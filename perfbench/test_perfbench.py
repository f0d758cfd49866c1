"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import synthface  # noqa: E402
from synthface import datagen, evaluate, render  # noqa: E402

import workloads  # noqa: E402
from tracer import (Tracer, covered_length, net_durations, self_times,  # noqa: E402
                    tail_rank)

TINY_RENDERS_PER_IMAGE = 4.0     # 3 iterations and the final render
TINY = workloads.Sizes(size=32, model=(6, 3, 6, 16), ief_model=(6, 3, 6, 16),
                       batch=4, train_count=8, held_out=6, ief_train=8,
                       quality_images=3, builds=1, workers=2)


def _span(sid, parent, start, end, pid=1, tail=0.0):
    return {"id": sid, "parent": parent, "name": sid, "start": start,
            "end": end, "tail_s": tail, "op": 0, "pid": pid}


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("root", None, 0.0, 10.0),
             _span("a", "root", 1.0, 4.0),
             _span("b", "root", 3.0, 6.0, pid=2),     # overlaps a: union 1..6
             _span("a1", "a", 2.0, 3.0),
             _span("late", "root", 9.0, 12.0)]        # clipped to the parent
    selfs = self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["a"] == pytest.approx(3.0 - 1.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["a1"] == pytest.approx(1.0)
    assert covered_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)


def test_tracer_time_is_left_out_of_the_enclosing_spans():
    spans = [_span("root", None, 0.0, 10.0),
             _span("a", "root", 1.0, 4.0, tail=0.5),
             _span("a1", "a", 2.0, 3.0, tail=0.25),
             _span("w", "root", 5.0, 6.0, pid=2, tail=2.0)]   # another process
    selfs, net = self_times(spans), net_durations(spans)
    assert selfs["root"] == pytest.approx(10.0 - 4.0 - 0.5)
    assert selfs["a"] == pytest.approx(3.0 - 1.0 - 0.25)
    assert net["root"] == pytest.approx(10.0 - 0.5 - 0.25)
    assert net["a"] == pytest.approx(3.0 - 0.25)
    assert net["a1"] == net["w"] == pytest.approx(1.0)


def test_after_hook_time_is_recorded_as_the_span_tail():
    tracer = Tracer("t")
    inner = tracer.wrap(lambda: None, "inner", after=lambda a, k, r: time.sleep(0.05))
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    inner_span, outer_span = tracer.spans
    assert inner_span["tail_s"] >= 0.05
    assert outer_span["end"] - outer_span["start"] >= 0.05
    assert net_durations(tracer.spans)[outer_span["id"]] < 0.05
    assert self_times(tracer.spans)[outer_span["id"]] < 0.05
    assert tracer.overhead_s >= 0.05


def test_wrapped_calls_nest():
    tracer = Tracer("t")
    inner = tracer.wrap(lambda: tracer.inside("outer"), "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    assert outer() is True
    inner_span, outer_span = tracer.spans
    assert inner_span["parent"] == outer_span["id"] and outer_span["parent"] is None
    assert inner_span["run"] == "t" and not tracer.inside("outer")


def test_tail_rank_leaves_ten_samples_beyond():
    assert tail_rank(500) == (489, 98.0)
    index, pct = tail_rank(11)
    assert index == 0 and pct == pytest.approx(100 / 11)
    assert tail_rank(10) is None
    n = 260
    index, _ = tail_rank(n)
    assert n - 1 - index == 10


def test_patch_reaches_every_importer_and_unpatch_restores():
    original = render.rasterize
    holders = [render, datagen, evaluate, synthface]
    assert all(getattr(mod, "rasterize") is original for mod in holders)
    tracer = Tracer("t")
    stand_in = tracer.wrap(original, "render.rasterize")
    assert tracer.patch(original, stand_in) >= len(holders)
    assert all(getattr(mod, "rasterize") is stand_in for mod in holders)
    tracer.unpatch()
    assert all(getattr(mod, "rasterize") is original for mod in holders)
    with pytest.raises(LookupError):
        tracer.patch(test_tail_rank_leaves_ten_samples_beyond, stand_in)


def test_wrapped_call_is_timed_and_exceptions_pass_through():
    tracer = Tracer("t")
    seen = []

    def boom(x):
        if x:
            raise ValueError("x")
        return 7

    traced = tracer.wrap(boom, "boom", after=lambda a, k, r: seen.append(r))
    assert traced(0) == 7 and seen == [7]
    with pytest.raises(ValueError):
        traced(1)
    assert [s["name"] for s in tracer.spans] == ["boom", "boom"]
    assert seen == [7] and not tracer.inside("boom")


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_map_covers_every_metric():
    bench = _bench_json()
    with open(os.path.join(HERE, "metric_map.json")) as f:
        mapping = json.load(f)
    names = [m["name"] for m in bench["per_layer"]]
    assert set(mapping["per_layer"]) == set(names)
    assert {m["name"] for m in bench["end_to_end"]} <= set(mapping["end_to_end"])
    assert {"cli", "mesh_io"} <= set(mapping["not_measured"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_workload_is_correct_and_tracing_changes_no_output(workload, tmp_path):
    run = workloads.WORKLOADS[workload]
    rasterize = render.rasterize
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    (traced_dir / "spool").mkdir(parents=True)
    plain = run(3, 0.2, TINY, str(plain_dir))
    tracer = Tracer(workload, str(traced_dir / "spool"))
    traced = run(3, 0.2, TINY, str(traced_dir), tracer)
    for out in (plain, traced):
        assert out.items >= 1 and out.failed == 0 and out.latencies
    assert plain.digests and plain.digests == traced.digests
    assert plain.quality == traced.quality

    layer = workloads.layer_metrics(tracer, traced)
    assert set(layer) == {m["name"] for m in _bench_json()["per_layer"]}
    assert render.rasterize is datagen.rasterize is rasterize, "left patched"
    if workload == "datagen-200":
        assert layer["datagen.generate_sample.calls"] == 1.0
        assert layer["datagen.pose_attempts"] >= 1.0
        assert 0.0 <= layer["datagen.pool.wait_frac"] < 1.0
        parents = {s["id"]: s for s in tracer.spans}
        worker = [s for s in tracer.spans if s["name"] == "datagen.generate_sample"]
        assert {s["pid"] for s in worker} - {os.getpid()}, "no worker spans came back"
        assert all(parents[s["parent"]]["name"] == "datagen.generate_dataset"
                   for s in worker)
    elif workload == "train-200":
        assert layer["render.rasterize_gray.calls"] == 0.0
        assert layer["reconstruct.train.features_ms"] > 0.0
        assert layer["datagen.bytes_read"] > 0.0
    else:
        assert layer["reconstruct.renders_per_image"] == TINY_RENDERS_PER_IMAGE
        assert layer["quality.ief_loss_final"] == plain.quality["ief_loss_final"]


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "train-200", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
