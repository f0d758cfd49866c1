"""synthface benchmark: datagen-200, train-200 and ief-200.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root.  One workload runs in this process; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before it
is a report with the environment, the digests of the outputs and the
workload's own figures under the names in `metric_map.json`.  A traced run
also writes its spans and counters to ``.perfbench_traces/``.

``--workload all`` runs every workload twice, untraced and traced, each in a
fresh process; it prints each workload's figures, the tracing overhead, and
whether tracing changed any output digest.

The BLAS and OpenMP thread counts are pinned to 1 before NumPy loads, so
`nproc` datagen workers never run more threads than there are CPUs.
"""

from __future__ import annotations

import os

THREAD_PIN = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse                 # noqa: E402  (the pin must precede NumPy)
import json                     # noqa: E402
import platform                 # noqa: E402
import resource                 # noqa: E402
import shutil                   # noqa: E402
import statistics               # noqa: E402
import subprocess               # noqa: E402
import sys                      # noqa: E402
import tempfile                 # noqa: E402

import numpy as np              # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("datagen-200", "train-200", "ief-200")


def _import_library():
    """Put this checkout's `src` first on the path, and refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "synthface", "__init__.py")):
        sys.exit(f"perfbench: no synthface package under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import synthface
    if os.path.dirname(os.path.dirname(os.path.abspath(synthface.__file__))) != SRC:
        sys.exit(f"perfbench: imported synthface from {synthface.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        if index.startswith("index"):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache_dir, index, key)) as f:
                    fields[key] = f.read().strip()
            caches[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "thread_pin": THREAD_PIN, "commit": commit, "seed": seed}


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_library()
    import workloads
    from tracer import Tracer, tail_rank

    sizes = workloads.Sizes()
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root)
    try:
        tracer = None
        if trace:
            spool = os.path.join(tmp, "spool")
            os.makedirs(spool)
            tracer = Tracer(f"{workload}:{seed}", spool)
        out = workloads.WORKLOADS[workload](seed, seconds, sizes, tmp, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:             # another run is still using it
            pass

    busy = sum(out.latencies)
    lat_ms = sorted(1e3 * t for t in out.latencies)
    end_to_end = {
        "setup_s": (out.setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (out.items / busy, "1/s"),
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
    }
    report = {"workload": workload, "trace": int(trace), "ops": len(lat_ms),
              "items": out.items, "failed": out.failed,
              "error_rate": out.failed / max(out.items, 1),
              "digests": out.digests, "quality": out.quality,
              "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
              "env": environment(seed)}
    rank = tail_rank(len(lat_ms))
    if rank is not None:
        report["latency_ms_tail"] = {"percentile": rank[1], "ms": lat_ms[rank[0]],
                                     "samples": len(lat_ms)}
    if trace:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
        layer = workloads.layer_metrics(tracer, out)
        report["trace_file"] = os.path.join(".perfbench_traces", f"{workload}-seed{seed}.json")
        tracer.write(os.path.join(ROOT, report["trace_file"]))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": out.failed == 0 and out.items > 0,
                      "attempted": out.items, "failed": out.failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, every run in a fresh process."""
    results, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOAD_NAMES:
        runs = []
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                sys.exit(f"perfbench: {workload} --trace {trace} exited "
                         f"{done.returncode}")
            runs.append((json.loads(lines[-2])["report"], json.loads(lines[-1])))
        (plain, plain_result), (traced, traced_result) = runs
        same_outputs = plain["digests"] == traced["digests"]
        overhead = {k: traced["end_to_end"][k] / plain["end_to_end"][k] - 1.0
                    for k in ("throughput_per_s", "latency_ms_p50")}
        correct &= plain_result["correct"] and traced_result["correct"] and same_outputs
        attempted += plain_result["attempted"]
        failed += plain_result["failed"]
        results[workload] = {"report": plain, "per_layer": {
            k: v["value"] for k, v in traced_result["metrics"].items()},
            "tracing_overhead": overhead, "digests_equal_traced": same_outputs}
        print(f"== {workload}")
        for name, value in _named_figures(workload, plain).items():
            print(f"  {name:<28} {value}")
        print(f"  {'tracing overhead':<28} throughput {overhead['throughput_per_s']:+.1%}, "
              f"p50 latency {overhead['latency_ms_p50']:+.1%} between the two runs; "
              f"wrapper time {results[workload]['per_layer']['trace.overhead_frac']:.1%} "
              f"of the traced run")
        print(f"  {'digests equal when traced':<28} {same_outputs}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "workloads": results}))
    return 0


def _named_figures(workload: str, report: dict) -> dict:
    """The workload's figures under the names of metric_map.json."""
    e2e = report["end_to_end"]
    figures = {"setup_s": f"{e2e['setup_s']:.3f} s",
               "peak_rss_mb": f"{e2e['peak_rss_mb']:.1f} MB",
               "error_rate": f"{report['error_rate']:.4f} "
                             f"({report['failed']}/{report['items']})"}
    if workload == "datagen-200":
        figures["datagen_samples_per_s"] = f"{e2e['throughput_per_s']:.2f} 1/s"
    elif workload == "train-200":
        figures["train_s"] = f"{e2e['latency_ms_p50'] / 1e3:.4f} s"
    else:
        tail = report.get("latency_ms_tail", {})
        figures["ief_images_per_s"] = f"{e2e['throughput_per_s']:.2f} 1/s"
        figures["ief_ms_p50"] = f"{e2e['latency_ms_p50']:.2f} ms"
        figures["ief_ms_tail"] = (f"{tail.get('ms', float('nan')):.2f} ms (p"
                                 f"{tail.get('percentile', float('nan')):.1f} of "
                                 f"{tail.get('samples', 0)} images)")
        figures["ief_loss_final"] = f"{report['quality']['ief_loss_final']:.4f}"
        figures["ief_vertex_err_mean"] = f"{report['quality']['ief_vertex_err_mean']:.5f}"
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
