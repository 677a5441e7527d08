"""pairpose benchmark: synth -> train -> checkpoint -> eval, end to end and
layer by layer.

    python3 perfbench/run.py --workload toy-128 --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 1
    python3 perfbench/run.py --workload all --smoke

Run from the root of a pairpose checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs the workload untraced and then traced with a
fixed number of eval requests, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and the machine facts, which are also
written, with the spans of a traced run, under ``--out``
(``perfbench/out`` by default).  See perfbench/README.md.
"""

import os

# pin BLAS to one thread before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("paper-add-1000", "paper-adds-256", "toy-128")
CHILD_TIMEOUT_S = 900       # per workload under --workload all
# (least, most, budget_s) runs of each phase of an untraced run, which reports
# their medians; a paper-scale checkpoint round trip (7-10 s) runs 4 times
UNTRACED_REPS = {"setup": (5, 25, 2.0), "train": (3, 5, 6.0),
                 "checkpoint": (4, 25, 6.0)}


def _import_pairpose():
    """Import pairpose from this checkout's src/, or exit nonzero."""
    if not (SRC / "pairpose" / "__init__.py").is_file():
        sys.exit(f"error: no pairpose sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import pairpose
    if Path(pairpose.__file__).resolve().parent != SRC / "pairpose":
        sys.exit(f"error: imported pairpose from {pairpose.__file__}, "
                 f"not from {SRC}")


def machine_facts():
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "blas": blas, "blas_threads": int(BLAS_THREADS),
            "numpy": np.__version__, "python": platform.python_version()}


# -- metrics -----------------------------------------------------------------

def end_to_end_metrics(res):
    """name -> (value, unit, kind, note) from an untraced pass."""
    import bench

    m = {"setup_s": (statistics.median(res.setup_s), "s", "measured",
                     f"median of {len(res.setup_s)} set-ups")}
    if res.log is not None:
        m["train_steps_per_s"] = (
            statistics.median(res.steps / t for t in res.train_s),
            "scene-steps/s", "measured",
            f"{res.steps} steps per call, median of {len(res.train_s)} calls")
    if res.checkpoint_bytes:
        m["checkpoint_s"] = (
            statistics.median(res.checkpoint_s), "s", "measured",
            f"{res.checkpoint_bytes} bytes, median of "
            f"{len(res.checkpoint_s)} round trips")
    lat = res.latencies
    if lat:
        value, pct, n = bench.tail(lat)
        m["eval_scenes_per_s"] = (len(lat) / sum(lat), "scenes/s",
                                  "measured", "closed loop, one client")
        m["eval_scene_s.p50"] = (statistics.median(lat), "s", "measured",
                                 f"{n} samples")
        m["eval_scene_s.tail"] = (value, "s", "measured",
                                  f"p{pct:.1f} of {n} samples")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m["peak_rss_mb"] = (rss_kb / 1024.0, "MB", "measured", "ru_maxrss")
    return m


def layer_metrics(tracer, res, overhead_s):
    """name -> (value, unit, kind, note) from a traced pass."""
    from tracing import LAYERS, OPS

    total, own, calls, layer_self = tracer.summary()
    m = {}

    def secs(metric, span):
        m[metric] = (total.get(span, 0.0), "s", "measured", "")

    def count(metric, value, unit="count", kind="count"):
        m[metric] = (value, unit, kind, "")

    secs("synth.make_dataset_s", "synth.make_dataset")
    for f in ("save_dataset", "load_dataset", "write_checkpoint",
              "read_checkpoint"):
        secs(f"fileio.{f}_s", f"fileio.{f}")
    count("fileio.checkpoint_mb", res.checkpoint_bytes / 1e6, "MB", "computed")
    secs("ppf.attention_target_s", "ppf.attention_target")
    count("ppf.attention_target_calls", calls["ppf.attention_target"])
    built = len(tracer.targets)
    count("ppf.target_useful_ratio",
          len(tracer.useful_targets) / built if built else 0.0, "ratio")
    secs("net.prepare_scene_s", "net.prepare_scene")
    count("net.ppf_target_mb",
          sum(b for request, b in tracer.targets if request == "train") / 1e6,
          "MB", "computed")
    secs("net.forward_all_s", "net.forward_all")
    eval_forwards = sum(1 for name, _, _, _, request in tracer.spans
                        if name == "net.forward_all"
                        and str(request).startswith("eval-"))
    count("net.forward_all.calls_per_eval_scene",
          eval_forwards / len(res.latencies) if res.latencies else 0.0)
    for f in ("detach_params", "predict", "psn_forward", "feature_forward",
              "attention_forward", "bidirectional_forward",
              "direct_pose_forward", "scene_losses"):
        secs(f"net.{f}_s", f"net.{f}")
    for op in OPS:
        secs(f"autodiff.{op}.fwd_s", f"autodiff.{op}")
        secs(f"autodiff.{op}.bwd_s", f"autodiff.{op}.bwd")
        count(f"autodiff.{op}.calls", calls[f"autodiff.{op}"])
    secs("autodiff.backward_s", "autodiff.backward")
    m["autodiff.backward_self_s"] = (own.get("autodiff.backward", 0.0), "s",
                                     "measured", "outside every op's VJP")
    secs("autodiff.adam_step_s", "autodiff.adam_step")
    secs("autodiff.nearest_point_selection_s",
         "autodiff.nearest_point_selection")
    secs("solver.poses_from_matches_s", "solver.poses_from_matches")
    secs("solver.average_poses_s", "solver.average_poses")
    attempted = tracer.pairs["attempted"]
    count("solver.pairs_valid_ratio",
          tracer.pairs["returned"] / attempted if attempted else 0.0, "ratio")
    secs("metrics.add_metric_s", "metrics.add_metric")
    secs("metrics.adds_metric_s", "metrics.adds_metric")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s", "measured",
                                "span time minus child spans")
    m["trace.overhead_s"] = (overhead_s, "s", "measured",
                             "traced pass wall minus untraced pass wall")
    return m


# -- one workload -------------------------------------------------------------

def run_workload(args):
    _import_pairpose()
    import bench
    import tracing
    from workloads import WORKLOADS, smoke

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    cfg = replace(w.config, seed=args.seed)
    out_dir = Path(args.out) if args.out else HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    ledger = bench.Ledger()
    extra = {}
    try:
        if args.trace:
            plain = bench.run_pass(cfg, workdir, ledger,
                                   min_requests=w.trace_requests)
            tracer = tracing.Tracer()

            def tag(request):
                tracer.request = request

            origin = time.perf_counter()
            with tracing.instrument(tracer):
                res = bench.run_pass(cfg, workdir, ledger,
                                     min_requests=w.trace_requests, tag=tag)
            ledger.check("traced loss log is bit-identical to the untraced one",
                         res.log == plain.log)
            trace_path = out_dir / f"{stem}.trace.jsonl"
            tracer.write(trace_path, origin)
            metrics = layer_metrics(tracer, res, res.wall_s - plain.wall_s)
            extra = {"untraced_wall_s": plain.wall_s,
                     "traced_wall_s": res.wall_s, "spans": len(tracer.spans),
                     "trace_file": str(trace_path)}
        else:
            res = bench.run_pass(cfg, workdir, ledger,
                                 min_requests=w.min_requests,
                                 window_s=0.0 if args.smoke else args.seconds,
                                 **{phase: bench.Reps(*reps) for phase, reps
                                    in UNTRACED_REPS.items()})
            metrics = end_to_end_metrics(res)
        bench.check_solver_on_ground_truth(cfg, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts()
    print(f"workload {w.name}{' (smoke)' if args.smoke else ''} seed "
          f"{args.seed} trace {args.trace} seconds {args.seconds}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit, kind, note) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:14s} {kind:9s} {note}")
    print(f"  {'error_rate':40s} {ledger.failed / ledger.attempted:14.6g} "
          f"{'failed/attempted':14s} {'count':9s} "
          f"{ledger.failed} of {ledger.attempted}")
    for key, value in extra.items():
        print(f"  {key} {value}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    out = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
           "failed": ledger.failed,
           "metrics": {k: {"value": v[0], "unit": v[1]}
                       for k, v in metrics.items()}}
    report = {"workload": w.name, "smoke": args.smoke, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "machine": facts,
              "config": asdict(cfg), **extra, "failures": ledger.failures,
              "metrics": {k: {"value": v[0], "unit": v[1], "kind": v[2],
                              "note": v[3]} for k, v in metrics.items()},
              "setup_s": res.setup_s, "train_s": res.train_s,
              "checkpoint_s": res.checkpoint_s, "latencies_s": res.latencies,
              "loss_log": res.log}
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps(out))
    return 0


def run_all(args):
    """Each workload in its own fresh process (so peak RSS is its own)."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            totals["correct"] = False
            continue
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            totals["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(totals))
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0,
                   help="measured window of an untraced run: training, the "
                        "checkpoint and the eval loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and no measured window; all workloads "
                        "finish in seconds")
    p.add_argument("--out", help="directory for reports, traces and scratch "
                                 "files (default perfbench/out)")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
