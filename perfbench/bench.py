"""One pass of a workload through the public functions the CLI commands call:
``synth.make_dataset`` -> ``fileio.save_dataset``/``load_dataset`` ->
``net.train`` -> ``fileio.write_checkpoint``/``read_checkpoint`` ->
``net.evaluate_dataset``, one test scene per request, in a closed loop with
one client.  Correctness checks run outside the timed regions and are
counted, with every operation, in a ``Ledger``.
"""

from __future__ import annotations

import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from pairpose import fileio, net, synth
from pairpose.geom import pose_apply, rotation_geodesic_angle
from pairpose.solver import CorrespondenceSet, average_poses, poses_from_matches

from tracing import patched

UNIT_QUAT_TOL = 1e-9
GT_SOLVER_TOL_RAD = 1e-6     # acceptance 3's rotation bound

clock = time.perf_counter


class Ledger:
    """Attempted and failed operations (train calls, checkpoint round trips,
    eval requests) and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {name} {detail}".rstrip())
        return ok

    def run(self, name, fn, *args, **kwargs):
        """Call fn; a raised exception counts as a failed operation and
        returns None, so the run can still report."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark reports, never crashes
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{name} raised {type(exc).__name__}: {exc}")
            return None


@dataclass(frozen=True)
class Reps:
    """How often a timed phase runs in one pass: as often as its first run's
    time fits into ``budget_s`` seconds, but at least ``least`` and at most
    ``most`` times."""

    least: int = 1
    most: int = 1
    budget_s: float = 0.0

    def count(self, first_s):
        return max(self.least, min(self.most, int(self.budget_s // first_s)))


ONCE = Reps()


@dataclass
class PassResult:
    setup_s: list = field(default_factory=list)
    train_s: list = field(default_factory=list)
    steps: int = 0
    log: list | None = None
    checkpoint_s: list = field(default_factory=list)
    checkpoint_bytes: int = 0
    latencies: list = field(default_factory=list)
    wall_s: float = 0.0


def _timed(fn, times):
    t0 = clock()
    result = fn()
    times.append(clock() - t0)
    return result


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _same_dataset(a, b):
    if (a.train_indices != b.train_indices or a.test_indices != b.test_indices
            or len(a.records) != len(b.records)):
        return False
    clouds = [(a.model, b.model)] + [(x.scene, y.scene)
                                     for x, y in zip(a.records, b.records)]
    poses = [(x.gt, y.gt) for x, y in zip(a.records, b.records)]
    return (all(_bits(x.positions) == _bits(y.positions)
                and _bits(x.normals) == _bits(y.normals) for x, y in clouds)
            and all(_bits(x.q) == _bits(y.q) and _bits(x.t) == _bits(y.t)
                    for x, y in poses))


def _same_params(a, b):
    return (sorted(a) == sorted(b)
            and all(a[k].values.shape == b[k].values.shape
                    and _bits(a[k].values) == _bits(b[k].values) for k in a))


def _checkpoint_round_trip(path, params, cfg, n_points):
    fileio.write_checkpoint(str(path), params, cfg, n_points)
    return fileio.read_checkpoint(str(path))


def run_pass(cfg, workdir, ledger, *, min_requests, window_s=None,
             setup=ONCE, train=ONCE, checkpoint=ONCE,
             tag=lambda request: None) -> PassResult:
    """Run the workload once: set up, train, round-trip the checkpoint, then
    the eval loop.  The loop issues at least ``min_requests`` requests and,
    when ``window_s`` is given, goes on until ``window_s`` seconds have passed
    since training started.  The further runs of set-up, training and the
    checkpoint that their ``Reps`` ask for are spread evenly through the eval
    loop, so that each phase's median samples the whole pass rather than a
    few seconds of a machine whose speed drifts.  ``tag`` names the request
    that the following calls belong to (for the tracer)."""
    res = PassResult()
    start = clock()
    datasets = workdir / "datasets"
    path = workdir / "checkpoint.json"
    net_cfg = cfg.net_config()

    def set_up():
        where = datasets / str(len(res.setup_s))
        tag(f"setup-{len(res.setup_s)}")
        generated = synth.make_dataset(
            cfg.shape_spec(), cfg.scenes, cfg.scene_spec(), seed=cfg.seed,
            train_fraction=cfg.train_fraction)
        fileio.save_dataset(str(where), generated, cfg.seed)
        return generated, fileio.load_dataset(str(where))

    def fit():
        tag("train")
        return ledger.run("train", net.train, ds, net_cfg, seed=cfg.seed)

    def round_trip():
        tag("checkpoint")
        return ledger.run("checkpoint", _checkpoint_round_trip, path, params,
                          cfg, len(ds.model))

    generated, ds = _timed(set_up, res.setup_s)
    ledger.check("dataset round trip is bit-exact", _same_dataset(generated, ds))

    window_start = clock()
    trained = _timed(fit, res.train_s)
    if trained is None:
        return res
    params, res.log = trained
    res.steps = cfg.epochs * len(ds.train_indices)

    loaded = _timed(round_trip, res.checkpoint_s)
    if loaded is None:
        return res
    res.checkpoint_bytes = path.stat().st_size
    ckpt_params, ckpt_cfg, n_points = loaded
    ledger.check("checkpoint round trip is bit-exact",
                 _same_params(params, ckpt_params) and ckpt_cfg == cfg
                 and n_points == len(ds.model))

    # (phase, its times, the runs it gets)
    repeats = [(fn, times, reps.count(times[0])) for fn, times, reps in (
        (set_up, res.setup_s, setup), (fit, res.train_s, train),
        (round_trip, res.checkpoint_s, checkpoint))]

    # keep each request's final pose for the checks below
    final_poses = []
    original_predict = net.predict

    def predict(*args, **kwargs):
        pred = original_predict(*args, **kwargs)
        final_poses.append(pred.final_pose)
        return pred

    eval_cfg = ckpt_cfg.net_config()
    answers = []    # (eval record, final pose) per successful request
    loop_start = clock()
    span = None     # the eval loop's expected length, once a request is timed
    with patched([(net, "predict", predict)]):
        k = 0
        while k < min_requests or (window_s is not None
                                   and clock() - window_start < window_s):
            for fn, times, n in repeats:
                if (span is not None and len(times) < n
                        and clock() - loop_start >= span * len(times) / n):
                    _timed(fn, times)
            view = replace(ds, test_indices=(
                ds.test_indices[k % len(ds.test_indices)],))
            tag(f"eval-{k}")
            final_poses.clear()
            t0 = clock()
            out = ledger.run("eval", net.evaluate_dataset, ckpt_params,
                             eval_cfg, view, which="test", seed=cfg.seed + k)
            latency = clock() - t0
            if out is not None:
                res.latencies.append(latency)
                answers.append((out[0][0], final_poses[-1]))
            if span is None:
                left = sum((n - len(times)) * times[0]
                           for _, times, n in repeats)
                window_left = (window_start + window_s - loop_start
                               if window_s is not None else 0.0)
                span = max(window_left, min_requests * latency + left)
            k += 1
        for fn, times, n in repeats:
            while len(times) < n:
                _timed(fn, times)
    tag(None)
    res.wall_s = clock() - start
    shutil.rmtree(datasets)
    path.unlink()

    ledger.check("every training loss is finite",
                 all(math.isfinite(v) for row in res.log
                     for key, v in row.items() if key != "epoch"))
    for rec, pose in answers:
        ledger.check("final pose has a unit quaternion and finite ADD/ADD-S",
                     abs(float(np.linalg.norm(pose.q)) - 1.0) < UNIT_QUAT_TOL
                     and math.isfinite(rec.add_error)
                     and math.isfinite(rec.adds_error),
                     rec.scene_id)
    return res


def check_solver_on_ground_truth(cfg, ledger):
    """Acceptance 3 on one scene: pair sampling + pose averaging over exact
    ground-truth correspondences recovers the ground-truth rotation."""
    ds = synth.make_dataset(cfg.shape_spec(), 1, cfg.scene_spec(),
                            seed=cfg.seed, train_fraction=0.0)
    rec = ds.records[0]
    posed = pose_apply(rec.gt, ds.model, frame="scene")
    corr = CorrespondenceSet(posed.positions, posed.normals,
                             ds.model.positions, ds.model.normals,
                             "scene_to_model")
    est = average_poses(poses_from_matches(corr, cfg.num_pairs, cfg.seed))
    err = rotation_geodesic_angle(est.q, rec.gt.q)
    ledger.check("pair solver recovers the ground-truth pose",
                 err < GT_SOLVER_TOL_RAD, f"({err:.3e} rad)")


def tail(latencies):
    """(value, percentile, samples): the highest nearest-rank percentile with
    at least ten samples beyond it; the maximum when there are fewer than 11."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n
