"""Command-line interface tying the modules into reproducible experiments.

Every command takes --config (flat key=value file), repeated --set KEY=VALUE
overrides, and --seed (eval reads only the seed, and its --set takes only
seed); identical configuration and seed produce byte-identical output files.
Failures print one machine-readable JSON object on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


from . import fileio, net
from .checks import run_end_to_end_grad_check, run_op_grad_suites
from .errors import PairposeError, SchemaViolation
from .fileio import Config
from .metrics import summarize
from .solver import average_poses, kabsch_points, poses_from_matches
from .synth import make_dataset


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--seed", type=int, help="override the config seed")


def _load_config(args) -> Config:
    cfg = fileio.load_config(args.config, args.overrides)
    if args.seed is not None:   # a source of its own: it wins over --set seed=
        cfg = fileio.parse_config(f"seed={args.seed}", cfg, source="--seed")
    return cfg


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    dataset = make_dataset(cfg.shape_spec(), cfg.scenes, cfg.scene_spec(),
                           seed=cfg.seed, train_fraction=cfg.train_fraction)
    fileio.save_dataset(args.out, dataset, cfg.seed)
    print(f"wrote {len(dataset.records)} scenes to {args.out}")
    return 0


def cmd_ppf_target(args) -> int:
    from .ppf import PpfGammas, attention_target

    cfg = _load_config(args)
    viewpoint = tuple(float(v) for v in args.viewpoint.split(",")) \
        if args.viewpoint else None
    scene = fileio.read_ply(args.scene, viewpoint=viewpoint)
    model = fileio.read_ply(args.model)
    gt = fileio.read_pose(args.pose)
    w = attention_target(scene, model, gt,
                         PpfGammas(cfg.gamma1, cfg.gamma2, cfg.gamma3))
    fileio.write_matrix(args.out, w.weights)
    print(f"wrote {w.shape[0]}x{w.shape[1]} weight matrix to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    dataset = fileio.load_dataset(args.dataset)
    params, log = net.train(dataset, cfg.net_config(), seed=cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_checkpoint(os.path.join(args.out, "checkpoint.json"),
                            params, cfg, len(dataset.model))
    fileio.write_loss_csv(os.path.join(args.out, "loss.csv"), log)
    final = f"; final total loss {log[-1]['total']:.6f}" if log else ""
    print(f"trained {cfg.epochs} epochs{final}; wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    keys = {o.split("=", 1)[0].strip() for o in args.overrides} - {"seed"}
    if keys:    # the network config comes from the checkpoint
        raise SchemaViolation(f"--set: eval reads only seed, not "
                              f"{', '.join(sorted(keys))}")
    args_cfg = _load_config(args)
    params, ckpt_cfg, n_points = fileio.read_checkpoint(args.checkpoint)
    dataset = fileio.load_dataset(args.dataset)
    if len(dataset.model) != n_points:
        raise PairposeError(
            f"checkpoint was trained with {n_points} points, dataset has "
            f"{len(dataset.model)}")
    records, diag = net.evaluate_dataset(params, ckpt_cfg.net_config(), dataset,
                                         which=args.split, seed=args_cfg.seed)
    name = dataset.shape_spec.kind
    report = summarize(records)
    fileio.write_metrics_csv(args.out + ".csv",
                             [fileio.metrics_csv_row(name, report)])
    obj = {
        "format": "metrics.v1",
        "object": name,
        "split": args.split,
        "count": report.count,
        "accuracy_at_0p1d": report.accuracy_at_0p1d,
        "accuracy_at_2cm": report.accuracy_at_2cm,
        "auc": report.auc,
        "corr_l1": diag["corr_l1"],
    }
    with open(args.out + ".json", "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    print(f"{name} [{args.split}] acc@0.1d={report.accuracy_at_0p1d:.3f} "
          f"acc@2cm={report.accuracy_at_2cm:.3f} auc={report.auc:.3f}")
    return 0


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    corr = fileio.read_correspondences(args.corr)
    (mp, _), (sp, _) = corr.model_scene_sides()
    if args.solver == "kabsch":
        pose = kabsch_points(mp, sp)
    else:
        pose = average_poses(poses_from_matches(corr, cfg.num_pairs, cfg.seed))
    fileio.write_pose(args.out, pose)
    print(f"wrote pose to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    suites = run_op_grad_suites(instances=args.instances, seed=cfg.seed)
    e2e = run_end_to_end_grad_check(seed=cfg.seed)
    for name, err in sorted(suites["per_op"].items()):
        status = "pass" if err < suites["tol"] else "FAIL"
        print(f"{name:24s} {err:.3e}  {status}")
    status = "pass" if e2e["passed"] else "FAIL"
    print(f"{'end_to_end':24s} {e2e['max_rel_err']:.3e}  {status}  "
          f"kinks {e2e['kinks']}")
    ok = suites["passed"] and e2e["passed"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"format": "gradcheck.v2", "ops": suites["per_op"],
                       "op_tol": suites["tol"], "op_kinks": suites["kinks"],
                       "end_to_end": e2e, "passed": ok}, fh, indent=2)
            fh.write("\n")
    print("gradcheck:", "pass" if ok else "FAIL")
    return 0 if ok else 1


ABLATION_GRIDS = {
    # attention concatenation per branch (direct regression / match prediction)
    "attention": ("attn_direct,attn_match",
                  [{"attention_for_direct": False, "attention_for_match": False},
                   {"attention_for_direct": False, "attention_for_match": True},
                   {"attention_for_direct": True, "attention_for_match": False},
                   {"attention_for_direct": True, "attention_for_match": True}]),
    # feature source for the attention map, with/without pair-weight supervision
    "psn": ("psn,ppf_supervision",
            [{"attention_source": "branch", "ppf_supervision": False},
             {"attention_source": "branch", "ppf_supervision": True},
             {"attention_source": "psn", "ppf_supervision": True}]),
    # which pair-feature terms build the supervision weights
    "ppf-terms": ("use_d,use_theta_d,use_theta",
                  [{"gamma2": 0.0, "gamma3": 0.0},
                   {"gamma1": 0.0, "gamma3": 0.0},
                   {"gamma1": 0.0, "gamma2": 0.0},
                   {"gamma2": 0.0},
                   {"gamma3": 0.0},
                   {"gamma1": 0.0},
                   {}]),
}


def _ablation_flags(grid, cfg) -> str:
    if grid == "attention":
        return f"{int(cfg.attention_for_direct)},{int(cfg.attention_for_match)}"
    if grid == "psn":
        return f"{int(cfg.attention_source == 'psn')},{int(cfg.ppf_supervision)}"
    return ",".join(str(int(getattr(cfg, g) != 0.0))
                    for g in ("gamma1", "gamma2", "gamma3"))


def cmd_ablate(args) -> int:
    from dataclasses import replace

    base = _load_config(args)
    dataset = fileio.load_dataset(args.dataset)
    flag_header, cells = ABLATION_GRIDS[args.grid]
    lines = [flag_header + ",add_auc,adds_auc,acc_0p1d,acc_2cm,corr_l1,n"]
    for overrides in cells:
        cfg = replace(base, **overrides)
        params, _ = net.train(dataset, cfg.net_config(), seed=cfg.seed)
        records, diag = net.evaluate_dataset(params, cfg.net_config(), dataset,
                                             which="test", seed=cfg.seed)
        report = summarize(records)
        lines.append(",".join([_ablation_flags(args.grid, cfg),
                               *fileio.metric_columns(report),
                               repr(diag["corr_l1"]), str(report.count)]))
        print(f"cell {overrides or 'full'}: done")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(cells)} ablation rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairpose",
        description="attention-supervised bidirectional 6D pose estimation "
                    "on synthetic oriented point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ppf-target",
                       help="pair-weight attention target for a posed scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--pose", required=True, help="ground-truth pose JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--viewpoint", help="x,y,z to estimate missing normals")
    _add_common(p)
    p.set_defaults(func=cmd_ppf_target)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="pose from a correspondence file")
    p.add_argument("--corr", required=True)
    p.add_argument("--solver", choices=("kabsch", "pairs"), default="kabsch")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gradcheck", help="run the gradient-check suites")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--out", help="optional JSON report path")
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train/eval a grid of mechanism flags")
    p.add_argument("--dataset", required=True)
    p.add_argument("--grid", choices=tuple(ABLATION_GRIDS), default="attention")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PairposeError, ValueError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
