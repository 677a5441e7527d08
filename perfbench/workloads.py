"""The benchmark's workloads.

Each workload is the flat ``Config`` the CLI would be given (so
``shape_spec()``, ``scene_spec()`` and ``net_config()`` derive exactly what
``pairpose synth/train/eval`` would run) plus the request counts of the eval
loop.  The run's ``--seed`` becomes ``Config.seed``, which seeds every scene,
the train split order, the initial weights and the pose-pair sampling; the
model shape itself keeps ``shape_seed`` 0, like a fixed physical object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from pairpose.fileio import Config


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Config
    min_requests: int = 21      # eval requests in an untraced run, at least
    trace_requests: int = 2     # eval requests in each pass of a traced run


# published widths (Config defaults) at N = 1000: asymmetric shape, ADD loss;
# 1 training scene x 1 epoch per train call (so a run fits several calls) and
# 4 test scenes cycled by the eval loop
PAPER_ADD = Workload(
    "paper-add-1000",
    "paper scale: N=1000 and published widths; matmul-bound training, "
    "a 76 MB checkpoint, and predict waste (unused PPF target, re-detach)",
    Config(scenes=5, train_fraction=0.2, epochs=1),
)

# symmetric box at N = 256 with published widths: ADD-S loss, the only
# workload that calls autodiff.nearest_point_selection
PAPER_ADDS = Workload(
    "paper-adds-256",
    "only workload on the ADD-S path: nearest_point_selection dominates "
    "train steps and eval (scene_losses); N=256 is the largest runnable size",
    Config(n=256, shape_kind="box", shape_dims=(0.08, 0.1, 0.12),
           scenes=5, train_fraction=0.2, epochs=1),
)

# the acceptance-6 toy configuration (TOY_SHAPE, TOY_SCENES, TOY_FULL
# widths, 96 scenes, 2/3 train split), 2 epochs instead of 50.  It is run by
# name and is not in BENCHMARK.json: every phase is bound by Python overhead,
# whose speed on a small shared host swings by up to 1.7x for tens of seconds,
# so the medians of runs of the same code spread by more than 25%.
TOY = Workload(
    "toy-128",
    "what Tier-1 pays for: 19 ms steps bound by per-op Python overhead in "
    "autodiff, predict dominated by scalar pair sampling in solver",
    Config(n=128, scenes=96, train_fraction=2 / 3,
           rotation="limited", max_angle=0.4,
           translation_low=(-0.05, -0.05, -0.05),
           translation_high=(0.05, 0.05, 0.05),
           noise_sigma=0.002, occlusion_fraction=0.3,
           viewpoint=(1.0, 1.0, 1.0),
           psn_trunk=(16, 32, 64), psn_exterior_width=8, psn_out_width=32,
           feat_widths=(32, 64), feat_global_width=64,
           decode_width=64, head_hidden=(96,),
           epochs=2, lr=2e-3, lr_decay=0.97, num_pairs=100),
    trace_requests=8,
)

WORKLOADS = {w.name: w for w in (PAPER_ADD, PAPER_ADDS, TOY)}


def smoke(w: Workload) -> Workload:
    """The same workload shrunk to run in well under a second: 32 points,
    tiny widths, 4 scenes, 1 epoch, 10 pose pairs."""
    cfg = replace(w.config, n=32, scenes=4, train_fraction=0.5,
                  psn_trunk=(8, 8, 16), psn_exterior_width=4, psn_out_width=8,
                  feat_widths=(8, 16), feat_global_width=8, decode_width=8,
                  head_hidden=(8,), epochs=1, num_pairs=10)
    return replace(w, config=cfg, min_requests=12, trace_requests=2)
