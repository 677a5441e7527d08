"""Randomized gradient-check suites over the whole operation catalog.

Each builder constructs a small random instance whose loss is smooth at the
sampled point (values are kept away from relu/l1/|.| kinks), so central
differences are a valid oracle for the hand-written backward passes and the
suites resolve no kinks.  The fused ``dense`` op has three suites: without
and with its relu, and with its relu over column blocks (one of them a
repeated row, one a constant); each redraws an instance until every
pre-activation x @ w + b is at least 0.2 from zero, so the relu suites see
both sides of the kink but never its neighbourhood.  The end-to-end
instance cannot avoid kinks: a head relu may sit within ``h`` of zero, where
``grad_check`` falls back to a one-sided difference for at most
``autodiff.MAX_KINKS`` coordinates.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def _params(rng, **shapes):
    return {name: ad.Tensor(rng.standard_normal(shape), requires_grad=True)
            for name, shape in shapes.items()}


def _away_from_zero(rng, shape, gap=0.2):
    v = rng.uniform(gap, 1.0, size=shape)
    return v * rng.choice([-1.0, 1.0], size=shape)


def _build_matmul(rng):
    p = _params(rng, a=(3, 4), b=(4, 2))
    tgt = ad.Tensor(rng.standard_normal((3, 2)))
    return p, lambda: ad.mse(ad.matmul(p["a"], p["b"]), tgt)


def _build_transpose(rng):
    p = _params(rng, a=(3, 5))
    tgt = ad.Tensor(rng.standard_normal((5, 3)))
    return p, lambda: ad.mse(ad.transpose(p["a"]), tgt)


def _build_add(rng):
    p = _params(rng, a=(4, 3), b=(4, 3))
    tgt = ad.Tensor(rng.standard_normal((4, 3)))
    return p, lambda: ad.mse(ad.add(p["a"], p["b"]), tgt)


def _build_add_bias(rng):
    p = _params(rng, a=(4, 3), bias=(1, 3))
    tgt = ad.Tensor(rng.standard_normal((4, 3)))
    return p, lambda: ad.mse(ad.add(p["a"], p["bias"]), tgt)


def _build_concat_cols(rng):
    p = _params(rng, a=(3, 2), b=(3, 4), c=(3, 1))
    tgt = ad.Tensor(rng.standard_normal((3, 7)))
    return p, lambda: ad.mse(ad.concat_cols(p["a"], p["b"], p["c"]), tgt)


def _build_relu(rng):
    p = {"a": ad.Tensor(_away_from_zero(rng, (4, 5)), requires_grad=True)}
    tgt = ad.Tensor(rng.standard_normal((4, 5)))
    return p, lambda: ad.mse(ad.relu(p["a"]), tgt)


def _build_dense(rng, relu=False):
    # redrawn until every pre-activation is at least 0.2 from relu's kink
    while True:
        p = _params(rng, x=(3, 4), w=(4, 2), b=(1, 2))
        z = p["x"].values @ p["w"].values + p["b"].values
        if np.min(np.abs(z)) >= 0.2:
            break
    tgt = ad.Tensor(rng.standard_normal((3, 2)))
    return p, lambda: ad.mse(ad.dense(p["x"], p["w"], p["b"], relu=relu), tgt)


def _build_dense_relu(rng):
    return _build_dense(rng, relu=True)


def _build_dense_blocks(rng):
    # column blocks [x | repeated row r | constant c], with the relu and the
    # redraw of ``_build_dense``
    c = ad.Tensor(rng.standard_normal((3, 1)))
    while True:
        p = _params(rng, x=(3, 2), r=(1, 2), w=(5, 2), b=(1, 2))
        z = (np.hstack([p["x"].values, np.repeat(p["r"].values, 3, axis=0),
                        c.values]) @ p["w"].values + p["b"].values)
        if np.min(np.abs(z)) >= 0.2:
            break
    tgt = ad.Tensor(rng.standard_normal((3, 2)))
    return p, lambda: ad.mse(ad.dense((p["x"], p["r"], c), p["w"], p["b"],
                                      relu=True), tgt)


def _build_row_softmax(rng):
    p = _params(rng, a=(4, 6))
    tgt = ad.Tensor(rng.standard_normal((4, 6)))
    return p, lambda: ad.mse(ad.row_softmax(p["a"]), tgt)


def _build_attention_map(rng):
    p = _params(rng, a=(4, 3), b=(5, 3))
    tgt = ad.Tensor(rng.uniform(0.0, 0.4, size=(4, 5)))
    return p, lambda: ad.mse(ad.attention_map(p["a"], p["b"]), tgt)


def _build_row_l2_normalize(rng):
    a = rng.standard_normal((4, 5))
    a += np.sign(a.sum(axis=1, keepdims=True)) * 0.5  # rows well away from zero
    p = {"a": ad.Tensor(a, requires_grad=True)}
    tgt = ad.Tensor(rng.standard_normal((4, 5)))
    return p, lambda: ad.mse(ad.row_l2_normalize(p["a"]), tgt)


def _build_mean_pool_rows(rng):
    p = _params(rng, a=(6, 4))
    tgt = ad.Tensor(rng.standard_normal((1, 4)))
    return p, lambda: ad.mse(ad.mean_pool_rows(p["a"]), tgt)


def _build_repeat_rows(rng):
    p = _params(rng, a=(1, 4))
    tgt = ad.Tensor(rng.standard_normal((5, 4)))
    return p, lambda: ad.mse(ad.repeat_rows(p["a"], 5), tgt)


def _build_mse(rng):
    p = _params(rng, a=(3, 4), b=(3, 4))
    return p, lambda: ad.mse(p["a"], p["b"])


def _build_l1(rng):
    a = rng.standard_normal((3, 4))
    b = a + _away_from_zero(rng, (3, 4))
    p = {"a": ad.Tensor(a, requires_grad=True),
         "b": ad.Tensor(b, requires_grad=True)}
    return p, lambda: ad.l1(p["a"], p["b"])


def _build_scalar_scale(rng):
    p = _params(rng, a=(3, 4))
    tgt = ad.Tensor(rng.standard_normal((3, 4)))
    c = rng.uniform(0.5, 2.0)
    return p, lambda: ad.mse(ad.scalar_scale(p["a"], c), tgt)


def _build_pose_distance(rng):
    q = rng.standard_normal((3, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    p = {"q": ad.Tensor(q, requires_grad=True),
         "t": ad.Tensor(0.3 * rng.standard_normal((3, 3)), requires_grad=True)}
    pts = rng.standard_normal((5, 3))
    tgt = pts + rng.uniform(0.5, 1.0, size=(5, 3))  # distances well above zero
    return p, lambda: ad.mean_pose_point_distance(p["q"], p["t"], pts, tgt)


def _build_pose_distance_selected(rng):
    q = rng.standard_normal((3, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    p = {"q": ad.Tensor(q, requires_grad=True),
         "t": ad.Tensor(0.3 * rng.standard_normal((3, 3)), requires_grad=True)}
    pts = rng.standard_normal((5, 3))
    tgt = pts + rng.uniform(0.5, 1.0, size=(5, 3))
    sel = rng.integers(0, 5, size=(3, 5))
    return p, lambda: ad.mean_pose_point_distance(p["q"], p["t"], pts, tgt, sel=sel)


OP_SUITES = {
    "matmul": _build_matmul,
    "transpose": _build_transpose,
    "add": _build_add,
    "add_bias": _build_add_bias,
    "concat_cols": _build_concat_cols,
    "relu": _build_relu,
    "dense": _build_dense,
    "dense_relu": _build_dense_relu,
    "dense_blocks": _build_dense_blocks,
    "row_softmax": _build_row_softmax,
    "attention_map": _build_attention_map,
    "row_l2_normalize": _build_row_l2_normalize,
    "mean_pool_rows": _build_mean_pool_rows,
    "repeat_rows": _build_repeat_rows,
    "mse": _build_mse,
    "l1": _build_l1,
    "scalar_scale": _build_scalar_scale,
    "pose_distance": _build_pose_distance,
    "pose_distance_selected": _build_pose_distance_selected,
}


def run_op_grad_suites(instances: int = 100, h: float = 1e-5, tol: float = 1e-4,
                       seed: int = 0) -> dict:
    """Run ``instances`` random gradient checks per op.

    Returns {"per_op": {name: max_rel_err}, "kinks": total kink-resolved
    coordinates, "passed": bool, ...}.  Raises ValueError when ``instances``
    is below 1: a suite that checks nothing must not pass.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    results = {}
    kinks = 0
    passed = True
    for name, builder in OP_SUITES.items():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(instances):
            params, f = builder(rng)
            report = ad.grad_check(f, params, h=h, tol=tol)
            worst = max(worst, report["max_rel_err"])
            kinks += report["kinks"]
            passed = passed and report["passed"]
        results[name] = worst
    return {"per_op": results, "max_rel_err": max(results.values()),
            "kinks": kinks, "passed": passed, "instances": instances, "tol": tol}


def run_end_to_end_grad_check(h: float = 1e-5, tol: float = 1e-3,
                              seed: int = 0) -> dict:
    """Finite-difference check of ``net.scene_losses`` on a small (16-point)
    instance; the tolerance is looser than per-op due to depth."""
    from .net import (NetConfig, forward_all, init_params, prepare_scene,
                      scene_losses)
    from .synth import SceneSpec, ShapeSpec, make_dataset

    cfg = NetConfig(psn_trunk=(8, 12, 16), psn_exterior_width=4,
                    psn_out_width=12, feat_widths=(8, 12), feat_global_width=8,
                    decode_width=12, head_hidden=(16,), epochs=1)
    shape = ShapeSpec("box_with_bump", (0.08, 0.1, 0.12, 0.02), n=16, seed=seed)
    spec = SceneSpec(rotation="limited", max_angle=0.5, viewpoint=(1.0, 1.0, 1.0),
                     noise_sigma=0.001, occlusion_fraction=0.1,
                     translation=((-0.05,) * 3, (0.05,) * 3))
    ds = make_dataset(shape, 1, spec, seed=seed, train_fraction=1.0)
    rec = ds.records[0]
    params = init_params(cfg, np.random.default_rng(seed))
    prep = prepare_scene(rec.scene, ds.model, rec.gt, cfg)
    # the heads read the map through detached (no-gradient) pointers; fix
    # the map they are built from across evaluations so central differences
    # see the same cut
    frozen = forward_all(prep, params, cfg)["attention"].values.copy()

    def f():
        outputs = forward_all(prep, params, cfg, frozen_head_attention=frozen)
        return scene_losses(prep, outputs, cfg, False, ds.model.positions)[0]

    report = ad.grad_check(f, params, h=h, tol=tol)
    return {"max_rel_err": report["max_rel_err"], "kinks": report["kinks"],
            "passed": report["passed"], "tol": tol, "n_points": 16}
