"""Network, losses, training, and the end-to-end prediction pipeline.

All "Conv1D" style layers are shared per-point dense layers (kernel size 1),
so the whole model is expressible over 2-D tensors.  The pseudo-siamese
feature network (PSN) runs the same weights over both clouds and swaps in
an "exterior" global feature pooled from the opposite cloud; its outputs
form the attention map.  Two separate extractors feed the bidirectional
correspondence heads and the direct pose head.

Scene clouds are centered (centroid subtracted) before entering the
network and all scene-frame outputs carry the centroid back out, so
translation never has to be memorized by the regressors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NonFiniteInput, NonFiniteLoss, SizeMismatch
from .geom import OrientedPointCloud, Pose, pose_apply, pose_invert
from .ppf import PpfGammas, attention_target
from .solver import CorrespondenceSet, PoseSet, average_poses, poses_from_matches
from .synth import Dataset, derive_scene_seed


# the published loss weights: phi1 L_d + phi2 L_s + phi3 L_m + phi4
# L_attention, and the normal term's weight inside L_s and L_m
PHI = (1.0, 1.0, 1.0, 0.01)
EPSILON = 0.1


@dataclass(frozen=True)
class NetConfig:
    """Architecture, mechanism flags, pair-feature weights, and optimizer
    settings.  Each field is also the flat ``fileio.Config`` key of the same
    name; the defaults are the published hyperparameters.  Adam's betas and
    epsilon are the defaults of ``autodiff.adam_update``, which ``train``
    applies to each parameter as its gradient becomes final."""

    # pair-feature weights of the PPF attention target (see ppf.PpfGammas)
    gamma1: float = 100.0
    gamma2: float = 50.0
    gamma3: float = 50.0
    # pseudo-siamese attention network
    psn_trunk: tuple = (64, 128, 256, 512, 1024)
    psn_exterior_width: int = 24
    psn_out_width: int = 512
    # branch feature extractors
    feat_widths: tuple = (64, 128, 256)
    feat_global_width: int = 256
    # heads
    decode_width: int = 256
    head_hidden: tuple = (256, 128)
    # mechanism flags (the ablation axes)
    attention_source: str = "psn"           # "psn" | "branch"
    attention_for_match: bool = True
    attention_for_direct: bool = True
    ppf_supervision: bool = True
    # optimizer
    epochs: int = 50
    lr: float = 1e-3
    lr_decay: float = 1.0           # multiplicative, per epoch
    # pose fusion at prediction time
    num_pairs: int = 100

    def __post_init__(self):
        if len(self.psn_trunk) < 2:
            raise ValueError("psn_trunk needs at least 2 layers")
        if not self.feat_widths:
            raise ValueError("feat_widths needs at least 1 layer")
        for name in ("psn_trunk", "psn_exterior_width", "psn_out_width",
                     "feat_widths", "feat_global_width", "decode_width",
                     "head_hidden"):
            v = getattr(self, name)
            if any(w <= 0 for w in (v if isinstance(v, tuple) else (v,))):
                raise ValueError(f"{name} must be positive, got {v!r}")
        if self.attention_source not in ("psn", "branch"):
            raise ValueError(f"bad attention_source {self.attention_source!r}")
        if any(g < 0 for g in self.gammas):
            raise ValueError("gammas must be non-negative")
        if self.ppf_supervision and not any(self.gammas):
            raise ValueError("ppf_supervision needs at least one positive gamma")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.num_pairs < 1:
            raise ValueError("num_pairs must be >= 1")

    @property
    def gammas(self) -> tuple:
        return (self.gamma1, self.gamma2, self.gamma3)

    @property
    def psn_fused_width(self) -> int:
        return self.psn_trunk[-1] + self.psn_exterior_width

    @property
    def feat_out_width(self) -> int:
        return self.feat_widths[-1] + self.feat_global_width

    @property
    def uses_attention_map(self) -> bool:
        return (self.ppf_supervision or self.attention_for_match
                or self.attention_for_direct)

    @property
    def uses_psn(self) -> bool:
        return self.uses_attention_map and self.attention_source == "psn"


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def _psn_layer_dims(cfg: NetConfig):
    dims = []
    in_w = 6
    for i, w in enumerate(cfg.psn_trunk):
        if i == 2:
            in_w = cfg.psn_trunk[0] + cfg.psn_trunk[1]  # local fusion concat
        dims.append((in_w, w))
        in_w = w
    return dims


def _feat_layer_dims(cfg: NetConfig, scene_side: bool):
    in_w = 7 if scene_side else 6   # the scene side adds the p . n column
    dims = []
    for w in cfg.feat_widths:
        dims.append((in_w, w))
        in_w = w
    return dims


def _regressor_in_width(cfg: NetConfig, n_points: int, with_attention: bool,
                        inter_branch: bool) -> int:
    width = cfg.decode_width + cfg.feat_out_width  # decoded + short circuit
    if with_attention:
        width += n_points
    if inter_branch:
        width += cfg.decode_width
    return width


def expected_param_shapes(cfg: NetConfig, n_points: int) -> dict:
    """Every learnable tensor's shape, keyed by name; init and checkpoint
    loading both derive from this."""
    shapes = {}

    def dense(name, i, o):
        shapes[f"{name}.w"] = (i, o)
        shapes[f"{name}.b"] = (1, o)

    if cfg.uses_psn:
        for i, (in_w, out_w) in enumerate(_psn_layer_dims(cfg)):
            dense(f"psn.t{i}", in_w, out_w)
        dense("psn.ext", cfg.psn_trunk[-1], cfg.psn_exterior_width)
        dense("psn.out", cfg.psn_fused_width, cfg.psn_out_width)

    for prefix, scene_side in (("feat_s", True), ("feat_m", False)):
        for i, (in_w, out_w) in enumerate(_feat_layer_dims(cfg, scene_side)):
            dense(f"{prefix}.l{i}", in_w, out_w)
        dense(f"{prefix}.glob", cfg.feat_widths[-1], cfg.feat_global_width)

    for prefix in ("corr_s", "corr_m"):
        dense(f"{prefix}.dec", cfg.feat_out_width, cfg.decode_width)
        in_w = _regressor_in_width(cfg, n_points, cfg.attention_for_match, True)
        for i, h in enumerate(cfg.head_hidden):
            dense(f"{prefix}.h{i}", in_w, h)
            in_w = h
        dense(f"{prefix}.pos", in_w, 3)
        dense(f"{prefix}.nrm", in_w, 3)

    dense("direct.dec", cfg.feat_out_width, cfg.decode_width)
    in_w = _regressor_in_width(cfg, n_points, cfg.attention_for_direct, False)
    for i, h in enumerate(cfg.head_hidden):
        dense(f"direct.h{i}", in_w, h)
        in_w = h
    dense("direct.quat", in_w, 4)
    dense("direct.trans", in_w, 3)
    return shapes


def init_params(cfg: NetConfig, n_points: int, rng: np.random.Generator) -> dict:
    """Glorot-uniform weights, zero biases; the quaternion head bias starts
    at the identity rotation so early pose candidates are sane."""
    params = {}
    for name, shape in expected_param_shapes(cfg, n_points).items():
        if name.endswith(".b"):
            v = np.zeros(shape)
            if name == "direct.quat.b":
                v[0, 0] = 1.0
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            v = rng.uniform(-limit, limit, size=shape)
        params[name] = ad.Tensor(v, requires_grad=True)
    return params


def detach_params(params: dict) -> dict:
    return {k: p.detach() for k, p in params.items()}


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _dense(x, params, name, relu=False):
    return ad.dense(x, params[f"{name}.w"], params[f"{name}.b"], relu=relu)


def _psn_trunk_forward(x, params, cfg):
    h0 = _dense(x, params, "psn.t0", relu=True)
    h1 = _dense(h0, params, "psn.t1", relu=True)
    h = (h0, h1) if len(cfg.psn_trunk) > 2 else h1   # local fusion blocks
    for i in range(2, len(cfg.psn_trunk)):
        h = _dense(h, params, f"psn.t{i}", relu=True)
    return h


def psn_forward(scene_x, model_x, params, cfg: NetConfig):
    """Weight-shared per-point features for both clouds; each side's fused
    feature appends an exterior global feature pooled from the other cloud
    (a repeated column block of psn.out's input), and output rows are
    L2-normalized."""
    if scene_x.shape != model_x.shape:
        raise SizeMismatch(f"psn inputs {scene_x.shape} vs {model_x.shape}")
    hs = _psn_trunk_forward(scene_x, params, cfg)
    hm = _psn_trunk_forward(model_x, params, cfg)
    ext_for_scene = _dense(ad.mean_pool_rows(hm), params, "psn.ext", relu=True)
    ext_for_model = _dense(ad.mean_pool_rows(hs), params, "psn.ext", relu=True)
    f_sa = ad.row_l2_normalize(_dense((hs, ext_for_scene), params, "psn.out"))
    f_ma = ad.row_l2_normalize(_dense((hm, ext_for_model), params, "psn.out"))
    return f_sa, f_ma


def attention_forward(f_sa, f_ma):
    """Row-stochastic similarity: softmax over model points per scene row."""
    if f_sa.shape[1] != f_ma.shape[1]:
        raise SizeMismatch(f"feature widths differ: {f_sa.shape} vs {f_ma.shape}")
    return ad.attention_map(f_sa, f_ma)


def attention_loss(m, w):
    """Mean squared deviation of the attention map from the pair-weight target."""
    return ad.mse(m, w)


def _feat_side(x, params, prefix, cfg):
    h = x
    for i in range(len(cfg.feat_widths)):
        h = _dense(h, params, f"{prefix}.l{i}", relu=True)
    g = _dense(ad.mean_pool_rows(h), params, f"{prefix}.glob", relu=True)
    # a real concatenation, not blocks: its 3-4 consumers' gradients must be
    # summed before repeat_rows' row sum to keep the bits of training
    return ad.concat_cols(h, ad.repeat_rows(g, x.shape[0]))


def feature_forward(scene_x, model_x, params, cfg: NetConfig):
    """Separate per-branch extractors (the distribution divergence the PSN
    exists to avoid is fine here; these feed the regressors only)."""
    if scene_x.shape[0] != model_x.shape[0]:
        raise SizeMismatch(f"cloud sizes differ: {scene_x.shape[0]} vs "
                           f"{model_x.shape[0]}")
    return (_feat_side(scene_x, params, "feat_s", cfg),
            _feat_side(model_x, params, "feat_m", cfg))


def _regressor_trunk(f, decoded, attn_rows, exterior, params, prefix,
                     cfg: NetConfig):
    """Shared head wiring: [decoded | attention rows | pooled opposite decode
    | raw feature short circuit] through the hidden chain; the first hidden
    layer reads the four as column blocks, the single pooled row repeated."""
    n = f.shape[0]
    h = [decoded]
    if attn_rows is not None:
        if attn_rows.shape[0] != n:
            raise SizeMismatch(f"attention rows {attn_rows.shape} vs {n} points")
        h.append(attn_rows)
    if exterior is not None:
        h.append(exterior)
    h.append(f)
    for i in range(len(cfg.head_hidden)):
        h = _dense(h, params, f"{prefix}.h{i}", relu=True)
    return h


def head_attention_input(attn: np.ndarray) -> ad.Tensor:
    """The attention map as the heads read it, (A - 1/N) * N, as a plain
    (graph-free) tensor.  The uniform baseline 1/N carries no information and
    the deviations of row-stochastic entries are O(1/N); an uninformative map
    then contributes ~zero instead of a large constant block, so heads only
    start consuming attention once it sharpens."""
    n = attn.shape[1]
    h = attn + (-1.0 / n)
    h *= float(n)
    return ad.Tensor(h)


def bidirectional_forward(f_s, f_m, head_attn, params, cfg: NetConfig):
    """Both correspondence heads with inter-branch pooled-decode exchange;
    the scene head reads the rows of ``head_attn`` (see
    ``head_attention_input``), the model head its columns."""
    dec_s = _dense(f_s, params, "corr_s.dec", relu=True)
    dec_m = _dense(f_m, params, "corr_m.dec", relu=True)
    attn_s = attn_m = None
    if cfg.attention_for_match:
        # the model head's columns, as a view: the map takes no gradient
        attn_s, attn_m = head_attn, ad.Tensor(head_attn.values.T)
    h_s = _regressor_trunk(f_s, dec_s, attn_s, ad.mean_pool_rows(dec_m),
                           params, "corr_s", cfg)
    h_m = _regressor_trunk(f_m, dec_m, attn_m, ad.mean_pool_rows(dec_s),
                           params, "corr_m", cfg)
    pos_s = _dense(h_s, params, "corr_s.pos")
    nrm_s = ad.row_l2_normalize(_dense(h_s, params, "corr_s.nrm"))
    pos_m = _dense(h_m, params, "corr_m.pos")
    nrm_m = ad.row_l2_normalize(_dense(h_m, params, "corr_m.nrm"))
    return (pos_s, nrm_s), (pos_m, nrm_m)


def direct_pose_forward(f_s, head_attn, params, cfg: NetConfig):
    """Per-point pose candidates: unit quaternion rows + translation rows."""
    if cfg.attention_for_direct and head_attn is None:
        raise ValueError("config wants attention for the direct branch but "
                         "no attention map was computed")
    decoded = _dense(f_s, params, "direct.dec", relu=True)
    attn_rows = head_attn if cfg.attention_for_direct else None
    h = _regressor_trunk(f_s, decoded, attn_rows, None, params, "direct", cfg)
    quats = ad.row_l2_normalize(_dense(h, params, "direct.quat"))
    trans = _dense(h, params, "direct.trans")
    return quats, trans


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def correspondence_loss(pred_pos, pred_nrm, gt_pos, gt_nrm):
    """(1/N) sum_i (|x_i - x̂_i|_1 + eps |n_i - n̂_i|_1), eps = ``EPSILON``.

    The elementwise-mean l1 is rescaled by 3 to make it a mean of row sums.
    """
    pos_term = ad.scalar_scale(ad.l1(pred_pos, gt_pos), 3.0)
    nrm_term = ad.scalar_scale(ad.l1(pred_nrm, gt_nrm), 3.0 * EPSILON)
    return ad.add(pos_term, nrm_term)


def add_loss(quats, trans, model_points, target_points):
    """Mean ADD over all pose candidates (rows of quats/trans)."""
    return ad.mean_pose_point_distance(quats, trans, model_points, target_points)


def adds_loss(quats, trans, model_points, target_points):
    """Mean ADD-S; the nearest-point index is recomputed per call, detached."""
    sel = ad.nearest_point_selection(quats.values, trans.values,
                                     model_points, target_points)
    return ad.mean_pose_point_distance(quats, trans, model_points,
                                       target_points, sel=sel)


# ---------------------------------------------------------------------------
# scene preparation and the full forward pass
# ---------------------------------------------------------------------------

@dataclass
class SceneInputs:
    """Network inputs for one scene; none of them depends on the pose."""

    xs_feat: ad.Tensor      # scene input [P | N | p . n] for the extractor
    xs_psn: ad.Tensor       # scene input for the PSN (always 6 columns)
    xm: ad.Tensor           # model input [P_m | N_m] for both extractors
    center: np.ndarray


@dataclass
class CorrespondenceTargets:
    """Ground-truth matches of both branch heads for one scene."""

    scene_pos: ad.Tensor    # canonical coords of each scene point
    scene_nrm: ad.Tensor
    model_pos: ad.Tensor    # centered scene coords of each model point
    model_nrm: ad.Tensor


@dataclass
class PreparedScene(SceneInputs):
    """Inputs plus every training target for one scene."""

    targets: CorrespondenceTargets
    w_target: ad.Tensor | None    # PPF attention target, if supervised


def scene_inputs(scene: OrientedPointCloud,
                 model: OrientedPointCloud) -> SceneInputs:
    """The network inputs of one scene, all that a forward pass reads; the
    scene cloud is centered on its centroid."""
    if len(scene) != len(model):
        raise SizeMismatch(f"scene {len(scene)} vs model {len(model)} points")
    center = scene.positions.mean(axis=0)
    pos = scene.positions - center
    support = np.sum(pos * scene.normals, axis=1, keepdims=True)
    return SceneInputs(
        xs_feat=ad.Tensor(np.hstack([pos, scene.normals, support])),
        xs_psn=ad.Tensor(np.hstack([pos, scene.normals])),
        xm=ad.Tensor(np.hstack([model.positions, model.normals])),
        center=center)


def correspondence_targets(scene: OrientedPointCloud, model: OrientedPointCloud,
                           gt: Pose, center: np.ndarray) -> CorrespondenceTargets:
    """Where each scene point lies on the model and each model point in the
    scene (centered by the scene's ``center``), under the true pose."""
    canonical = pose_apply(pose_invert(gt), scene, frame="canonical")
    posed_model = pose_apply(gt, model, frame="scene")
    return CorrespondenceTargets(
        scene_pos=ad.Tensor(canonical.positions),
        scene_nrm=ad.Tensor(canonical.normals),
        model_pos=ad.Tensor(posed_model.positions - center),
        model_nrm=ad.Tensor(posed_model.normals),
    )


def prepare_scene(scene: OrientedPointCloud, model: OrientedPointCloud,
                  gt: Pose, cfg: NetConfig) -> PreparedScene:
    """A training scene: its inputs, its correspondence targets (the model
    branch's targets are also the pose loss's), and the PPF attention target
    when ``cfg.ppf_supervision`` asks for it."""
    inputs = scene_inputs(scene, model)
    targets = correspondence_targets(scene, model, gt, inputs.center)
    w = None
    if cfg.ppf_supervision:
        gammas = PpfGammas(*cfg.gammas)
        w = ad.Tensor(attention_target(scene, model, gt, gammas).weights)
    return PreparedScene(**vars(inputs), targets=targets, w_target=w)


def forward_all(prep: SceneInputs, params: dict, cfg: NetConfig,
                frozen_head_attention: np.ndarray | None = None):
    """Run every active branch on a scene's inputs (a ``PreparedScene`` is
    one too); returns a dict of output tensors.

    ``frozen_head_attention`` substitutes a constant map for the one the
    heads read (used by finite-difference checks, where the detached
    channel must not vary with the parameters being perturbed).
    """
    out = {}
    attn = head_attn = None
    f_s, f_m = feature_forward(prep.xs_feat, prep.xm, params, cfg)
    if cfg.uses_attention_map:
        if cfg.attention_source == "psn":
            f_sa, f_ma = psn_forward(prep.xs_psn, prep.xm, params, cfg)
        else:
            f_sa = ad.row_l2_normalize(f_s)
            f_ma = ad.row_l2_normalize(f_m)
        attn = attention_forward(f_sa, f_ma)
        out["f_sa"], out["f_ma"] = f_sa, f_ma
    if cfg.attention_for_match or cfg.attention_for_direct:
        # heads consume the map as a detached input: task gradients would
        # otherwise repurpose the similarity network as free features and
        # destroy the matching structure the pair-weight supervision builds
        head_attn = head_attention_input(
            attn.values if frozen_head_attention is None
            else frozen_head_attention)
    (pos_s, nrm_s), (pos_m, nrm_m) = bidirectional_forward(f_s, f_m, head_attn,
                                                           params, cfg)
    quats, trans = direct_pose_forward(f_s, head_attn, params, cfg)
    out.update(attention=attn, f_s=f_s, f_m=f_m,
               scene_pos=pos_s, scene_nrm=nrm_s,
               model_pos=pos_m, model_nrm=nrm_m,
               quats=quats, trans=trans)
    return out


def branch_losses(outputs: dict, targets: CorrespondenceTargets):
    """(L_s, L_m): each correspondence head against its targets."""
    l_s = correspondence_loss(outputs["scene_pos"], outputs["scene_nrm"],
                              targets.scene_pos, targets.scene_nrm)
    l_m = correspondence_loss(outputs["model_pos"], outputs["model_nrm"],
                              targets.model_pos, targets.model_nrm)
    return l_s, l_m


def scene_losses(prep: PreparedScene, outputs: dict, cfg: NetConfig,
                 symmetric: bool, model_points: np.ndarray):
    """The training objective phi1 L_d + phi2 L_s + phi3 L_m + phi4
    L_attention (phi = ``PHI``) of one scene as ``(loss, terms)``: the 1x1
    tensor that training descends, and the float value of each loss-CSV
    column (L_attention is 0.0 without PPF supervision)."""
    l_s, l_m = branch_losses(outputs, prep.targets)
    pose_fn = adds_loss if symmetric else add_loss
    l_d = pose_fn(outputs["quats"], outputs["trans"], model_points,
                  prep.targets.model_pos.values)
    loss = ad.add(ad.add(ad.scalar_scale(l_d, PHI[0]),
                         ad.scalar_scale(l_s, PHI[1])),
                  ad.scalar_scale(l_m, PHI[2]))
    terms = {"L_d": l_d.item(), "L_s": l_s.item(), "L_m": l_m.item(),
             "L_attention": 0.0}
    if cfg.ppf_supervision:
        l_att = attention_loss(outputs["attention"], prep.w_target)
        loss = ad.add(loss, ad.scalar_scale(l_att, PHI[3]))
        terms["L_attention"] = l_att.item()
    return loss, terms


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train(dataset: Dataset, cfg: NetConfig, seed: int = 0):
    """Train on the dataset's training split; deterministic given the seed.

    Returns (params, log) where log is one dict per epoch with the mean of
    each loss term.  Raises NonFiniteLoss with the failing step index if a
    step's forward pass or loss produces NaN/inf; the parameters then hold
    the previous step's values.

    Each parameter takes its Adam update (``autodiff.adam_update``) as soon
    as ``autodiff.backward`` reports its gradient final, and drops the
    gradient, so a step holds only the gradients still accumulating; a
    parameter that no gradient reached takes a zero-gradient update after
    the walk.  The parameters, moments and step count are those of
    ``autodiff.adam_step`` on the step's gradients, bit for bit.
    """
    rng = np.random.default_rng(seed)
    n_points = len(dataset.model)
    params = init_params(cfg, n_points, rng)
    state = ad.init_adam_state(params)
    model_points = dataset.model.positions

    prepared = [prepare_scene(rec.scene, dataset.model, rec.gt, cfg)
                for rec in dataset.train_records]
    if not prepared:
        raise ValueError("dataset has no training scenes")

    names = {id(p): k for k, p in params.items()}
    log = []
    step = 0
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay ** epoch
        order = rng.permutation(len(prepared))
        sums = {"L_d": 0.0, "L_s": 0.0, "L_m": 0.0, "L_attention": 0.0,
                "total": 0.0}
        for idx in order:
            prep = prepared[idx]
            try:
                outputs = forward_all(prep, params, cfg)
                loss, terms = scene_losses(prep, outputs, cfg,
                                           dataset.symmetric, model_points)
            except NonFiniteInput as exc:
                raise NonFiniteLoss(f"non-finite value at step {step}: {exc}")
            # before backward, which updates the parameters
            if not np.isfinite(loss.item()):
                raise NonFiniteLoss(f"loss diverged at step {step}")
            state["step"] += 1
            stale = dict(params)

            def update(leaf):
                # the leaf's gradient is final: step it and let the grad go
                name = names[id(leaf)]
                ad.adam_update(state, name, leaf, leaf.grad, lr)
                leaf.grad = None
                del stale[name]

            ad.backward(loss, on_leaf=update)
            for name, p in stale.items():
                ad.adam_update(state, name, p, None, lr)
            for k, v in terms.items():
                sums[k] += v
            sums["total"] += loss.item()
            step += 1
        n = len(prepared)
        log.append({"epoch": epoch, **{k: v / n for k, v in sums.items()}})
    return params, log


# ---------------------------------------------------------------------------
# prediction and evaluation
# ---------------------------------------------------------------------------

@dataclass
class Prediction:
    """One scene's prediction.  ``outputs`` holds the tensors of its forward
    pass (see ``forward_all``), whose scene-frame coordinates are relative to
    the scene centroid ``center``."""

    final_pose: Pose
    pose_set: PoseSet
    corr_scene: CorrespondenceSet
    corr_model: CorrespondenceSet
    outputs: dict
    center: np.ndarray


def predict(params: dict, cfg: NetConfig, scene: OrientedPointCloud,
            model: OrientedPointCloud, seed: int = 0) -> Prediction:
    """Full pipeline: one forward pass on the scene's inputs (no pose and no
    PPF target is involved), both pair-alignment pose sets, the direct
    candidates, and their average."""
    frozen = detach_params(params)
    inputs = scene_inputs(scene, model)
    outputs = forward_all(inputs, frozen, cfg)

    scene_match_pos = outputs["scene_pos"].values
    scene_match_nrm = outputs["scene_nrm"].values
    model_match_pos = outputs["model_pos"].values + inputs.center
    model_match_nrm = outputs["model_nrm"].values

    corr_scene = CorrespondenceSet(scene.positions, scene.normals,
                                   scene_match_pos, scene_match_nrm,
                                   "scene_to_model")
    corr_model = CorrespondenceSet(model.positions, model.normals,
                                   model_match_pos, model_match_nrm,
                                   "model_to_scene")

    seeds = np.random.SeedSequence((seed, 0)).generate_state(2)
    t_s = poses_from_matches(corr_scene, cfg.num_pairs, int(seeds[0]))
    t_m = poses_from_matches(corr_model, cfg.num_pairs, int(seeds[1]))

    t_d = PoseSet(outputs["quats"].values,
                  outputs["trans"].values + inputs.center,
                  ("direct",) * len(scene))
    pose_set = PoseSet.union(t_d, t_s, t_m)
    return Prediction(final_pose=average_poses(pose_set), pose_set=pose_set,
                      corr_scene=corr_scene, corr_model=corr_model,
                      outputs=outputs, center=inputs.center)


def evaluate_dataset(params: dict, cfg: NetConfig, dataset: Dataset,
                     which: str = "test", seed: int = 0):
    """Evaluate the full pipeline on a dataset split.

    Each scene costs one ``predict`` and so one forward pass: the
    correspondence L1 is scored on that prediction's own head outputs
    against the ground-truth correspondence targets, and no pose loss or
    PPF target is built.

    Returns (records, diagnostics); diagnostics carries the mean test
    correspondence L1 (averaged over both directions) used by the ablation
    comparisons.
    """
    from .metrics import EvalRecord, add_metric, adds_metric, model_diameter

    recs = {"train": dataset.train_records, "test": dataset.test_records,
            "all": list(dataset.records)}[which]
    if not recs:
        raise ValueError(f"dataset has no {which!r} scenes")
    diameter = model_diameter(dataset.model)
    records, corr_l1s = [], []
    for i, rec in enumerate(recs):
        pred = predict(params, cfg, rec.scene, dataset.model,
                       seed=derive_scene_seed(seed, i))
        records.append(EvalRecord(
            scene_id=f"{which}_{i}",
            add_error=add_metric(pred.final_pose, rec.gt, dataset.model),
            adds_error=adds_metric(pred.final_pose, rec.gt, dataset.model),
            diameter=diameter,
            symmetric=dataset.symmetric,
        ))
        targets = correspondence_targets(rec.scene, dataset.model, rec.gt,
                                         pred.center)
        l_s, l_m = branch_losses(pred.outputs, targets)
        corr_l1s.append(0.5 * (l_s.item() + l_m.item()))
    diagnostics = {"corr_l1": float(np.mean(corr_l1s))}
    return records, diagnostics


def attention_match_rate(params: dict, cfg: NetConfig,
                         model: OrientedPointCloud, poses) -> float:
    """Fraction of rows whose attention argmax is the true match, probed on
    noiseless scenes built by posing the model exactly."""
    frozen = detach_params(params)
    rates = []
    for g in poses:
        scene = pose_apply(g, model, frame="scene")
        outputs = forward_all(scene_inputs(scene, model), frozen, cfg)
        m = outputs["attention"]
        if m is None:
            raise ValueError("config computes no attention map")
        rates.append(float(np.mean(np.argmax(m.values, axis=1)
                                   == np.arange(len(model)))))
    return float(np.mean(rates))
