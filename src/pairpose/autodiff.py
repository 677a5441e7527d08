"""Minimal reverse-mode automatic differentiation over dense 2-D arrays.

Every operation returns a fresh ``Tensor`` holding float64 values and, when
any input has ``requires_grad``, a backward closure plus parent links; the
operation record therefore lives implicitly on the tensors themselves and
``backward`` replays it in reverse topological order.  The operation set is
closed and small on purpose: each op has a hand-written vector-Jacobian
product, and ``grad_check`` verifies all of them against central finite
differences.

A graph and its tensors form a single-threaded unit of work; parameters are
plain leaf tensors whose ``values`` the optimizer updates in place.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NonFiniteInput, NonScalarLoss, ShapeMismatch
from .geom import nearest_point_indices, quat_to_matrix

ZERO_ROW_TOL = 1e-30


class Tensor:
    """A 2-D float64 array with optional gradient tracking."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        elif v.ndim == 1:
            v = v.reshape(1, -1)
        if v.ndim != 2:
            raise ShapeMismatch(f"tensors are 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("tensor contains non-finite values")
        self.values = v
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeMismatch(f"item() on tensor of shape {self.shape}")
        return float(self.values[0, 0])

    def detach(self) -> "Tensor":
        """A graph-free tensor sharing this one's values (not a copy)."""
        return Tensor(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(values, parents, backward_fn):
    tracked = tuple(p for p in parents if isinstance(p, Tensor))
    needs = any(p.requires_grad for p in tracked)
    return Tensor(values, requires_grad=needs,
                  _parents=tracked if needs else (),
                  _backward=backward_fn if needs else None)


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def backward(loss: Tensor):
    """Populate ``grad`` on every requires_grad tensor reachable from loss."""
    if loss.shape != (1, 1):
        raise NonScalarLoss(f"backward needs a 1x1 loss, got {loss.shape}")
    topo, seen = [], set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones((1, 1))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grad(params):
    for p in (params.values() if isinstance(params, dict) else params):
        p.grad = None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} x {b.shape}")
    out_v = a.values @ b.values

    def back(g):
        _accumulate(a, g @ b.values.T)
        _accumulate(b, a.values.T @ g)

    return _result(out_v, (a, b), back)


def transpose(a: Tensor) -> Tensor:
    def back(g):
        _accumulate(a, g.T)

    return _result(a.values.T.copy(), (a,), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; one operand may be a single row (bias broadcast)."""
    if a.shape == b.shape:
        pass
    elif b.shape == (1, a.shape[1]) or a.shape == (1, b.shape[1]):
        pass
    else:
        raise ShapeMismatch(f"add {a.shape} + {b.shape}")

    def back(g):
        for t in (a, b):
            if t.shape[0] == g.shape[0]:
                _accumulate(t, g)
            else:
                _accumulate(t, g.sum(axis=0, keepdims=True))

    return _result(a.values + b.values, (a, b), back)


def concat_cols(*tensors: Tensor) -> Tensor:
    if not tensors:
        raise ShapeMismatch("concat_cols needs at least one tensor")
    rows = tensors[0].shape[0]
    if any(t.shape[0] != rows for t in tensors):
        raise ShapeMismatch(f"concat_cols row mismatch: {[t.shape for t in tensors]}")
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors])

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accumulate(t, g[:, lo:hi])

    return _result(np.hstack([t.values for t in tensors]), tensors, back)


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0.0

    def back(g):
        _accumulate(a, g * mask)

    return _result(np.where(mask, a.values, 0.0), (a,), back)


def row_softmax(a: Tensor) -> Tensor:
    if a.shape[1] < 1:
        raise ShapeMismatch("row_softmax needs at least one column")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def back(g):
        _accumulate(a, s * (g - np.sum(g * s, axis=1, keepdims=True)))

    return _result(s, (a,), back)


def row_l2_normalize(a: Tensor) -> Tensor:
    """Scale every row to unit L2 norm; zero rows pass through (with a warning)."""
    norms = np.linalg.norm(a.values, axis=1, keepdims=True)
    zero = norms[:, 0] <= ZERO_ROW_TOL
    if np.any(zero):
        warnings.warn("row_l2_normalize: zero row(s) left as zero", RuntimeWarning)
    safe = np.where(zero[:, None], 1.0, norms)
    y = np.where(zero[:, None], 0.0, a.values / safe)

    def back(g):
        gx = (g - y * np.sum(y * g, axis=1, keepdims=True)) / safe
        gx[zero] = 0.0
        _accumulate(a, gx)

    return _result(y, (a,), back)


def mean_pool_rows(a: Tensor) -> Tensor:
    n = a.shape[0]

    def back(g):
        _accumulate(a, np.repeat(g, n, axis=0) / n)

    return _result(a.values.mean(axis=0, keepdims=True), (a,), back)


def repeat_rows(a: Tensor, n: int) -> Tensor:
    if a.shape[0] != 1:
        raise ShapeMismatch(f"repeat_rows needs a single-row tensor, got {a.shape}")

    def back(g):
        _accumulate(a, g.sum(axis=0, keepdims=True))

    return _result(np.repeat(a.values, n, axis=0), (a,), back)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of the squared difference (1x1 output)."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"mse {a.shape} vs {b.shape}")
    diff = a.values - b.values
    size = diff.size

    def back(g):
        scale = 2.0 * g[0, 0] / size
        _accumulate(a, scale * diff)
        _accumulate(b, -scale * diff)

    return _result(np.mean(diff ** 2), (a, b), back)


def l1(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of |a - b| (1x1 output); sign(0) taken as 0."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"l1 {a.shape} vs {b.shape}")
    diff = a.values - b.values
    size = diff.size

    def back(g):
        scale = g[0, 0] / size
        _accumulate(a, scale * np.sign(diff))
        _accumulate(b, -scale * np.sign(diff))

    return _result(np.mean(np.abs(diff)), (a, b), back)


def scalar_scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g):
        _accumulate(a, c * g)

    return _result(c * a.values, (a,), back)


def mean_pose_point_distance(quats: Tensor, trans: Tensor, points: np.ndarray,
                             targets: np.ndarray, sel: np.ndarray | None = None,
                             eps: float = 1e-12) -> Tensor:
    """Mean over candidates and points of |R(q_i) p_sel[i,k] + t_i - target_k|.

    ``points`` (K, 3) and ``targets`` (K, 3) are constants; ``sel`` picks the
    model point compared against each target (identity when None, a detached
    nearest-neighbor index for the symmetric variant).  Gradients flow to the
    quaternion and translation rows only; rows are assumed unit quaternions.
    """
    pts = np.asarray(points, dtype=np.float64)
    tgt = np.asarray(targets, dtype=np.float64)
    if quats.shape[1] != 4 or trans.shape[1] != 3:
        raise ShapeMismatch(f"expected (N,4) quats and (N,3) trans, got "
                            f"{quats.shape}, {trans.shape}")
    if quats.shape[0] != trans.shape[0]:
        raise ShapeMismatch("quaternion and translation row counts differ")
    if pts.shape != tgt.shape or pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeMismatch(f"points {pts.shape} vs targets {tgt.shape}")
    n, k = quats.shape[0], pts.shape[0]
    if sel is None:
        gathered = np.broadcast_to(pts, (n, k, 3))
    else:
        sel = np.asarray(sel)
        if sel.shape != (n, k):
            raise ShapeMismatch(f"sel must be (N,K) = ({n},{k}), got {sel.shape}")
        gathered = pts[sel]                                   # (N, K, 3)

    w = quats.values[:, 0]
    v = quats.values[:, 1:]
    c1 = np.cross(v[:, None, :], gathered)
    c2 = np.cross(v[:, None, :], c1)
    rotated = gathered + 2.0 * w[:, None, None] * c1 + 2.0 * c2
    u = rotated + trans.values[:, None, :] - tgt[None, :, :]  # (N, K, 3)
    dist = np.linalg.norm(u, axis=2)

    def back(g):
        scale = g[0, 0] / (n * k)
        safe = np.maximum(dist, eps)[:, :, None]
        s = np.where(dist[:, :, None] < eps, 0.0, u / safe) * scale  # dL/du
        _accumulate(trans, s.sum(axis=1))
        gw = 2.0 * np.sum(c1 * s, axis=(1, 2))
        vv = v[:, None, :]
        gv = (2.0 * w[:, None, None] * np.cross(gathered, s)
              + 2.0 * np.cross(c1, s)
              + 2.0 * np.cross(gathered, np.cross(s, np.broadcast_to(vv, s.shape))))
        _accumulate(quats, np.concatenate([gw[:, None], gv.sum(axis=1)], axis=1))

    return _result(dist.mean(), (quats, trans), back)


def nearest_point_selection(quats_values: np.ndarray, trans_values: np.ndarray,
                            points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(N, K) index of the model point nearest to each target under each pose.

    Candidate i maps model point p_j to R_i p_j + t_i.  Rotations preserve
    length, so |R_i p_j + t_i - x_k| = |p_j - R_i^T (x_k - t_i)|: every
    target is moved into each candidate's model frame by one batched matmul
    and ``geom.nearest_point_indices`` searches the fixed model cloud for
    all N * K queries at once.  Ties go to the lowest model index.  Working
    memory is the (N, K, 3) model-frame targets plus the kernel's O(chunk * K)
    score block.  Detached: recomputed per step, no gradient.
    """
    rot = quat_to_matrix(quats_values)                          # (N, 3, 3)
    offsets = np.asarray(targets)[None, :, :] - trans_values[:, None, :]
    return nearest_point_indices(offsets @ rot, points)         # rows R^T u


# ---------------------------------------------------------------------------
# gradient checking and optimization
# ---------------------------------------------------------------------------

def grad_check(f, params: dict, h: float = 1e-5, tol: float = 1e-4) -> dict:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must deterministically rebuild the loss from the current parameter
    values.  Returns {"per_param": {name: max_rel_err}, "max_rel_err": float,
    "passed": bool}.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"h must be in [1e-7, 1e-3], got {h}")
    zero_grad(params)
    backward(f())
    analytic = {name: (np.zeros_like(p.values) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    report = {}
    for name, p in params.items():
        flat = p.values.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f().item()
            flat[i] = orig - h
            down = f().item()
            flat[i] = orig
            num[i] = (up - down) / (2.0 * h)
        num = num.reshape(p.values.shape)
        a = analytic[name]
        scale = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-6)
        report[name] = float(np.max(np.abs(a - num) / scale)) if a.size else 0.0
    worst = max(report.values()) if report else 0.0
    return {"per_param": report, "max_rel_err": worst, "passed": worst < tol}


def init_adam_state(params: dict) -> dict:
    return {
        "step": 0,
        "m": {k: np.zeros_like(p.values) for k, p in params.items()},
        "v": {k: np.zeros_like(p.values) for k, p in params.items()},
    }


def adam_step(params: dict, grads: dict, state: dict, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update; mutates params and state in place and returns them."""
    state["step"] += 1
    t = state["step"]
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.values)
        if g.shape != p.values.shape:
            raise ShapeMismatch(f"grad shape {g.shape} != param shape "
                                f"{p.values.shape} for {name!r}")
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p.values -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state
