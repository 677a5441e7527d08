"""Minimal reverse-mode automatic differentiation over dense 2-D arrays.

Every operation returns a fresh ``Tensor`` holding float64 values and, when
any input has ``requires_grad``, a backward closure plus links to the inputs
that take a gradient; the operation record therefore lives implicitly on the
tensors themselves and ``backward`` replays it in reverse topological order.
A closure keeps only what its VJP reads: a dense layer (``dense``, matmul +
bias + optional relu) is one node holding its output, not three, and it
reads a fused input as column blocks, so no concatenated copy outlives its
GEMM.  The attention map (``attention_map``, row softmax of a @ b^T) is one
node holding only the map, not its logits and a transposed b.  The pose
loss (``mean_pose_point_distance``) keeps its (N, K) distances and
recomputes the (N, K, 3) offsets one block of candidate rows at a time in
its VJP, trading a second batched matmul for the largest array of a step.
Every fused or blocked op gives the bits of the unfused, whole-array
computation.  The operation set is closed and small on purpose: each op has
a hand-written vector-Jacobian product, and ``grad_check`` verifies all of
them against central finite differences, falling back to a one-sided
difference at a relu or l1 kink for at most ``MAX_KINKS`` coordinates.

A graph and its tensors form a single-threaded unit of work; parameters are
plain leaf tensors whose ``values`` the optimizer updates in place.
``backward`` consumes the graph: once an interior tensor's VJP has run, the
tensor drops its gradient, closure and parent links, so the graph upstream
of it is freed during the walk.  Only leaves keep ``grad``, until a caller
drops it; every tensor keeps ``values``.  A graph can therefore be walked
once.  ``backward`` can hand each leaf to a callback as soon as its last
consumer's VJP has run: its gradient is then final and no later VJP reads
its ``values``, so training applies Adam (``adam_update``, in place over
row blocks) to that one parameter and drops its gradient, and a step never
holds every parameter's gradient at once.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NonFiniteInput, NonScalarLoss, ShapeMismatch
from .geom import nearest_point_indices, quat_to_matrix, row_blocks

ZERO_ROW_TOL = 1e-30
# coordinates that ``grad_check`` may resolve by a one-sided difference
MAX_KINKS = 2


class Tensor:
    """A 2-D float64 array with optional gradient tracking."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward",
                 "__weakref__")

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
    # only parents that take a gradient: backward never reads the others
    tracked = tuple(p for p in parents if p.requires_grad)
    return Tensor(values, requires_grad=bool(tracked), _parents=tracked,
                  _backward=backward_fn if tracked else None)


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # a fresh array (g may be shared by two inputs, or a view) holding
        # the bits of 0.0 + g, as a zero fill followed by += would
        t.grad = g + 0.0
    else:
        t.grad += g


def backward(loss: Tensor, on_leaf=None):
    """Populate ``grad`` on every requires_grad leaf reachable from loss.

    Consumes the graph: after an interior tensor's VJP has run, its
    ``grad``, ``_backward`` and ``_parents`` are cleared, so what no caller
    still holds is freed as the walk goes.  Interior tensors (the loss too)
    keep only their ``values``.

    ``on_leaf(leaf)``, when given, is called once per requires_grad leaf
    reachable from loss, as soon as the VJPs of all the nodes that link it
    have run (those of nodes whose ``grad`` is None too): the leaf's
    ``grad`` is then final (None when no gradient reached it), and no later
    VJP reads its ``values``, so the callback may update them in place and
    drop ``grad``.
    """
    if loss.shape != (1, 1):
        raise NonScalarLoss(f"backward needs a 1x1 loss, got {loss.shape}")
    topo, seen = [], set()
    # id(leaf) -> links to it from nodes whose VJP has not run yet
    links = {}
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
            if not p._parents:
                links[id(p)] = links.get(id(p), 0) + 1
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones((1, 1))
    if on_leaf is not None and loss.requires_grad and not loss._parents:
        on_leaf(loss)
    while topo:
        node = topo.pop()
        parents = node._parents
        if not parents:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = node._backward = None
        node._parents = ()
        for p in parents:
            if id(p) in links:
                links[id(p)] -= 1
                if not links[id(p)]:
                    # an unlinked leaf may be freed: its id leaves the table
                    del links[id(p)]
                    if on_leaf is not None:
                        on_leaf(p)


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
        if a.requires_grad:
            _accumulate(a, g @ b.values.T)
        if b.requires_grad:
            _accumulate(b, a.values.T @ g)

    return _result(out_v, (a, b), back)


def _stack_blocks(blocks, n) -> np.ndarray:
    """The (n, sum of widths) input that column blocks stand for; a 1-row
    block is repeated over the n rows, as ``repeat_rows`` repeats it."""
    if len(blocks) == 1:
        return blocks[0].values
    return np.hstack([t.values if t.shape[0] == n
                      else np.repeat(t.values, n, axis=0) for t in blocks])


def dense(x, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b with a single-row bias, then max(., 0) when ``relu``: one
    graph node where matmul, add and relu make three.

    ``x`` is a tensor or a sequence of column blocks that stand for their
    concatenation; each block has the n rows of the output or a single row,
    which is repeated over the n rows.  The concatenation exists only while
    a GEMM reads it: the node keeps the blocks, which the graph holds
    anyway, and backward rebuilds it for the weight gradient.  The input
    gradient is one GEMM whose column slices go to the blocks (a per-block
    GEMM would round differently), and a 1-row block gets its slice's
    column sum, as ``repeat_rows``' VJP computes it.

    The finiteness check runs on the pre-activation, so a non-finite
    x @ w or bias sum raises even where relu would map it to 0.  The VJP
    rebuilds the relu mask from the output (positive exactly where the
    pre-activation was).
    """
    blocks = (x,) if isinstance(x, Tensor) else tuple(x)
    if not blocks:
        raise ShapeMismatch("dense needs at least one input block")
    n = max(t.shape[0] for t in blocks)
    width = sum(t.shape[1] for t in blocks)
    if (any(t.shape[0] not in (1, n) for t in blocks) or width != w.shape[0]
            or b.shape != (1, w.shape[1])):
        raise ShapeMismatch(f"dense {[t.shape for t in blocks]} x {w.shape} "
                            f"+ {b.shape}")
    z = _stack_blocks(blocks, n) @ w.values
    z += b.values
    offsets = np.cumsum([0] + [t.shape[1] for t in blocks])
    # the blocks that take a gradient, with their column span
    spans = [(t, lo, hi) for t, lo, hi in zip(blocks, offsets[:-1], offsets[1:])
             if t.requires_grad]

    def back(g):
        # g is this node's own gradient buffer, so it is masked in place.
        # Masking leaves -0.0 where g < 0, which a separate relu node's VJP
        # would have cleared; it can only change the sign of exact-zero
        # sums and products, and every one goes through _accumulate, whose
        # first write adds 0.0 and whose += never makes a -0.0 (a gradient
        # holds none), so the gradients keep the three-node chain's bits.
        if relu:
            g *= z > 0.0
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0, keepdims=True))
        if w.requires_grad:
            # the rebuilt input is freed before the input gradient exists
            _accumulate(w, _stack_blocks(blocks, n).T @ g)
        if spans:
            gx = g @ w.values.T
            for t, lo, hi in spans:
                if t.shape[0] == n:
                    _accumulate(t, gx[:, lo:hi])
                else:
                    _accumulate(t, (gx[:, lo:hi] + 0.0).sum(axis=0,
                                                            keepdims=True))

    out = _result(z, (*blocks, w, b), back)   # checks z before the relu
    if relu:
        # max(z, 0) may keep a -0.0; adding 0.0 makes it 0.0, so the bits
        # are those of np.where(z > 0, z, 0.0) on finite z
        np.maximum(z, 0.0, out=z)
        z += 0.0
    return out


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
    # the closure holds only the parts that take a gradient
    spans = [(t, lo, hi)
             for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:])
             if t.requires_grad]

    def back(g):
        for t, lo, hi in spans:
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


def attention_map(a: Tensor, b: Tensor) -> Tensor:
    """row_softmax(a @ b^T), one node that keeps only the map, where
    ``row_softmax(matmul(a, transpose(b)))`` keeps the logits and b^T too:
    the logits become the map in place.  The VJP is that chain's:
    gl = s * (g - sum(g * s)), then gl @ b for a and (a^T @ gl)^T for b.

    Each GEMM that reads b reads a C-ordered copy of b^T made for it alone,
    the layout the chain's GEMMs read: at many shapes BLAS rounds the
    product differently when it reads b in place."""
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatch(f"attention_map {a.shape} x {b.shape}^T")
    if b.shape[0] < 1:
        raise ShapeMismatch("attention_map needs at least one column")
    s = a.values @ b.values.T.copy()
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)

    def back(g):
        gl = s * (g - np.sum(g * s, axis=1, keepdims=True))
        if a.requires_grad:
            _accumulate(a, gl @ b.values.T.copy().T)
        if b.requires_grad:
            _accumulate(b, (a.values.T @ gl).T)

    return _result(s, (a, b), back)


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
    size = a.values.size

    def back(g):
        # recomputed: both inputs outlive this node, a saved diff would not
        diff = a.values - b.values
        scale = 2.0 * g[0, 0] / size
        if a.requires_grad:
            _accumulate(a, scale * diff)
        if b.requires_grad:
            _accumulate(b, -scale * diff)

    return _result(np.mean((a.values - b.values) ** 2), (a, b), back)


def l1(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of |a - b| (1x1 output); sign(0) taken as 0."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"l1 {a.shape} vs {b.shape}")
    diff = a.values - b.values
    size = diff.size

    def back(g):
        scale = g[0, 0] / size
        if a.requires_grad:
            _accumulate(a, scale * np.sign(diff))
        if b.requires_grad:
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
    quaternion and translation rows only.  R(q) is ``geom.quat_to_matrix``,
    the polynomial p + 2w (v x p) + 2 v x (v x p): a rotation for unit rows,
    and the gradients are exact for any row.

    The offsets u = R p + t - target exist one block of candidate rows at a
    time (``geom.row_blocks``, about ``geom.PAIR_BLOCK_ENTRIES`` pairs).  The
    node keeps the (N, K) distances, whose whole-array mean is the loss (a
    mean per block would round differently), and the VJP recomputes each
    block's offsets, and its gathered points, with the same expressions: no
    (N, K, 3) array exists in either pass.
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
    if sel is not None:
        sel = np.asarray(sel)
        if sel.shape != (n, k):
            raise ShapeMismatch(f"sel must be (N,K) = ({n},{k}), got {sel.shape}")

    w = quats.values[:, 0]
    v = quats.values[:, 1:]
    rot_t = quat_to_matrix(quats.values).transpose(0, 2, 1)    # (N, 3, 3)
    blocks = row_blocks(n, k)

    def offsets(rows):
        """(u, gathered) of the candidates in ``rows``: (B, K, 3) offsets,
        and the (K, 3) or (B, K, 3) model points they rotate."""
        # np.take copies the same rows as pts[...], several times faster
        gathered = pts if sel is None else np.take(pts, sel[rows], axis=0)
        u = gathered @ rot_t[rows]
        u += trans.values[rows, None, :]
        u -= tgt
        return u, gathered

    dist = np.empty((n, k))
    for rows in blocks:
        # np.linalg.norm(u, axis=2)'s sum of squares, without its copies
        u = offsets(rows)[0]
        u *= u
        np.sqrt(np.add.reduce(u, axis=2), out=dist[rows])
        del u       # before the next block's offsets exist

    def back(g):
        # dL/du of each block, formed in its recomputed offsets; dist is
        # clamped in place: only this VJP reads it, and a graph is walked once
        scale = g[0, 0] / (n * k)
        grad_trans = np.empty((n, 3))
        grad_rot = np.empty((n, 3, 3))                        # dL/dR
        for rows in blocks:
            s, gathered = offsets(rows)
            d = dist[rows]
            small = d < eps
            np.maximum(d, eps, out=d)
            s /= d[:, :, None]
            if small.any():
                s[small] = 0.0
            s *= scale
            grad_trans[rows] = s.sum(axis=1)
            grad_rot[rows] = s.transpose(0, 2, 1) @ gathered
            del s, gathered
        _accumulate(trans, grad_trans)
        # through R = I + 2w[v]x + 2(v v^T - |v|^2 I)
        axial = np.stack([grad_rot[:, 2, 1] - grad_rot[:, 1, 2],
                          grad_rot[:, 0, 2] - grad_rot[:, 2, 0],
                          grad_rot[:, 1, 0] - grad_rot[:, 0, 1]], axis=1)
        sym = grad_rot + grad_rot.transpose(0, 2, 1)
        trace = np.trace(grad_rot, axis1=1, axis2=2)
        gw = 2.0 * np.sum(axial * v, axis=1)
        gv = (2.0 * w[:, None] * axial + 2.0 * (sym @ v[:, :, None])[:, :, 0]
              - 4.0 * trace[:, None] * v)
        _accumulate(quats, np.concatenate([gw[:, None], gv], axis=1))

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

def _rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)


def grad_check(f, params: dict, h: float = 1e-5, tol: float = 1e-4) -> dict:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must deterministically rebuild the loss from the current parameter
    values.  Every coordinate is checked against the central difference.  A
    coordinate whose central difference disagrees beyond ``tol`` may sit
    within ``h`` of a relu or l1 kink, where the central difference averages
    two slopes: it is taken as a kink when its forward and backward one-sided
    differences (from the two evaluations already made and the one ``f()``
    at the unperturbed point that the backward pass uses) disagree with each
    other beyond ``tol`` and the analytic value matches one side within
    ``tol``; its error is then taken against that side.  More than
    ``MAX_KINKS`` such coordinates fail the check, so that a wrong VJP cannot
    pass as a run of kinks.

    Returns {"per_param": {name: max_rel_err}, "max_rel_err": float,
    "kinks": int, "passed": bool}.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"h must be in [1e-7, 1e-3], got {h}")
    zero_grad(params)
    loss = f()
    base = loss.item()
    backward(loss)
    analytic = {name: (np.zeros_like(p.values) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    report = {}
    kinks = 0
    for name, p in params.items():
        flat = p.values.reshape(-1)
        up = np.zeros_like(flat)
        down = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up[i] = f().item()
            flat[i] = orig - h
            down[i] = f().item()
            flat[i] = orig
        a = analytic[name].reshape(-1)
        err = _rel_err(a, (up - down) / (2.0 * h))
        fwd, bwd = (up - base) / h, (base - down) / h
        one_sided = np.minimum(_rel_err(a, fwd), _rel_err(a, bwd))
        kink = (err >= tol) & (_rel_err(fwd, bwd) >= tol) & (one_sided < tol)
        err = np.where(kink, one_sided, err)
        kinks += int(kink.sum())
        report[name] = float(err.max()) if a.size else 0.0
    worst = max(report.values()) if report else 0.0
    return {"per_param": report, "max_rel_err": worst, "kinks": kinks,
            "passed": worst < tol and kinks <= MAX_KINKS}


def init_adam_state(params: dict) -> dict:
    return {
        "step": 0,
        "m": {k: np.zeros_like(p.values) for k, p in params.items()},
        "v": {k: np.zeros_like(p.values) for k, p in params.items()},
    }


def adam_update(state: dict, name: str, p: Tensor, g, lr: float = 1e-3,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Adam's update of the one parameter ``p``, keyed ``name`` in ``state``,
    for the step that ``state["step"]`` already counts; ``g`` is its gradient
    (None for zero).  Mutates ``p.values`` and the moments in place, one
    ``geom.row_blocks`` slice at a time, so its temporaries are block-sized.
    Every operation is elementwise and in the whole-array formula's order,
    so the bits are those of that formula."""
    if g is None:
        g = np.zeros_like(p.values)
    if g.shape != p.values.shape:
        raise ShapeMismatch(f"grad shape {g.shape} != param shape "
                            f"{p.values.shape} for {name!r}")
    t = state["step"]
    m_all = state["m"][name]
    v_all = state["v"][name]
    for rows in row_blocks(*p.shape):
        gb, m, v = g[rows], m_all[rows], v_all[rows]
        m *= beta1
        m += (1.0 - beta1) * gb
        v *= beta2
        gg = (1.0 - beta2) * gb
        gg *= gb
        v += gg
        step = m / (1.0 - beta1 ** t)                   # m_hat
        root = v / (1.0 - beta2 ** t)                   # v_hat
        np.sqrt(root, out=root)
        root += eps
        step *= lr
        step /= root
        p.values[rows] -= step


def adam_step(params: dict, grads: dict, state: dict, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam step, ``adam_update`` of every parameter (a missing gradient
    counts as zero); mutates params and state in place and returns them."""
    state["step"] += 1
    for name, p in params.items():
        adam_update(state, name, p, grads.get(name), lr, beta1, beta2, eps)
    return params, state
