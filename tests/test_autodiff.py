import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import pairpose.autodiff as ad
import pairpose.net as net
from pairpose.checks import run_op_grad_suites
from pairpose.errors import NonFiniteInput, NonScalarLoss, ShapeMismatch
from pairpose.geom import (NEAREST_CHUNK_ROWS, PAIR_BLOCK_ENTRIES,
                           quat_to_matrix, random_pose, row_blocks)
from pairpose.net import adds_loss
from tests.test_net import TINY, tiny_dataset


class TestForward:
    def test_relu(self):
        out = ad.relu(ad.Tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.values, [[0.0, 0.0, 2.0]])

    def test_row_softmax_uniform(self):
        out = ad.row_softmax(ad.Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1 / 3, 1 / 3, 1 / 3]])

    def test_row_softmax_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = ad.row_softmax(ad.Tensor(rng.standard_normal((5, 7)) * 10))
            np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(out.values > 0.0)

    def test_matmul_identity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(a))
        np.testing.assert_allclose(out.values, a)

    def test_row_l2_normalize_unit_rows(self):
        rng = np.random.default_rng(2)
        out = ad.row_l2_normalize(ad.Tensor(rng.standard_normal((4, 6)) + 2.0))
        np.testing.assert_allclose(np.linalg.norm(out.values, axis=1), 1.0,
                                   atol=1e-12)

    def test_row_l2_normalize_zero_row_warns(self):
        with pytest.warns(RuntimeWarning):
            out = ad.row_l2_normalize(ad.Tensor([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_allclose(out.values[0], 0.0)
        np.testing.assert_allclose(out.values[1], [0.6, 0.8])

    def test_shape_mismatch_raised(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeMismatch):
            ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))))

    def test_non_finite_rejected(self):
        from pairpose.errors import NonFiniteInput
        with pytest.raises(NonFiniteInput):
            ad.Tensor([[np.nan]])

    def test_detach_shares_values_and_drops_the_graph(self):
        x = ad.Tensor([[1.0, -2.0]], requires_grad=True)
        y = ad.relu(x)
        d = y.detach()
        assert d.values is y.values
        assert not d.requires_grad and d._parents == () and d._backward is None


class TestBackward:
    def test_mse_against_zero(self):
        x = ad.Tensor([[3.0]], requires_grad=True)
        loss = ad.mse(x, ad.Tensor([[0.0]]))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_l1_sign(self):
        x = ad.Tensor([[-2.0]], requires_grad=True)
        loss = ad.l1(x, ad.Tensor([[0.0]]))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[-1.0]])

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(NonScalarLoss):
            ad.backward(ad.relu(x))

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        params = {
            "w1": ad.Tensor(rng.standard_normal((4, 8)), requires_grad=True),
            "b1": ad.Tensor(rng.standard_normal((1, 8)), requires_grad=True),
            "w2": ad.Tensor(rng.standard_normal((8, 2)), requires_grad=True),
            "b2": ad.Tensor(rng.standard_normal((1, 2)), requires_grad=True),
        }
        x = ad.Tensor(rng.standard_normal((5, 4)))
        y = ad.Tensor(rng.standard_normal((5, 2)))

        def f():
            h = ad.relu(ad.add(ad.matmul(x, params["w1"]), params["b1"]))
            out = ad.add(ad.matmul(h, params["w2"]), params["b2"])
            return ad.mse(out, y)

        report = ad.grad_check(f, params, h=1e-5, tol=1e-4)
        assert report["passed"], report

    def test_grad_accumulates_over_reused_tensor(self):
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        loss = ad.mse(ad.add(x, x), ad.Tensor([[0.0, 0.0]]))
        ad.backward(loss)
        # d/dx mean((2x)^2) = 4x * 2 / 2
        np.testing.assert_allclose(x.grad, [[4.0, 8.0]])

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(4)
            w = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            x = ad.Tensor(rng.standard_normal((2, 3)))
            loss = ad.mse(ad.row_softmax(ad.matmul(x, w)),
                          ad.Tensor(rng.standard_normal((2, 3))))
            ad.backward(loss)
            return loss.values.copy(), w.grad.copy()

        l1_, g1 = run()
        l2_, g2 = run()
        assert np.array_equal(l1_, l2_) and np.array_equal(g1, g2)


def reference_accumulate(t, g):
    """Zero fill on the first write, then add in place."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def reference_backward(loss):
    """The walk that keeps the whole graph and every interior gradient."""
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


def scene_loss(params, cfg, dataset):
    """(outputs, loss) of one training step on the dataset's first scene."""
    rec = dataset.train_records[0]
    prep = net.prepare_scene(rec.scene, dataset.model, rec.gt, cfg)
    outputs = net.forward_all(prep, params, cfg)
    loss, _ = net.scene_losses(prep, outputs, cfg, dataset.symmetric,
                               dataset.model.positions)
    return outputs, loss


class TestGraphRelease:
    @pytest.mark.parametrize("source", ["psn", "branch"])
    @pytest.mark.parametrize("kind", ["box_with_bump", "box"],
                             ids=["add", "adds"])
    def test_network_gradients_equal_the_retaining_oracle(
            self, monkeypatch, kind, source):
        cfg = replace(TINY, attention_source=source)
        dataset = tiny_dataset(n_scenes=1, kind=kind)
        params = net.init_params(cfg, np.random.default_rng(0))

        def gradients(walk):
            ad.zero_grad(params)
            outputs, loss = scene_loss(params, cfg, dataset)
            walk(loss)
            return outputs, {k: p.grad for k, p in params.items()}

        outputs, got = gradients(ad.backward)
        with monkeypatch.context() as m:
            m.setattr(ad, "_accumulate", reference_accumulate)
            _, expected = gradients(reference_backward)
        assert got.keys() == expected.keys()
        for name, g in got.items():
            assert g is not None, name
            assert g.tobytes() == expected[name].tobytes(), name
        for name, t in outputs.items():
            if t is not None:
                assert t._parents == () and t.grad is None, name
                assert t._backward is None, name

    def test_interior_tensor_is_freed_and_leaves_keep_grad(self):
        rng = np.random.default_rng(8)
        x = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        y = ad.Tensor(rng.standard_normal((4, 5)))
        hidden = ad.relu(ad.matmul(x, w))
        loss = ad.mse(hidden, y)
        value = loss.item()
        ad.backward(loss)
        assert hidden._parents == () and hidden.grad is None
        assert loss._parents == () and loss._backward is None
        assert loss.grad is None and loss.item() == value
        assert x.grad.shape == (4, 3) and w.grad.shape == (3, 5)
        assert y.grad is None
        released = weakref.ref(hidden)
        del hidden
        assert released() is None

    def test_first_write_is_a_fresh_array(self):
        # add hands one g to both inputs and concat_cols hands views of it
        a = ad.Tensor([[1.0, -2.0]], requires_grad=True)
        b = ad.Tensor([[3.0, 0.5]], requires_grad=True)
        loss = ad.mse(ad.concat_cols(ad.add(a, b), a), ad.Tensor(np.zeros((1, 4))))
        ad.backward(loss)
        assert not np.shares_memory(a.grad, b.grad)
        # d/d[a+b | a] of the mean square is [2, -0.75 | 0.5, -1]
        np.testing.assert_array_equal(a.grad, [[2.5, -1.75]])
        np.testing.assert_array_equal(b.grad, [[2.0, -0.75]])

    # one published-width step at N = 128: the forward graph's traced size
    # and backward's traced peak over the same base (graph included).
    # Measured 18.7 and 34.6 MB; the retaining walk peaks at 62.6 MB, and
    # with dense layers built as matmul, add and relu nodes the step took
    # 34.9 and 42.8 MB.  Parameter gradients are about 22 MB of the peak.
    GRAPH_MB = 25.0
    PEAK_MB = 40.0

    @staticmethod
    def step_memory_mb(walk):
        cfg = net.NetConfig()
        dataset = tiny_dataset(n_scenes=1, n=128)
        params = net.init_params(cfg, np.random.default_rng(0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, loss = scene_loss(params, cfg, dataset)
            graph = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            walk(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return graph / 1e6, peak / 1e6

    def test_forward_graph_and_backward_peak_memory(self):
        graph, peak = self.step_memory_mb(ad.backward)
        assert graph < self.GRAPH_MB, graph
        assert peak < self.PEAK_MB, peak

    def test_retaining_walk_exceeds_the_peak_bound(self, monkeypatch):
        monkeypatch.setattr(ad, "_accumulate", reference_accumulate)
        _, peak = self.step_memory_mb(reference_backward)
        assert peak >= self.PEAK_MB, peak

    def test_forward_graph_holds_no_concatenated_input(self):
        # measured 12.4 MB; the dense layers' inputs stored as concat_cols
        # nodes (and mse's saved difference) made it 18.8 MB
        graph, _ = self.step_memory_mb(ad.backward)
        assert graph < 15.0, graph


def consumers_of_leaves(loss):
    """id(leaf) -> the nodes that link the leaf, found before the walk."""
    found, seen, stack = {}, set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for p in node._parents:
            if not p._parents:
                found.setdefault(id(p), []).append(node)
            stack.append(p)
    return found


class TestLeafCallback:
    @staticmethod
    def walk(loss):
        """Run backward with a callback that records each leaf reported and
        checks that every node linking it has been cleared by then."""
        consumers = consumers_of_leaves(loss)
        reported = []

        def on_leaf(leaf):
            for node in consumers.get(id(leaf), ()):
                assert node._parents == () and node._backward is None
                assert node.grad is None
            reported.append(leaf)

        ad.backward(loss, on_leaf=on_leaf)
        return consumers, reported

    @pytest.mark.parametrize("source", ["psn", "branch"])
    def test_fires_once_per_leaf_after_its_consumers(self, source):
        cfg = replace(TINY, attention_source=source)
        dataset = tiny_dataset(n_scenes=1)
        params = net.init_params(cfg, np.random.default_rng(0))
        _, loss = scene_loss(params, cfg, dataset)
        consumers, reported = self.walk(loss)
        assert sorted(map(id, reported)) == sorted(map(id, params.values()))
        assert all(p.grad is not None for p in reported)
        if source == "psn":
            # the PSN weights serve the scene and the model side
            assert len(consumers[id(params["psn.t0.w"])]) == 2

    def test_shared_leaf_waits_for_both_consumers(self):
        rng = np.random.default_rng(9)
        w = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        a, b = (ad.Tensor(rng.standard_normal((4, 3))) for _ in range(2))
        target = ad.Tensor(np.zeros((4, 2)))
        left, right = ad.matmul(a, w), ad.matmul(b, w)
        loss = ad.add(ad.mse(left, target), ad.mse(right, target))
        _, reported = self.walk(loss)
        assert reported == [w]
        scale = 2.0 / left.values.size
        np.testing.assert_allclose(
            w.grad, scale * (a.values.T @ left.values + b.values.T @ right.values))

    def test_leaf_behind_a_node_without_gradient_still_fires(self):
        rng = np.random.default_rng(10)
        x = ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        y = ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        hidden = ad.relu(x)
        # a node that sends no gradient back: hidden keeps grad None
        stopped = ad._result(hidden.values, (hidden,), lambda g: None)
        loss = ad.add(ad.mse(stopped, ad.Tensor(np.zeros((2, 3)))),
                      ad.l1(y, ad.Tensor(np.zeros((2, 3)))))
        _, reported = self.walk(loss)
        assert sorted(map(id, reported)) == sorted([id(x), id(y)])
        assert x.grad is None and y.grad is not None

    def test_leaf_loss_fires_once(self):
        w = ad.Tensor([[2.0]], requires_grad=True)
        reported = []
        ad.backward(w, on_leaf=reported.append)
        assert reported == [w] and w.grad.tolist() == [[1.0]]
        reported.clear()
        ad.backward(ad.Tensor([[2.0]]), on_leaf=reported.append)
        assert reported == []


def dense_chain(x, w, b, relu=False):
    """The three-node layer that ``dense`` replaces."""
    z = ad.add(ad.matmul(x, w), b)
    return ad.relu(z) if relu else z


class TestDense:
    """``dense`` against ``relu(add(matmul(x, w), b))``, bit for bit."""

    @staticmethod
    def run(layer, x, layers, targets, relu, x_grad=True):
        """Outputs and (x, w0, b0, w1, b1, ...) gradients of the mse of each
        layer over the shared input ``x`` against its target, summed."""
        x = ad.Tensor(x, requires_grad=x_grad)
        params = [(ad.Tensor(w, requires_grad=True),
                   ad.Tensor(b, requires_grad=True)) for w, b in layers]
        outputs, loss = [], None
        for (w, b), target in zip(params, targets):
            out = layer(x, w, b, relu=relu)
            outputs.append(out.values)
            term = ad.mse(out, ad.Tensor(target))
            loss = term if loss is None else ad.add(loss, term)
        ad.backward(loss)
        return outputs, [x.grad] + [t.grad for pair in params for t in pair]

    def assert_same_as_chain(self, x, layers, targets, x_grad=True):
        for relu in (False, True):
            got = self.run(ad.dense, x, layers, targets, relu, x_grad)
            expected = self.run(dense_chain, x, layers, targets, relu, x_grad)
            for a, b in zip(got[0] + got[1], expected[0] + expected[1]):
                if b is None:
                    assert a is None
                else:
                    assert a.tobytes() == b.tobytes()

    def test_pre_activations_at_zero_and_negative_zero(self):
        # rows 0 and 1 of x are +0.0 and -0.0, and the bias is -0.0 or a
        # value the other rows' products cancel exactly: exact-zero
        # pre-activations, of either sign that the GEMM gives a -0.0 row,
        # with a target above them so that the incoming gradient is negative
        # there and masking makes -0.0
        x = np.array([[0.0, 0.0], [-0.0, -0.0], [1.0, -1.0], [2.0, -1.0]])
        w = np.array([[0.5, -1.0, 0.25], [1.0, 2.0, -0.5]])
        b = np.array([[-0.0, 0.0, -0.75]])
        assert np.sum((x @ w + b) == 0.0) == 6
        self.assert_same_as_chain(x, [(w, b)], [np.ones((4, 3))])

    def test_constant_input(self):
        rng = np.random.default_rng(50)
        layers = [(rng.standard_normal((5, 6)), rng.standard_normal((1, 6)))]
        self.assert_same_as_chain(rng.standard_normal((7, 5)), layers,
                                  [rng.standard_normal((7, 6))],
                                  x_grad=False)

    def test_input_feeding_two_layers_accumulates(self):
        rng = np.random.default_rng(51)
        layers = [(rng.standard_normal((5, 6)), rng.standard_normal((1, 6))),
                  (rng.standard_normal((5, 3)), rng.standard_normal((1, 3)))]
        self.assert_same_as_chain(rng.standard_normal((8, 5)), layers,
                                  [rng.standard_normal((8, 6)),
                                   rng.standard_normal((8, 3))])

    def test_one_node_linked_to_the_inputs_that_take_a_gradient(self):
        rng = np.random.default_rng(52)
        x = ad.Tensor(rng.standard_normal((4, 3)))
        w = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((1, 2)), requires_grad=True)
        out = ad.dense(x, w, b, relu=True)
        assert out._parents == (w, b)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("w, b", [
        ([[1e200], [-1e200]], [[0.0]]),     # inf - inf: a NaN product
        ([[-1e200], [-1e200]], [[0.0]]),    # a -inf product
        ([[-1e108], [0.0]], [[-1e308]]),    # a finite product, -inf sum
    ], ids=["nan_product", "overflowing_product", "overflowing_bias_add"])
    def test_non_finite_pre_activation_raises(self, w, b, relu):
        # each is a value that relu would map to 0
        x = ad.Tensor([[1e200, 1e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteInput):
                ad.dense(x, ad.Tensor(w), ad.Tensor(b), relu=relu)

    def test_shape_mismatch(self):
        x = ad.Tensor(np.zeros((4, 3)))
        w = ad.Tensor(np.zeros((3, 2)))
        for bad_w, b in ((ad.Tensor(np.zeros((2, 2))), np.zeros((1, 2))),
                         (w, np.zeros((1, 3))), (w, np.zeros((4, 2)))):
            with pytest.raises(ShapeMismatch):
                ad.dense(x, bad_w, ad.Tensor(b))


# the dense layers that read column blocks in net, as (n, [(width, rows,
# takes_grad)], out width) at the acceptance toy widths (N = 128), the
# benchmark's smoke widths (N = 32) and the published widths (N = 1000):
# the PSN trunk's local fusion, psn.out's (features, exterior row) and a
# correspondence head's [decoded | attention | pooled row | features].
# A GEMM per block would pass at these shapes; the last two are shapes
# where it rounds differently from a slice of one GEMM (OpenBLAS 0.3.31,
# one thread), for the input gradient and for the weight gradient.
BLOCK_LAYERS = {
    "toy-trunk": (128, [(16, 128, True), (32, 128, True)], 64),
    "toy-psn-out": (128, [(64, 128, True), (8, 1, True)], 32),
    "toy-head": (128, [(64, 128, True), (128, 128, False), (64, 1, True),
                       (128, 128, True)], 96),
    "smoke-trunk": (32, [(8, 32, True), (8, 32, True)], 16),
    "smoke-psn-out": (32, [(16, 32, True), (4, 1, True)], 8),
    "smoke-head": (32, [(8, 32, True), (32, 32, False), (8, 1, True),
                        (24, 32, True)], 8),
    "paper-trunk": (1000, [(64, 1000, True), (128, 1000, True)], 256),
    "paper-psn-out": (1000, [(1024, 1000, True), (24, 1, True)], 512),
    "paper-head": (1000, [(256, 1000, True), (1000, 1000, False),
                          (256, 1, True), (512, 1000, True)], 256),
    "split-x-grad": (8, [(64, 8, True), (128, 8, True)], 64),
    "split-w-grad": (1000, [(8, 1000, True), (8, 1000, True)], 64),
}


class TestDenseBlocks:
    """``dense`` over column blocks against ``dense`` over their
    ``concat_cols`` (1-row blocks through ``repeat_rows``), bit for bit."""

    @staticmethod
    def run(n, values, takes_grad, w, b, target, relu, as_blocks):
        blocks = [ad.Tensor(v, requires_grad=g)
                  for v, g in zip(values, takes_grad)]
        w, b = (ad.Tensor(w, requires_grad=True),
                ad.Tensor(b, requires_grad=True))
        if as_blocks:
            x = blocks
        else:
            x = ad.concat_cols(*(t if t.shape[0] == n else ad.repeat_rows(t, n)
                                 for t in blocks))
        out = ad.dense(x, w, b, relu=relu)
        # the last block feeds a second consumer, as a head's features do
        loss = ad.add(ad.mse(out, ad.Tensor(target)),
                      ad.mse(blocks[-1], ad.Tensor(np.zeros(values[-1].shape))))
        ad.backward(loss)
        return [out.values] + [t.grad for t in (*blocks, w, b)]

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("layer", sorted(BLOCK_LAYERS))
    def test_equals_dense_over_the_concatenation(self, layer, relu):
        n, spec, out_w = BLOCK_LAYERS[layer]
        rng = np.random.default_rng(sorted(BLOCK_LAYERS).index(layer))
        values = [rng.standard_normal((rows, w)) for w, rows, _ in spec]
        takes_grad = [g for _, _, g in spec]
        width = sum(w for w, _, _ in spec)
        args = (n, values, takes_grad,
                rng.standard_normal((width, out_w)) / np.sqrt(width),
                rng.standard_normal((1, out_w)),
                rng.standard_normal((n, out_w)), relu)
        got = self.run(*args, as_blocks=True)
        expected = self.run(*args, as_blocks=False)
        for i, (a, e) in enumerate(zip(got, expected)):
            if e is None:
                assert a is None, i
            else:
                assert a.shape == e.shape and a.tobytes() == e.tobytes(), i

    def test_node_keeps_the_blocks_not_their_concatenation(self):
        rng = np.random.default_rng(53)
        h = ad.Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        row = ad.Tensor(rng.standard_normal((1, 2)), requires_grad=True)
        const = ad.Tensor(rng.standard_normal((6, 3)))
        w = ad.Tensor(rng.standard_normal((9, 5)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((1, 5)), requires_grad=True)
        out = ad.dense((h, row, const), w, b, relu=True)
        assert out._parents == (h, row, w, b)
        held = [c.cell_contents for c in out._backward.__closure__]
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays] == [(6, 5)]   # the output only

    @pytest.mark.parametrize("shapes, w_rows, b_cols", [
        ([(4, 3), (2, 2)], 5, 2), ([(4, 3), (4, 3)], 5, 2),
        ([(4, 3), (1, 2)], 5, 3), ([], 5, 2)],
        ids=["rows", "width", "bias", "empty"])
    def test_shape_mismatch(self, shapes, w_rows, b_cols):
        blocks = [ad.Tensor(np.zeros(sh)) for sh in shapes]
        with pytest.raises(ShapeMismatch):
            ad.dense(blocks, ad.Tensor(np.zeros((w_rows, 2))),
                     ad.Tensor(np.zeros((1, b_cols))))


class TestGradCheck:
    def test_linear_mse(self):
        rng = np.random.default_rng(5)
        params = {"w": ad.Tensor(rng.standard_normal((4, 4)), requires_grad=True)}
        x = ad.Tensor(rng.standard_normal((4, 4)))
        y = ad.Tensor(rng.standard_normal((4, 4)))
        report = ad.grad_check(lambda: ad.mse(ad.matmul(x, params["w"]), y), params)
        assert report["passed"]

    def test_softmax_chain(self):
        rng = np.random.default_rng(6)
        params = {"w": ad.Tensor(rng.standard_normal((4, 6)), requires_grad=True)}
        x = ad.Tensor(rng.standard_normal((3, 4)))
        y = ad.Tensor(rng.standard_normal((3, 6)))
        report = ad.grad_check(
            lambda: ad.mse(ad.row_softmax(ad.matmul(x, params["w"])), y), params)
        assert report["passed"]

    def test_unused_parameter_grad_exactly_zero(self):
        rng = np.random.default_rng(7)
        params = {
            "used": ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True),
            "unused": ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True),
        }
        y = ad.Tensor(rng.standard_normal((2, 2)))
        report = ad.grad_check(lambda: ad.mse(params["used"], y), params)
        assert report["passed"]
        assert report["per_param"]["unused"] == 0.0

    H = 1e-5

    def _straddled(self, n_kinks, relu=ad.relu):
        # the first n_kinks pre-activations lie within h/2 of relu's kink;
        # the others are well away from it on either side
        a = np.array([[0.3 * self.H] * n_kinks + [0.7, -0.4]])
        params = {"a": ad.Tensor(a, requires_grad=True)}
        y = ad.Tensor(np.full(a.shape, -0.5))
        return ad.grad_check(lambda: ad.mse(relu(params["a"]), y), params,
                             h=self.H, tol=1e-4)

    def test_relu_kink_resolved_by_one_sided_difference(self):
        report = self._straddled(1)
        assert report["passed"], report
        assert report["kinks"] == 1

    def test_wrong_vjp_at_kink_is_not_a_kink(self):
        def relu_wrong_vjp(a):
            mask = a.values > 0.0
            return ad._result(np.where(mask, a.values, 0.0), (a,),
                              lambda g: ad._accumulate(a, 1.5 * g * mask))

        report = self._straddled(1, relu=relu_wrong_vjp)
        assert not report["passed"]
        assert report["kinks"] == 0

    def test_kinks_above_cap_fail(self):
        report = self._straddled(ad.MAX_KINKS + 1)
        assert report["kinks"] == ad.MAX_KINKS + 1
        assert report["max_rel_err"] < 1e-4  # every coordinate matches a side
        assert not report["passed"]


class TestOpSuites:
    def test_all_ops_pass_at_1e4(self):
        result = run_op_grad_suites(instances=10, h=1e-5, tol=1e-4, seed=0)
        assert result["passed"], result["per_op"]
        assert result["kinks"] == 0  # the builders avoid kinks by construction

    @pytest.mark.parametrize("instances", [0, -2])
    def test_no_instances_rejected(self, instances):
        with pytest.raises(ValueError, match="instances"):
            run_op_grad_suites(instances=instances)


class TestAdam:
    def test_zero_grad_leaves_params(self):
        params = {"w": ad.Tensor([[1.0, 2.0]], requires_grad=True)}
        state = ad.init_adam_state(params)
        before = params["w"].values.copy()
        ad.adam_step(params, {"w": np.zeros((1, 2))}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"].values, before)

    def test_single_step_from_zero_state(self):
        g = np.array([[0.3, -0.7]])
        params = {"w": ad.Tensor([[1.0, 1.0]], requires_grad=True)}
        state = ad.init_adam_state(params)
        ad.adam_step(params, {"w": g}, state, lr=1e-2, eps=1e-8)
        # bias-corrected first step: -lr * g / (|g| + eps)
        expected = 1.0 - 1e-2 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["w"].values, expected, atol=1e-12)

    def test_constant_grad_step_size_bounded_by_lr(self):
        g = np.array([[0.5]])
        params = {"w": ad.Tensor([[0.0]], requires_grad=True)}
        state = ad.init_adam_state(params)
        prev = 0.0
        for _ in range(200):
            ad.adam_step(params, {"w": g}, state, lr=1e-3)
            step = params["w"].values[0, 0] - prev
            prev = params["w"].values[0, 0]
            assert abs(step) <= 1e-3 * 1.2
        # with constant gradient the step settles at ~lr in magnitude
        assert abs(step) == pytest.approx(1e-3, rel=1e-3)

    def test_shape_mismatch(self):
        params = {"w": ad.Tensor([[1.0, 2.0]], requires_grad=True)}
        state = ad.init_adam_state(params)
        with pytest.raises(ShapeMismatch):
            ad.adam_step(params, {"w": np.zeros((2, 2))}, state)


def whole_adam_step(params, grads, state, lr=1e-3, beta1=0.9, beta2=0.999,
                    eps=1e-8):
    """Adam over whole arrays, the formula ``adam_update`` blocks."""
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


class TestRowBlockedAdam:
    # 512 columns make 32-row blocks: one whole block, a partial last block
    # and the published PSN output layer's (1048, 512) weight
    SHAPES = {"one": (1, 1), "row": (1, 512), "block": (32, 512),
              "partial": (40, 512), "psn_out": (1048, 512), "nograd": (3, 7)}

    def test_shapes_cover_the_block_edges(self):
        assert len(row_blocks(*self.SHAPES["block"])) == 1
        assert [b.stop - b.start for b in row_blocks(*self.SHAPES["partial"])] \
            == [32, 8]
        assert len(row_blocks(*self.SHAPES["psn_out"])) == 33

    def test_matches_the_whole_array_formula_bit_for_bit(self):
        rng = np.random.default_rng(17)
        init = {k: rng.standard_normal(s) for k, s in self.SHAPES.items()}

        def make():
            params = {k: ad.Tensor(v.copy(), requires_grad=True)
                      for k, v in init.items()}
            return params, ad.init_adam_state(params)

        got, got_state = make()
        want, want_state = make()
        for step in range(5):
            # gradients over several decades, some exactly zero
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3, s)
                     for k, s in self.SHAPES.items()}
            if step % 2:
                # a missing gradient on moments that are not zero
                del grads["nograd"]
            grads["row"][0, :7] = 0.0
            lr = 1e-3 * (0.9 ** step)
            ad.adam_step(got, grads, got_state, lr=lr)
            whole_adam_step(want, grads, want_state, lr=lr)
            assert got_state["step"] == want_state["step"] == step + 1
            for k in self.SHAPES:
                assert got[k].values.tobytes() == want[k].values.tobytes(), k
                for moment in ("m", "v"):
                    assert (got_state[moment][k].tobytes()
                            == want_state[moment][k].tobytes()), (k, moment)


def reference_selection(quats_values, trans_values, points, targets):
    """Brute force: move the model cloud by each candidate pose in turn and
    take the nearest moved point to every target."""
    w = quats_values[:, 0]
    v = quats_values[:, 1:]
    sel = np.empty((quats_values.shape[0], targets.shape[0]), dtype=np.intp)
    for i in range(quats_values.shape[0]):
        vi = v[i][None, :].repeat(points.shape[0], axis=0)
        c1 = np.cross(vi, points)
        c2 = np.cross(vi, c1)
        moved = points + 2.0 * w[i] * c1 + 2.0 * c2 + trans_values[i]
        d2 = np.sum((moved[:, None, :] - targets[None, :, :]) ** 2, axis=2)
        sel[i] = np.argmin(d2, axis=0)
    return sel


def selection_instance(rng, n_candidates, k, spread=0.3):
    """Model cloud, noisy targets under a ground-truth pose, and candidate
    poses scattered around it."""
    points = rng.uniform(-0.1, 0.1, size=(k, 3))
    gt = random_pose(rng, trans_scale=0.2)
    targets = gt.apply_points(points) + rng.normal(0.0, 0.005, size=(k, 3))
    poses = [random_pose(rng, max_angle=spread, trans_scale=0.02)
             for _ in range(n_candidates)]
    quats = np.array([p.q for p in poses])
    trans = np.array([gt.t + p.t for p in poses])
    return quats, trans, points, targets


class TestNearestPointSelection:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n, k = int(rng.integers(1, 40)), int(rng.integers(2, 300))
            quats, trans, points, targets = selection_instance(rng, n, k)
            targets = targets[:int(rng.integers(1, k + 1))]
            np.testing.assert_array_equal(
                ad.nearest_point_selection(quats, trans, points, targets),
                reference_selection(quats, trans, points, targets))

    @pytest.mark.parametrize("n,k", [(1, 7), (1, NEAREST_CHUNK_ROWS + 3),
                                     (3, NEAREST_CHUNK_ROWS - 1),
                                     (5, 2 * NEAREST_CHUNK_ROWS + 1)])
    def test_sizes_off_the_chunk_grid(self, n, k):
        assert (n * k) % NEAREST_CHUNK_ROWS != 0
        quats, trans, points, targets = selection_instance(
            np.random.default_rng(31 + n + k), n, k, spread=np.pi)
        sel = ad.nearest_point_selection(quats, trans, points, targets)
        assert sel.shape == (n, k)
        np.testing.assert_array_equal(
            sel, reference_selection(quats, trans, points, targets))

    def test_duplicated_model_point_ties_to_lowest_index(self):
        rng = np.random.default_rng(32)
        k = NEAREST_CHUNK_ROWS + 3
        quats, trans, points, _ = selection_instance(rng, 6, k, spread=0.05)
        for keep, dup in ((5, 17), (2, k - 1)):
            points[dup] = points[keep]
        # candidate 0 maps the model exactly onto the targets
        quats[0], trans[0] = (1.0, 0.0, 0.0, 0.0), 0.0
        targets = points.copy()
        sel = ad.nearest_point_selection(quats, trans, points, targets)
        np.testing.assert_array_equal(
            sel, reference_selection(quats, trans, points, targets))
        assert sel[0, 17] == 5 and sel[0, k - 1] == 2

    def test_adds_loss_matches_reference_selection(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n, k = int(rng.integers(1, 20)), int(rng.integers(2, 200))
            quats, trans, points, targets = selection_instance(rng, n, k)
            q, t = ad.Tensor(quats), ad.Tensor(trans)
            expected = ad.mean_pose_point_distance(
                q, t, points, targets,
                sel=reference_selection(quats, trans, points, targets))
            assert abs(adds_loss(q, t, points, targets).item()
                       - expected.item()) <= 1e-15


def reference_pose_distance(quats, trans, points, targets, sel=None, eps=1e-12):
    """The cross-product form of ``mean_pose_point_distance``: (loss, dL/dq,
    dL/dt) from p + 2w (v x p) + 2 v x (v x p) and its hand-derived VJP."""
    n, k = quats.shape[0], points.shape[0]
    gathered = np.broadcast_to(points, (n, k, 3)) if sel is None else points[sel]
    w, v = quats[:, 0], quats[:, 1:]
    c1 = np.cross(v[:, None, :], gathered)
    c2 = np.cross(v[:, None, :], c1)
    u = (gathered + 2.0 * w[:, None, None] * c1 + 2.0 * c2
         + trans[:, None, :] - targets[None, :, :])
    dist = np.linalg.norm(u, axis=2)
    safe = np.maximum(dist, eps)[:, :, None]
    s = np.where(dist[:, :, None] < eps, 0.0, u / safe) / (n * k)
    gw = 2.0 * np.sum(c1 * s, axis=(1, 2))
    gv = (2.0 * w[:, None, None] * np.cross(gathered, s)
          + 2.0 * np.cross(c1, s)
          + 2.0 * np.cross(gathered, np.cross(s, np.broadcast_to(v[:, None, :],
                                                                 s.shape))))
    grad_q = np.concatenate([gw[:, None], gv.sum(axis=1)], axis=1)
    return dist.mean(), grad_q, s.sum(axis=1)


class TestPoseDistanceKernel:
    """The rotation-matrix kernel against the cross-product oracle."""

    @staticmethod
    def compare(quats, trans, points, targets, sel=None):
        q = ad.Tensor(quats, requires_grad=True)
        t = ad.Tensor(trans, requires_grad=True)
        loss = ad.mean_pose_point_distance(q, t, points, targets, sel=sel)
        ad.backward(loss)
        ref_loss, ref_gq, ref_gt = reference_pose_distance(
            quats, trans, points, targets, sel=sel)
        assert abs(loss.item() - ref_loss) <= 1e-12 * abs(ref_loss)
        for got, ref in ((q.grad, ref_gq), (t.grad, ref_gt)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("selected", [False, True], ids=["identity", "sel"])
    def test_matches_cross_product_oracle(self, selected):
        rng = np.random.default_rng(41 + selected)
        for _ in range(20):
            n, k = int(rng.integers(1, 12)), int(rng.integers(1, 40))
            quats, trans, points, targets = selection_instance(rng, n, k)
            sel = rng.integers(0, k, size=(n, k)) if selected else None
            self.compare(quats, trans, points, targets, sel)

    def test_rows_that_are_not_unit_quaternions(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n, k = int(rng.integers(1, 12)), int(rng.integers(1, 40))
            quats, trans, points, targets = selection_instance(rng, n, k)
            quats *= rng.uniform(0.3, 3.0, size=(n, 1))
            self.compare(quats, trans, points, targets,
                         rng.integers(0, k, size=(n, k)))

    @pytest.mark.parametrize("selected", [False, True], ids=["identity", "sel"])
    def test_vjp_allocates_no_candidate_by_point_array(self, selected):
        # dL/du exists one block of candidate rows at a time, formed in the
        # block's recomputed offsets: at N = K = 200, one 81-row block's
        # offsets (and gathered points) peak at 0.49 MB (0.88 MB with sel)
        rng = np.random.default_rng(45)
        n = k = 200
        quats, trans, points, targets = selection_instance(rng, n, k)
        sel = rng.integers(0, k, size=(n, k)) if selected else None
        q = ad.Tensor(quats, requires_grad=True)
        t = ad.Tensor(trans, requires_grad=True)
        loss = ad.mean_pose_point_distance(q, t, points, targets, sel=sel)
        tracemalloc.start()
        try:
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * k * 3 * 8, peak

    def test_point_at_zero_distance(self):
        rng = np.random.default_rng(44)
        quats, trans, points, targets = selection_instance(rng, 3, 8)
        # candidate 0 puts model point 2 exactly on its target
        quats[0], trans[0] = (1.0, 0.0, 0.0, 0.0), 0.0
        targets[2] = points[2]
        self.compare(quats, trans, points, targets)


def whole_pose_distance(quats, trans, points, targets, sel=None, eps=1e-12):
    """``mean_pose_point_distance``'s loss and (dL/dq, dL/dt) computed over
    whole (N, K, 3) arrays, as the op did before it worked in row blocks:
    the bit-for-bit oracle of the blocked op."""
    n, k = quats.shape[0], points.shape[0]
    gathered = points if sel is None else points[sel]
    w, v = quats[:, 0], quats[:, 1:]
    rot = quat_to_matrix(quats)
    u = gathered @ rot.transpose(0, 2, 1)
    u += trans[:, None, :]
    u -= targets
    dist = np.linalg.norm(u, axis=2)
    loss = dist.mean()
    small = dist < eps
    np.maximum(dist, eps, out=dist)
    s = u / dist[:, :, None]
    s[small] = 0.0
    s *= 1.0 / (n * k)
    grad_rot = s.transpose(0, 2, 1) @ gathered
    axial = np.stack([grad_rot[:, 2, 1] - grad_rot[:, 1, 2],
                      grad_rot[:, 0, 2] - grad_rot[:, 2, 0],
                      grad_rot[:, 1, 0] - grad_rot[:, 0, 1]], axis=1)
    sym = grad_rot + grad_rot.transpose(0, 2, 1)
    trace = np.trace(grad_rot, axis1=1, axis2=2)
    gw = 2.0 * np.sum(axial * v, axis=1)
    gv = (2.0 * w[:, None] * axial + 2.0 * (sym @ v[:, :, None])[:, :, 0]
          - 4.0 * trace[:, None] * v)
    # + 0.0 as _accumulate's first write
    return (loss, np.concatenate([gw[:, None], gv], axis=1) + 0.0,
            s.sum(axis=1) + 0.0)


def pose_instance(rng, n, k):
    """n random unit quaternions and translations, k model points and
    targets near them; candidate 0 puts model point 0 on its target."""
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    trans = 0.05 * rng.standard_normal((n, 3))
    points = rng.uniform(-0.1, 0.1, size=(k, 3))
    targets = points + rng.normal(0.0, 0.02, size=(k, 3))
    quats[0], trans[0], targets[0] = (1.0, 0.0, 0.0, 0.0), 0.0, points[0]
    return quats, trans, points, targets


# (N, K) shapes against the block grid of geom.row_blocks: one candidate,
# fewer candidates than one block's rows, a partial last block, whole
# blocks only, and K = 1 (16384 candidate rows per block)
POSE_BLOCK_SHAPES = {"one-candidate": (1, 1000), "one-pair": (1, 1),
                     "below-one-block": (5, 1000),
                     "partial-last-block": (37, 1000),
                     "whole-blocks": (32, 1000), "wide": (12, 3000),
                     "k1-one-block": (7, 1), "k1-partial": (20000, 1)}


class TestPoseDistanceBlocks:
    """The blocked op against the whole-array computation, bit for bit."""

    @pytest.mark.parametrize("selected", [False, True], ids=["identity", "sel"])
    @pytest.mark.parametrize("shape", sorted(POSE_BLOCK_SHAPES))
    def test_equals_the_whole_array_computation(self, shape, selected):
        n, k = POSE_BLOCK_SHAPES[shape]
        rows = [r.stop - r.start for r in row_blocks(n, k)]
        assert sum(rows) == n and max(rows) <= max(1, PAIR_BLOCK_ENTRIES // k)
        rng = np.random.default_rng(sorted(POSE_BLOCK_SHAPES).index(shape))
        quats, trans, points, targets = pose_instance(rng, n, k)
        sel = rng.integers(0, k, size=(n, k)) if selected else None
        if selected:
            sel[0, 0] = 0
        q = ad.Tensor(quats, requires_grad=True)
        t = ad.Tensor(trans, requires_grad=True)
        loss = ad.mean_pose_point_distance(q, t, points, targets, sel=sel)
        ad.backward(loss)
        expected = whole_pose_distance(quats, trans, points, targets, sel)
        assert loss.item() == expected[0]
        assert q.grad.tobytes() == expected[1].tobytes()
        assert t.grad.tobytes() == expected[2].tobytes()

    @pytest.mark.parametrize("selected", [False, True], ids=["identity", "sel"])
    def test_forward_allocates_no_candidate_by_point_array(self, selected):
        # the (N, K) distances and one block's offsets (0.38 MB at K = 400);
        # the whole-array forward held the (N, K, 3) offsets and the points
        # gathered for them too
        rng = np.random.default_rng(46)
        n = k = 400
        quats, trans, points, targets = pose_instance(rng, n, k)
        sel = rng.integers(0, k, size=(n, k)) if selected else None
        q = ad.Tensor(quats, requires_grad=True)
        t = ad.Tensor(trans, requires_grad=True)
        tracemalloc.start()
        try:
            ad.mean_pose_point_distance(q, t, points, targets, sel=sel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * k * 3 * 8, peak


def attention_chain(a, b):
    """The three-node map that ``attention_map`` replaces."""
    return ad.row_softmax(ad.matmul(a, ad.transpose(b)))


class TestAttentionMap:
    """``attention_map`` against ``row_softmax(matmul(a, transpose(b)))``,
    bit for bit."""

    @staticmethod
    def run(op, a, b, target):
        a = ad.Tensor(a, requires_grad=True)
        b = ad.Tensor(b, requires_grad=True)
        m = op(a, b)
        ad.backward(ad.mse(m, ad.Tensor(target)))
        return m.values, a.grad, b.grad

    def assert_same_as_chain(self, a, b, target):
        got = self.run(ad.attention_map, a, b, target)
        expected = self.run(attention_chain, a, b, target)
        for i, (x, y) in enumerate(zip(got, expected)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), i

    @staticmethod
    def instance(n, m, d):
        rng = np.random.default_rng(n + m + d)
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((m, d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        return a, b, rng.standard_normal((n, m)) / m

    # (rows of a, rows of b, width): one row (a vector product in BLAS),
    # one column, width 1, the toy and the published PSN widths, and shapes
    # where BLAS rounds a @ b^T or gl @ b differently when it reads b in
    # place instead of through a C-ordered copy of b^T, as the op does
    @pytest.mark.parametrize("n, m, d", [(1, 6, 3), (1, 50, 30), (2, 1, 1),
                                         (4, 5, 1), (128, 128, 32),
                                         (1000, 1000, 512), (40, 70, 24),
                                         (9, 9, 16), (255, 255, 8)])
    def test_equals_the_chain(self, n, m, d):
        self.assert_same_as_chain(*self.instance(n, m, d))

    def test_rows_with_exact_ties(self):
        # a zero row ties all of its logits, duplicated rows of b tie two
        # columns of every row, and a row equal to a row of b ties its max
        rng = np.random.default_rng(60)
        b = rng.standard_normal((6, 4))
        b[3] = b[1]
        a = rng.standard_normal((5, 4))
        a[0] = 0.0
        a[2] = b[1]
        self.assert_same_as_chain(a, b, rng.standard_normal((5, 6)))

    def test_one_node_keeping_only_the_map(self):
        rng = np.random.default_rng(61)
        a = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        out = ad.attention_map(a, b)
        assert out._parents == (a, b)
        held = [c.cell_contents for c in out._backward.__closure__]
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        assert [x.shape for x in arrays] == [(4, 5)]
        assert arrays[0] is out.values

    def test_non_finite_logits_raise(self):
        a = ad.Tensor([[1e200, 1e200]])
        b = ad.Tensor([[1e200, 1e200], [1.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteInput):
                ad.attention_map(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.attention_map(ad.Tensor(np.zeros((3, 2))),
                             ad.Tensor(np.zeros((3, 4))))

