import numpy as np
import pytest

import pairpose.autodiff as ad
from pairpose.checks import run_op_grad_suites
from pairpose.errors import NonScalarLoss, ShapeMismatch
from pairpose.geom import NEAREST_CHUNK_ROWS, random_pose
from pairpose.net import adds_loss


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


class TestOpSuites:
    def test_all_ops_pass_at_1e4(self):
        result = run_op_grad_suites(instances=10, h=1e-5, tol=1e-4, seed=0)
        assert result["passed"], result["per_op"]


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
