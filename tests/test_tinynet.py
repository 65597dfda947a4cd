"""Tests for the prunable MLP: forward/backward, masks, schedule, compaction."""

import numpy as np
import pytest

from bwmarket.tinynet import (
    DenseLayer,
    PrunableMlp,
    PruneSchedule,
    compact,
    load_net,
    neuron_importance,
    parameter_count,
    save_net,
    sparsity_at,
    update_masks,
)


def random_net(rng, sizes=(3, 8, 6, 2)):
    return PrunableMlp.create(list(sizes), rng=rng)


# =====================================================================
# Forward
# =====================================================================
class TestForward:
    def test_identity_network_is_identity(self):
        net = PrunableMlp([DenseLayer(np.eye(3)), DenseLayer(np.eye(3))])
        x = np.array([1.0, 2.0, 3.0])  # the hidden ReLU passes x >= 0 unchanged
        np.testing.assert_allclose(net.forward(x)[0], x)

    def test_relu_clamps(self):
        net = PrunableMlp([DenseLayer(np.array([[-1.0]])), DenseLayer(np.array([[1.0]]))])
        assert net.forward(np.array([2.0]))[0][0] == 0.0

    def test_matches_straightline_oracle(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, sizes=(4, 5, 3))
        x = rng.standard_normal(4)
        # independent recomputation with plain matrix arithmetic
        h = np.maximum(0.0, net.layers[0].weights @ x)
        y = net.layers[1].weights @ h
        out = net.forward(x)[0]
        np.testing.assert_allclose(out, y, atol=1e-12)

    def test_batched_forward_matches_loop(self):
        rng = np.random.default_rng(1)
        net = random_net(rng)
        X = rng.standard_normal((7, 3))
        batch, _ = net.forward(X)
        rows = np.stack([net.forward(x)[0] for x in X])
        np.testing.assert_allclose(batch, rows, atol=1e-14)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            PrunableMlp([DenseLayer(np.ones((2, 3))), DenseLayer(np.ones((2, 4)))])


class TestMaskedForward:
    def test_masked_neuron_weight_invariance(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        net.masks[0][2] = 0.0
        x = rng.standard_normal(3)
        base = net.forward(x)[0]
        net.layers[0].weights[2, :] = 99.0   # incoming weights of masked neuron
        net.layers[1].weights[:, 2] = -99.0  # outgoing weights
        np.testing.assert_allclose(net.forward(x)[0], base, atol=1e-12)

    def test_half_mask_matches_zeroed_matrix_oracle(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, sizes=(3, 6, 2))
        net.masks[0][:3] = 0.0
        x = rng.standard_normal(3)
        h = np.maximum(0.0, net.layers[0].weights @ x)
        h[:3] = 0.0
        oracle = net.layers[1].weights @ h
        np.testing.assert_allclose(net.forward(x)[0], oracle, atol=1e-12)


class TestStackedNets:
    """A stack of K nets computes each net's forward and backward bit for bit."""

    @staticmethod
    def nets(rng, k, hidden):
        nets = [PrunableMlp.create([12, *hidden, 3], rng=rng) for _ in range(k)]
        for net in nets:  # partial masks, different per net
            for m in net.masks:
                m[rng.permutation(len(m))[:len(m) // 3]] = 0.0
        return nets

    @pytest.mark.parametrize("hidden", [(64, 64), (32,), (16, 8)])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("batch", [None, 80])
    def test_stack_matches_each_net(self, hidden, k, batch):
        rng = np.random.default_rng(k * 100 + len(hidden))
        nets = self.nets(rng, k, hidden)
        shape = (k, 12) if batch is None else (k, batch, 12)
        x = rng.standard_normal(shape)
        g = rng.standard_normal((*shape[:-1], 3))
        alone = []
        for net, x_k, g_k in zip(nets, x, g):
            out, cache = net.forward(x_k)
            alone.append((out, net.backward(cache, g_k)))
        stacked = PrunableMlp.stack(nets)
        out, cache = stacked.forward(x)
        grads = stacked.backward(cache, g)
        assert out.shape == (*shape[:-1], 3)
        for i, (out_k, grads_k) in enumerate(alone):
            np.testing.assert_array_equal(out[i], out_k)
            for grad, grad_k in zip(grads, grads_k):
                np.testing.assert_array_equal(grad[i], grad_k)

    def test_nets_become_views_of_their_slices(self):
        rng = np.random.default_rng(5)
        nets = self.nets(rng, 3, (16, 8))
        before = [[l.weights.copy() for l in net.layers] for net in nets]
        stacked = PrunableMlp.stack(nets)
        for i, net in enumerate(nets):
            for layer, whole, w in zip(net.layers, stacked.layers, before[i]):
                np.testing.assert_array_equal(whole.weights[i], w)
                assert np.shares_memory(layer.weights, whole.weights)
        # masking one net through its view masks its slice alone
        others = [m[[0, 2]].copy() for m in stacked.masks]
        sched = PruneSchedule(0.5, 0.5, start_epoch=0, total_steps=1)
        update_masks(nets[1], sched, epoch=0, floor_neurons=1)
        for m, other, view in zip(stacked.masks, others, nets[1].masks):
            np.testing.assert_array_equal(m[[0, 2]], other)
            np.testing.assert_array_equal(m[1], view)
        assert 1.0 - sum(m[1].sum() for m in stacked.masks) / 24 == pytest.approx(0.5)


# =====================================================================
# Backward
# =====================================================================
class TestBackward:
    def test_linear_single_layer_gradient_is_input(self):
        net = PrunableMlp([DenseLayer(np.array([[0.5, -0.5]]))])
        x = np.array([2.0, 3.0])
        _, cache = net.forward(x)
        grads = net.backward(cache, np.array([1.0]))
        np.testing.assert_allclose(grads[0], x[None, :])

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("mask_some", [False, True])
    def test_matches_finite_differences(self, seed, mask_some):
        rng = np.random.default_rng(seed)
        net = random_net(rng, sizes=(3, 6, 5, 2))
        if mask_some:
            net.masks[0][rng.integers(6)] = 0.0
            net.masks[1][rng.integers(5)] = 0.0
        x = rng.standard_normal(3)
        w_out = rng.standard_normal(2)  # loss = w_out . output

        out, cache = net.forward(x)
        grads = net.backward(cache, w_out)

        eps = 1e-5
        for k, layer in enumerate(net.layers):
            fd = np.zeros_like(layer.weights)
            for r in range(layer.weights.shape[0]):
                for c in range(layer.weights.shape[1]):
                    orig = layer.weights[r, c]
                    layer.weights[r, c] = orig + eps
                    up = float(w_out @ net.forward(x)[0])
                    layer.weights[r, c] = orig - eps
                    dn = float(w_out @ net.forward(x)[0])
                    layer.weights[r, c] = orig
                    fd[r, c] = (up - dn) / (2 * eps)
            denom = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(grads[k] - fd)) / denom < 1e-4

    def test_masked_neuron_gradients_exactly_zero(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, sizes=(3, 6, 2))
        net.masks[0][4] = 0.0
        x = rng.standard_normal(3)
        _, cache = net.forward(x)
        grads = net.backward(cache, np.ones(2))
        assert np.all(grads[0][4, :] == 0.0)
        assert np.all(grads[1][:, 4] == 0.0)


# =====================================================================
# Importance and schedule
# =====================================================================
class TestImportance:
    def test_zero_weights_zero_scores(self):
        net = PrunableMlp([DenseLayer(np.zeros((4, 3))),
                           DenseLayer(np.zeros((2, 4)))])
        scores = neuron_importance(net)
        np.testing.assert_array_equal(scores[0], np.zeros(4))

    def test_three_four_five(self):
        net = PrunableMlp([DenseLayer(np.array([[3.0, 4.0]])),
                           DenseLayer(np.array([[0.0]]))])
        assert neuron_importance(net)[0][0] == pytest.approx(5.0)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(10)
        net = random_net(rng)
        base = neuron_importance(net)
        for layer in net.layers:
            layer.weights *= 3.0
        scaled = neuron_importance(net)
        for s, b in zip(scaled, base):
            np.testing.assert_allclose(s, 3.0 * b, rtol=1e-12)


class TestSchedule:
    def test_endpoints_exact(self):
        sched = PruneSchedule(0.1, 0.8, start_epoch=5, total_steps=10, frequency=2)
        assert sparsity_at(sched, 5) == 0.1
        assert sparsity_at(sched, 5 + 20) == 0.8

    def test_midpoint_value(self):
        sched = PruneSchedule(0.0, 0.8, start_epoch=0, total_steps=8, frequency=1)
        assert sparsity_at(sched, 4) == pytest.approx(0.8 - 0.8 * 0.125)

    def test_clamped_outside_range(self):
        sched = PruneSchedule(0.1, 0.5, start_epoch=10, total_steps=5, frequency=1)
        assert sparsity_at(sched, 0) == 0.1
        assert sparsity_at(sched, 100) == 0.5

    def test_monotone_nondecreasing(self):
        sched = PruneSchedule(0.05, 0.7, start_epoch=0, total_steps=50, frequency=1)
        vals = [sparsity_at(sched, t) for t in range(-5, 60)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


# =====================================================================
# Mask updates
# =====================================================================
class TestUpdateMasks:
    def test_zero_sparsity_all_ones(self):
        rng = np.random.default_rng(11)
        net = random_net(rng)
        sched = PruneSchedule(0.0, 0.5, start_epoch=0, total_steps=10, frequency=1)
        update_masks(net, sched, epoch=0)
        for m in net.masks:
            assert np.all(m == 1.0)

    def test_three_lowest_masked(self):
        # one hidden layer of 10 neurons with distinct scores
        w_in = np.diag(np.arange(1.0, 11.0))
        net = PrunableMlp([DenseLayer(w_in),
                           DenseLayer(np.zeros((2, 10)))])
        sched = PruneSchedule(0.3, 0.3, start_epoch=0, total_steps=1, frequency=1)
        update_masks(net, sched, epoch=0, floor_neurons=1)
        np.testing.assert_array_equal(net.masks[0],
                                      [0, 0, 0, 1, 1, 1, 1, 1, 1, 1])

    def test_tie_break_by_layer_index(self):
        net = PrunableMlp([DenseLayer(np.ones((8, 3))),
                           DenseLayer(np.zeros((2, 8)))])
        sched = PruneSchedule(0.5, 0.5, start_epoch=0, total_steps=1, frequency=1)
        update_masks(net, sched, epoch=0, floor_neurons=1)
        np.testing.assert_array_equal(net.masks[0], [0, 0, 0, 0, 1, 1, 1, 1])

    def test_floor_reactivates(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, sizes=(3, 6, 6, 2))
        sched = PruneSchedule(0.9, 0.9, start_epoch=0, total_steps=1, frequency=1)
        update_masks(net, sched, epoch=0, floor_neurons=4)
        for m in net.masks:
            assert m.sum() >= 4

    def test_masks_can_reactivate(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, sizes=(3, 10, 2))
        sched = PruneSchedule(0.4, 0.4, start_epoch=0, total_steps=1, frequency=1)
        update_masks(net, sched, epoch=0, floor_neurons=1)
        masked = np.flatnonzero(net.masks[0] == 0.0)
        # boost a masked neuron's weights: it must come back on the next update
        target = masked[0]
        net.layers[0].weights[target, :] = 100.0
        update_masks(net, sched, epoch=0, floor_neurons=1)
        assert net.masks[0][target] == 1.0

    def test_achieved_sparsity_near_schedule(self):
        rng = np.random.default_rng(14)
        net = random_net(rng, sizes=(4, 32, 32, 3))
        sched = PruneSchedule(0.0, 0.6, start_epoch=0, total_steps=10, frequency=1)
        for t in range(11):
            update_masks(net, sched, epoch=t, floor_neurons=2)
            w = sparsity_at(sched, t)
            achieved = 1.0 - sum(m.sum() for m in net.masks) / 64.0
            assert abs(achieved - w) <= 1.0 / 64.0 + 1e-12


# =====================================================================
# Compaction
# =====================================================================
class TestCompact:
    def test_all_ones_mask_identical(self):
        rng = np.random.default_rng(15)
        net = random_net(rng)
        small = compact(net)
        assert small.hidden_sizes() == net.hidden_sizes()
        x = rng.standard_normal(3)
        np.testing.assert_allclose(small.forward(x)[0], net.forward(x)[0])

    def test_single_removal_shrinks_and_preserves(self):
        rng = np.random.default_rng(16)
        net = random_net(rng, sizes=(3, 4, 2))
        net.masks[0][1] = 0.0
        small = compact(net)
        assert small.hidden_sizes() == [3]
        for _ in range(20):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(small.forward(x)[0],
                                       net.forward(x)[0], atol=1e-12)

    def test_equivalence_on_100_random_inputs(self):
        rng = np.random.default_rng(17)
        net = random_net(rng, sizes=(5, 64, 64, 3))
        sched = PruneSchedule(0.5, 0.5, start_epoch=0, total_steps=1, frequency=1)
        update_masks(net, sched, epoch=0, floor_neurons=4)
        small = compact(net)
        X = rng.standard_normal((100, 5))
        np.testing.assert_allclose(small.forward(X)[0], net.forward(X)[0],
                                   atol=1e-12)

    def test_parameter_count_drops(self):
        rng = np.random.default_rng(18)
        net = random_net(rng, sizes=(5, 64, 64, 3))
        sched = PruneSchedule(0.5, 0.5, start_epoch=0, total_steps=1, frequency=1)
        update_masks(net, sched, epoch=0, floor_neurons=4)
        small = compact(net)
        hidden = sum(small.hidden_sizes())
        assert hidden <= 64 + 4  # half of 128 plus floor allowance
        assert parameter_count(small) < parameter_count(net)


# =====================================================================
# Checkpoints
# =====================================================================
class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        net = random_net(rng)
        net.masks[0][2] = 0.0
        path = tmp_path / "net.npz"
        save_net(net, path, extra={"epoch": 17})
        loaded, extra = load_net(path)
        for a, b in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
        for a, b in zip(net.masks, loaded.masks):
            np.testing.assert_array_equal(a, b)
        assert int(extra["epoch"]) == 17

    def test_version_check(self, tmp_path):
        rng = np.random.default_rng(20)
        net = random_net(rng)
        path = tmp_path / "net.npz"
        save_net(net, path)
        data = dict(np.load(path))
        data["version"] = np.array(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_net(path)
