import warnings

import numpy as np
import pytest

from gradcheck import assert_gradients_match
from metroflow.errors import ConfigError, DimensionError, NumericError, UsageError
from metroflow.layers import AttentionHead, Conv1d, Dense, LstmCell, conv_stack, glorot_uniform
from metroflow.tensor import Tensor, softmax


def make_rng(seed=0):
    return np.random.default_rng(seed)


def zero_lstm(input_size=3, hidden_size=4):
    cell = LstmCell(input_size, hidden_size, make_rng())
    for p in cell.parameters().values():
        p.data[...] = 0.0
    return cell


class TestLstmStep:
    def test_all_zero_weights_and_state(self):
        cell = zero_lstm()
        h, c = cell.step(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))),
                         Tensor(np.zeros((1, 4))))
        # gates sit at sigmoid(0)=0.5, candidate tanh(0)=0, so everything stays 0
        np.testing.assert_allclose(c.data, np.zeros((1, 4)), atol=1e-15)
        np.testing.assert_allclose(h.data, np.zeros((1, 4)), atol=1e-15)

    def test_forget_gate_halves_memory(self):
        cell = zero_lstm()
        c_prev = np.array([[2.0, -1.0, 0.5, 4.0]])
        h, c = cell.step(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))), Tensor(c_prev))
        np.testing.assert_allclose(c.data, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_hidden_state_bounded(self):
        cell = LstmCell(3, 4, make_rng(5))
        rng = make_rng(6)
        h, c = cell.step(
            Tensor(rng.uniform(-50, 50, (1, 3))),
            Tensor(rng.uniform(-50, 50, (1, 4))),
            Tensor(rng.uniform(-50, 50, (1, 4))),
        )
        assert np.abs(h.data).max() < 1.0

    def test_shape_mismatch(self):
        cell = LstmCell(3, 4, make_rng())
        with pytest.raises(DimensionError):
            cell.step(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 4))),
                      Tensor(np.zeros((1, 4))))
        with pytest.raises(DimensionError):
            cell.step(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))),
                      Tensor(np.zeros((1, 4))))

    def test_gradients(self):
        cell = LstmCell(2, 3, make_rng(7))
        x = make_rng(8).uniform(-1, 1, (1, 2))
        h0 = make_rng(9).uniform(-1, 1, (1, 3))
        c0 = make_rng(10).uniform(-1, 1, (1, 3))

        def fn(w_i, w_f, w_o, w_c, b_i, b_f, b_o, b_c, xv, hv, cv):
            cell.W_i, cell.W_f, cell.W_o, cell.W_C = w_i, w_f, w_o, w_c
            cell.b_i, cell.b_f, cell.b_o, cell.b_C = b_i, b_f, b_o, b_c
            h, c = cell.step(xv, hv, cv)
            return (h * h).sum() + c.sum()

        params = [p.data.copy() for p in cell.parameters().values()]
        assert_gradients_match(fn, params + [x, h0, c0])


class TestLstmUnroll:
    def test_single_step_equals_step(self):
        cell = LstmCell(3, 4, make_rng(1))
        x = make_rng(2).uniform(-1, 1, (1, 1, 3))
        out = cell.unroll(Tensor(x))
        h, _ = cell.step(Tensor(x[:, 0]), Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data[:, 0], h.data, atol=1e-15)

    def test_zero_weights_all_hidden_zero(self):
        cell = zero_lstm()
        out = cell.unroll(Tensor(np.ones((1, 6, 3))))
        np.testing.assert_allclose(out.data, np.zeros((1, 6, 4)), atol=1e-15)

    def test_empty_sequence_rejected(self):
        cell = LstmCell(3, 4, make_rng())
        with pytest.raises(UsageError):
            cell.unroll(Tensor(np.zeros((1, 0, 3))))

    def test_long_range_gradient_nonzero(self):
        cell = LstmCell(2, 3, make_rng(3))
        seq = Tensor(make_rng(4).uniform(-1, 1, (1, 5, 2)), requires_grad=True)
        out = cell.unroll(seq)
        out[:, 4].sum().backward()
        # the path from the first input to the last hidden state exists
        assert np.abs(seq.grad[:, 0]).max() > 0

    def test_gradients_through_unroll(self):
        cell = LstmCell(2, 2, make_rng(11))
        seq = make_rng(12).uniform(-1, 1, (1, 4, 2))

        def fn(w_i, w_f, w_o, w_c, b_i, b_f, b_o, b_c, s):
            cell.W_i, cell.W_f, cell.W_o, cell.W_C = w_i, w_f, w_o, w_c
            cell.b_i, cell.b_f, cell.b_o, cell.b_C = b_i, b_f, b_o, b_c
            out = cell.unroll(s)
            return (out * out).sum()

        params = [p.data.copy() for p in cell.parameters().values()]
        assert_gradients_match(fn, params + [seq])


class TestFusedUnroll:
    """``unroll`` is one graph node; ``step`` is its reference."""

    @staticmethod
    def leaves(cell, seq):
        params = [Tensor(p.data.copy(), requires_grad=True) for p in cell.parameters().values()]
        cell.W_i, cell.W_f, cell.W_o, cell.W_C, cell.b_i, cell.b_f, cell.b_o, cell.b_C = params
        return [Tensor(seq.copy(), requires_grad=True)] + params

    def test_matches_step_chain(self):
        batch, n, size, hidden = 5, 7, 3, 4
        cell = LstmCell(size, hidden, make_rng(20))
        seq = make_rng(21).uniform(-2, 2, (batch, n, size))
        upstream = make_rng(22).normal(size=(batch, n, hidden))

        fused = self.leaves(cell, seq)
        out = cell.unroll(fused[0])
        (out * Tensor(upstream)).sum().backward()

        chained = self.leaves(cell, seq)
        h = Tensor(np.zeros((batch, hidden)))
        c = Tensor(np.zeros((batch, hidden)))
        reference = None
        for t in range(n):
            h, c = cell.step(chained[0][:, t, :], h, c)
            np.testing.assert_allclose(out.data[:, t, :], h.data, rtol=0, atol=1e-12)
            term = (h * Tensor(upstream[:, t, :])).sum()
            reference = term if reference is None else reference + term
        reference.backward()

        for a, b in zip(fused, chained):
            np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)

    def test_batched_gradients(self):
        cell = LstmCell(2, 3, make_rng(23))
        seq = make_rng(24).uniform(-1, 1, (3, 5, 2))
        weights = Tensor(make_rng(25).normal(size=(3, 5, 3)))

        def fn(w_i, w_f, w_o, w_c, b_i, b_f, b_o, b_c, s):
            cell.W_i, cell.W_f, cell.W_o, cell.W_C = w_i, w_f, w_o, w_c
            cell.b_i, cell.b_f, cell.b_o, cell.b_C = b_i, b_f, b_o, b_c
            out = cell.unroll(s)
            return (out * out * weights).sum()

        params = [p.data.copy() for p in cell.parameters().values()]
        assert_gradients_match(fn, params + [seq])

    @pytest.mark.parametrize("shape", [(1, 1, 3), (1, 6, 3), (2, 1, 3), (2, 24, 3)])
    def test_one_node(self, shape):
        cell = LstmCell(3, 4, make_rng(26))
        seq = Tensor(np.ones(shape), requires_grad=True)
        out = cell.unroll(seq)
        assert out.shape == shape[:-1] + (4,)
        assert out._parents == (seq,) + tuple(cell.parameters().values())

    def test_saturated_inputs_finite_without_warnings(self):
        cell = LstmCell(3, 4, make_rng(27))
        seq = Tensor(make_rng(28).choice([-800.0, 800.0], size=(2, 6, 3)), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cell.unroll(seq)
            out.sum().backward()
        assert np.isfinite(out.data).all()
        assert np.isfinite(seq.grad).all()
        for p in cell.parameters().values():
            assert np.isfinite(p.grad).all()


class TestConv1d:
    """One conv run alone through ``conv_stack``, without the ReLU."""

    def test_box_kernel_with_same_padding(self):
        conv = Conv1d(1, 1, 3, make_rng())
        conv.W.data[...] = 1.0
        conv.b.data[...] = 0.0
        out = conv_stack(Tensor(np.array([[[1.0], [2.0], [3.0]]])), (conv,), relu=False)
        np.testing.assert_allclose(out.data, [[[3.0], [6.0], [5.0]]], atol=1e-15)

    def test_identity_kernel(self):
        conv = Conv1d(2, 2, 3, make_rng())
        conv.W.data[...] = 0.0
        conv.b.data[...] = 0.0
        for ch in range(2):
            conv.W.data[ch, ch, 1] = 1.0
        x = make_rng(1).uniform(-1, 1, (1, 7, 2))
        out = conv_stack(Tensor(x), (conv,), relu=False)
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_zero_sum_kernel_on_constant_input(self):
        conv = Conv1d(1, 1, 3, make_rng())
        conv.W.data[0, 0] = [1.0, -2.0, 1.0]
        conv.b.data[...] = 0.0
        out = conv_stack(Tensor(np.full((1, 6, 1), 3.0)), (conv,), relu=False)
        np.testing.assert_allclose(out.data[:, 1:-1], np.zeros((1, 4, 1)), atol=1e-14)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_same_length_for_every_kernel(self, k):
        conv = Conv1d(3, 2, k, make_rng(k))
        out = conv_stack(Tensor(make_rng(1).uniform(-1, 1, (1, 10, 3))), (conv,), relu=False)
        assert out.shape == (1, 10, 2)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            Conv1d(1, 1, 4, make_rng())

    def test_channel_mismatch(self):
        conv = Conv1d(3, 2, 3, make_rng())
        with pytest.raises(DimensionError):
            conv_stack(Tensor(np.zeros((1, 5, 4))), (conv,), relu=False)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_gradients(self, k):
        conv = Conv1d(2, 2, k, make_rng(k))
        x = Tensor(make_rng(20 + k).uniform(-1, 1, (1, 8, 2)))

        def fn(w, b):
            conv.W, conv.b = w, b
            out = conv_stack(x, (conv,), relu=False)
            return (out * out).sum()

        assert_gradients_match(fn, [conv.W.data.copy(), conv.b.data.copy()])

    @staticmethod
    def loop_reference(x, w, b, g, relu=False):
        """Explicit loops over batch, time, output channel and tap.

        Returns the output, with a ReLU when ``relu``, and the gradients of
        ``sum(output * g)`` by w and b.
        """
        batch, n, _ = x.shape
        out_channels, _, k = w.shape
        pad = (k - 1) // 2
        y = np.empty((batch, n, out_channels))
        dw, db = np.zeros(w.shape), np.zeros(b.shape)
        for s in range(batch):
            for t in range(n):
                for o in range(out_channels):
                    total = b[o]
                    for j in range(k):
                        if 0 <= t + j - pad < n:
                            total += w[o, :, j] @ x[s, t + j - pad]
                    active = total > 0.0 or not relu
                    y[s, t, o] = total if active else 0.0
                    d = g[s, t, o] if active else 0.0
                    db[o] += d
                    for j in range(k):
                        if 0 <= t + j - pad < n:
                            dw[o, :, j] += d * x[s, t + j - pad]
        return y, dw, db

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_matches_loop_reference(self, k):
        conv = Conv1d(3, 4, k, make_rng(30 + k))
        conv.b.data[...] = make_rng(40 + k).normal(size=4)
        x = Tensor(make_rng(50 + k).uniform(-1, 1, (3, 9, 3)))
        g = make_rng(60 + k).normal(size=(3, 9, 4))
        out = conv_stack(x, (conv,), relu=False)
        (out * Tensor(g)).sum().backward()
        expected = self.loop_reference(x.data, conv.W.data, conv.b.data, g)
        for got, want in zip((out.data, conv.W.grad, conv.b.grad), expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_batched_gradients(self, k):
        # 8 steps, and 3 steps: shorter than the k=5 and k=7 kernels
        for n in (8, 3):
            conv = Conv1d(2, 3, k, make_rng(60 + k))
            x = Tensor(make_rng(70 + k).uniform(-1, 1, (3, n, 2)))
            weights = Tensor(make_rng(80 + k).normal(size=(3, n, 3)))

            def fn(w, b):
                conv.W, conv.b = w, b
                out = conv_stack(x, (conv,), relu=False)
                return (out * out * weights).sum()

            bias = make_rng(90 + k).normal(size=3)
            assert_gradients_match(fn, [conv.W.data.copy(), bias])

    def test_one_node(self):
        # the input is data, not a parent; one that needs a gradient is refused
        conv = Conv1d(2, 3, 5, make_rng(31))
        x = Tensor(np.ones((3, 8, 2)))
        out = conv_stack(x, (conv,), relu=False)
        assert out._parents == (conv.W, conv.b)
        out.sum().backward()
        assert x.grad is None
        assert conv.W.grad.shape == conv.W.shape and conv.b.grad.shape == conv.b.shape
        with pytest.raises(UsageError, match="no input gradient"):
            conv_stack(Tensor(x.data, requires_grad=True), (conv,), relu=False)


class TestAttention:
    def test_single_row_passes_value_through(self):
        head = AttentionHead(3, 2, make_rng(1))
        h = make_rng(2).uniform(-1, 1, (1, 1, 3))
        out = head(Tensor(h))
        np.testing.assert_allclose(out.data, h @ head.W_V.data, atol=1e-14)

    def test_identical_rows_give_identical_outputs(self):
        head = AttentionHead(3, 2, make_rng(3))
        row = make_rng(4).uniform(-1, 1, 3)
        out = head(Tensor(np.tile(row, (1, 5, 1))))
        expected = row @ head.W_V.data
        for i in range(5):
            np.testing.assert_allclose(out.data[0, i], expected, atol=1e-14)

    def test_outputs_in_value_hull(self):
        head = AttentionHead(4, 3, make_rng(7))
        h = make_rng(8).uniform(-2, 2, (1, 6, 4))
        v = h[0] @ head.W_V.data
        out = head(Tensor(h)).data[0]
        assert (out >= v.min(axis=0) - 1e-12).all()
        assert (out <= v.max(axis=0) + 1e-12).all()

    def test_permutation_equivariance_with_identity_projections(self):
        head = AttentionHead(3, 3, make_rng(9))
        for w in (head.W_Q, head.W_K, head.W_V):
            w.data[...] = np.eye(3)
        h = make_rng(10).uniform(-1, 1, (1, 5, 3))
        perm = h.copy()
        perm[0, [1, 3]] = perm[0, [3, 1]]
        out = head(Tensor(h)).data[0]
        out_perm = head(Tensor(perm)).data[0]
        np.testing.assert_allclose(out_perm[[3, 1]], out[[1, 3]], atol=1e-12)
        np.testing.assert_allclose(np.delete(out_perm, [1, 3], 0), np.delete(out, [1, 3], 0),
                                   atol=1e-12)

    def test_d_model_mismatch(self):
        head = AttentionHead(4, 3, make_rng())
        with pytest.raises(DimensionError):
            head(Tensor(np.zeros((1, 5, 3))))

    def test_gradients(self):
        head = AttentionHead(3, 2, make_rng(11))
        h = make_rng(12).uniform(-1, 1, (1, 4, 3))

        def fn(wq, wk, wv, hv):
            head.W_Q, head.W_K, head.W_V = wq, wk, wv
            out = head(hv)
            return (out * out).sum()

        arrays = [head.W_Q.data.copy(), head.W_K.data.copy(), head.W_V.data.copy(), h]
        assert_gradients_match(fn, arrays)

    def test_matches_op_chain(self):
        head = AttentionHead(5, 4, make_rng(13))
        h = make_rng(14).uniform(-2, 2, (3, 6, 5))
        upstream = Tensor(make_rng(15).normal(size=(3, 6, 4)))

        def leaves():
            weights = [Tensor(w.data.copy(), requires_grad=True)
                       for w in (head.W_Q, head.W_K, head.W_V)]
            return [Tensor(h.copy(), requires_grad=True)] + weights

        node = leaves()
        head.W_Q, head.W_K, head.W_V = node[1:]
        out = head(node[0])
        (out * upstream).sum().backward()

        # the reference runs one window at a time through 2-D engine ops
        chain = leaves()
        x, wq, wk, wv = chain
        n = h.shape[1]
        scale = Tensor(np.array(1 / np.sqrt(4))).expand((n, n))
        reference, loss = [], None
        for i in range(h.shape[0]):
            scores = (x[i] @ wq) @ (x[i] @ wk).transpose((1, 0)) * scale
            row = softmax(scores, axis=-1) @ (x[i] @ wv)
            term = (row * upstream[i]).sum()
            loss = term if loss is None else loss + term
            reference.append(row.data)
        loss.backward()

        np.testing.assert_allclose(out.data, np.stack(reference), rtol=0, atol=1e-12)
        for a, b in zip(node, chain):
            np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)

    def test_one_node(self):
        head = AttentionHead(3, 2, make_rng(16))
        h = Tensor(np.ones((2, 4, 3)))
        out = head(h)
        assert out._parents == (h, head.W_Q, head.W_K, head.W_V)
        out.sum().backward()
        assert h.grad is None

    def test_nan_input_raises_numeric_error(self):
        head = AttentionHead(3, 2, make_rng(17))
        h = make_rng(18).uniform(-1, 1, (2, 4, 3))
        h[1, 2, 0] = np.nan
        with pytest.raises(NumericError):
            head(Tensor(h))


class TestDense:
    def test_identity(self):
        layer = Dense(3, 3, make_rng())
        layer.W.data[...] = np.eye(3)
        layer.b.data[...] = 0.0
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_allclose(layer(Tensor(x)).data, x, atol=1e-15)

    def test_frozen_affine(self):
        layer = Dense(2, 1, make_rng())
        layer.W.data[...] = [[1.0, 1.0]]
        layer.b.data[...] = [1.0]
        assert layer(Tensor([[2.0, 3.0]])).item() == 6.0

    def test_zero_weights_output_bias(self):
        layer = Dense(2, 3, make_rng(1))
        layer.W.data[...] = 0.0
        layer.b.data[...] = [1.0, 2.0, 3.0]
        np.testing.assert_array_equal(layer(Tensor([[5.0, 6.0]])).data, [[1.0, 2.0, 3.0]])

    def test_shape_mismatch(self):
        layer = Dense(2, 3, make_rng())
        with pytest.raises(DimensionError):
            layer(Tensor(np.zeros((1, 4))))

    def test_gradients(self):
        layer = Dense(3, 2, make_rng(2))
        x = make_rng(3).uniform(-1, 1, (1, 3))

        def fn(w, b, xv):
            layer.W, layer.b = w, b
            out = layer(xv)
            return (out * out).sum()

        assert_gradients_match(fn, [layer.W.data.copy(), layer.b.data.copy(), x])


UNBATCHED = {
    "conv1d": lambda: conv_stack(Tensor(np.zeros((5, 3))), (Conv1d(3, 2, 3, make_rng()),),
                                 relu=False),
    "unroll": lambda: LstmCell(3, 4, make_rng()).unroll(Tensor(np.zeros((5, 3)))),
    "attention": lambda: AttentionHead(3, 2, make_rng())(Tensor(np.zeros((5, 3)))),
    "dense": lambda: Dense(3, 2, make_rng())(Tensor(np.zeros(3))),
    "step": lambda: LstmCell(3, 4, make_rng()).step(
        Tensor(np.zeros(3)), Tensor(np.zeros(4)), Tensor(np.zeros(4))),
}


@pytest.mark.parametrize("entry", sorted(UNBATCHED))
def test_unbatched_input_rejected(entry):
    """Every layer takes a batch only: [n, c] or [c] without a batch axis is an error."""
    with pytest.raises(DimensionError):
        UNBATCHED[entry]()


class TestInit:
    def test_same_seed_bit_identical(self):
        a = glorot_uniform(np.random.default_rng(42), (20, 30), 30, 20)
        b = glorot_uniform(np.random.default_rng(42), (20, 30), 30, 20)
        assert (a.data == b.data).all()

    def test_sample_mean_within_three_sigma(self):
        draws = glorot_uniform(np.random.default_rng(0), (100, 100), 100, 100)
        limit = np.sqrt(6.0 / 200)
        sigma = limit / np.sqrt(3.0 * draws.size)
        assert abs(draws.data.mean()) < 3.0 * sigma

    def test_bounds(self):
        t = glorot_uniform(np.random.default_rng(1), (50, 50), 50, 50)
        limit = np.sqrt(6.0 / 100)
        assert np.abs(t.data).max() <= limit

    def test_forget_bias_ones(self):
        cell = LstmCell(3, 5, make_rng())
        np.testing.assert_array_equal(cell.b_f.data, np.ones(5))
        np.testing.assert_array_equal(cell.b_i.data, np.zeros(5))
