import tracemalloc
import warnings

import numpy as np
import pytest

from gradcheck import assert_gradients_match
from metroflow.errors import ConfigError, DimensionError, NumericError, UsageError
from metroflow.layers import (AttentionHead, Dense, LstmCell, conv_stack, conv_weights,
                              glorot_uniform)
from metroflow.tensor import Tensor, no_grad
from reference import block, lstm_step, mean, softmax


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
        h, c = lstm_step(cell, Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))),
                         Tensor(np.zeros((1, 4))))
        # gates sit at sigmoid(0)=0.5, candidate tanh(0)=0, so everything stays 0
        np.testing.assert_allclose(c.data, np.zeros((1, 4)), atol=1e-15)
        np.testing.assert_allclose(h.data, np.zeros((1, 4)), atol=1e-15)

    def test_forget_gate_halves_memory(self):
        cell = zero_lstm()
        c_prev = np.array([[2.0, -1.0, 0.5, 4.0]])
        h, c = lstm_step(cell, Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))),
                         Tensor(c_prev))
        np.testing.assert_allclose(c.data, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_hidden_state_bounded(self):
        cell = LstmCell(3, 4, make_rng(5))
        rng = make_rng(6)
        h, c = lstm_step(
            cell,
            Tensor(rng.uniform(-50, 50, (1, 3))),
            Tensor(rng.uniform(-50, 50, (1, 4))),
            Tensor(rng.uniform(-50, 50, (1, 4))),
        )
        assert np.abs(h.data).max() < 1.0

    def test_shape_mismatch(self):
        cell = LstmCell(3, 4, make_rng())
        with pytest.raises(DimensionError):
            lstm_step(cell, Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 4))),
                      Tensor(np.zeros((1, 4))))
        with pytest.raises(DimensionError):
            lstm_step(cell, Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))),
                      Tensor(np.zeros((1, 4))))

    def test_gradients(self):
        cell = LstmCell(2, 3, make_rng(7))
        x = make_rng(8).uniform(-1, 1, (1, 2))
        h0 = make_rng(9).uniform(-1, 1, (1, 3))
        c0 = make_rng(10).uniform(-1, 1, (1, 3))

        def fn(w, xv, hv, cv):
            cell.W = w
            h, c = lstm_step(cell, xv, hv, cv)
            return (h * h).sum() + c.sum()

        assert_gradients_match(fn, [cell.W.data.copy(), x, h0, c0])


class TestLstmUnroll:
    def test_single_step_equals_step(self):
        cell = LstmCell(3, 4, make_rng(1))
        x = make_rng(2).uniform(-1, 1, (1, 1, 3))
        out = cell.unroll(Tensor(x))
        h, _ = lstm_step(cell, Tensor(x[:, 0]), Tensor(np.zeros((1, 4))),
                         Tensor(np.zeros((1, 4))))
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

        def fn(w, s):
            cell.W = w
            out = cell.unroll(s)
            return (out * out).sum()

        assert_gradients_match(fn, [cell.W.data.copy(), seq])


class TestFusedUnroll:
    """``unroll`` is one graph node; ``lstm_step`` is its reference."""

    @staticmethod
    def leaves(cell, seq):
        cell.W = Tensor(cell.W.data.copy(), requires_grad=True)
        return [Tensor(seq.copy(), requires_grad=True), cell.W]

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
            h, c = lstm_step(cell, chained[0][:, t, :], h, c)
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

        def fn(w, s):
            cell.W = w
            out = cell.unroll(s)
            return (out * out * weights).sum()

        assert_gradients_match(fn, [cell.W.data.copy(), seq])

    @pytest.mark.parametrize("shape", [(1, 1, 3), (1, 6, 3), (2, 1, 3), (2, 24, 3)])
    def test_one_node(self, shape):
        cell = LstmCell(3, 4, make_rng(26))
        seq = Tensor(np.ones(shape), requires_grad=True)
        out = cell.unroll(seq)
        assert out.shape == shape[:-1] + (4,)
        assert out._parents == (seq, cell.W)

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
    """One conv, a (W, b) pair from ``conv_weights``, run alone through
    ``conv_stack``, which always applies its ReLU."""

    def test_weights_glorot_init(self):
        W, b = conv_weights(3, 2, 5, make_rng())
        assert W.shape == (2, 3, 5) and W.requires_grad and b.requires_grad
        assert np.abs(W.data).max() <= np.sqrt(6.0 / (3 * 5 + 2 * 5))
        np.testing.assert_array_equal(b.data, np.zeros(2))

    def test_box_kernel_with_same_padding(self):
        W, b = conv_weights(1, 1, 3, make_rng())
        W.data[...] = 1.0
        b.data[...] = 0.0
        out = conv_stack(Tensor(np.array([[[1.0], [2.0], [3.0]]])), ((W, b),))
        np.testing.assert_allclose(out.data, [[[3.0], [6.0], [5.0]]], atol=1e-15)

    def test_identity_kernel(self):
        W, b = conv_weights(2, 2, 3, make_rng())
        W.data[...] = 0.0
        b.data[...] = 0.0
        for ch in range(2):
            W.data[ch, ch, 1] = 1.0
        x = make_rng(1).uniform(-1, 1, (1, 7, 2))
        out = conv_stack(Tensor(x), ((W, b),))
        # x where it is positive: the ReLU zeroes the rest
        np.testing.assert_allclose(out.data, np.maximum(x, 0.0), atol=1e-15)

    def test_zero_sum_kernel_on_constant_input(self):
        W, b = conv_weights(1, 1, 3, make_rng())
        W.data[0, 0] = [1.0, -2.0, 1.0]
        b.data[...] = 0.0
        out = conv_stack(Tensor(np.full((1, 6, 1), 3.0)), ((W, b),))
        np.testing.assert_allclose(out.data[:, 1:-1], np.zeros((1, 4, 1)), atol=1e-14)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_same_length_for_every_kernel(self, k):
        conv = conv_weights(3, 2, k, make_rng(k))
        out = conv_stack(Tensor(make_rng(1).uniform(-1, 1, (1, 10, 3))), (conv,))
        assert out.shape == (1, 10, 2)

    def test_even_kernel_rejected(self):
        # alone or beside an odd one: the centering needs every width odd
        x = Tensor(np.zeros((1, 5, 1)))
        even = conv_weights(1, 1, 4, make_rng())
        for convs in ((even,), (conv_weights(1, 1, 3, make_rng(1)), even)):
            with pytest.raises(ConfigError, match="odd"):
                conv_stack(x, convs)

    def test_channel_mismatch(self):
        conv = conv_weights(3, 2, 3, make_rng())
        with pytest.raises(DimensionError):
            conv_stack(Tensor(np.zeros((1, 5, 4))), (conv,))

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_gradients(self, k):
        W, b = conv_weights(2, 2, k, make_rng(k))
        x = Tensor(make_rng(20 + k).uniform(-1, 1, (1, 8, 2)))

        def fn(w, b):
            out = conv_stack(x, ((w, b),))
            return (out * out).sum()

        assert_gradients_match(fn, [W.data.copy(), b.data.copy()])

    @staticmethod
    def loop_reference(x, w, b, g):
        """Explicit loops over batch, time, output channel and tap.

        Returns the output, after its ReLU, and the gradients of
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
                    active = total > 0.0
                    y[s, t, o] = total if active else 0.0
                    d = g[s, t, o] if active else 0.0
                    db[o] += d
                    for j in range(k):
                        if 0 <= t + j - pad < n:
                            dw[o, :, j] += d * x[s, t + j - pad]
        return y, dw, db

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_matches_loop_reference(self, k):
        W, b = conv_weights(3, 4, k, make_rng(30 + k))
        b.data[...] = make_rng(40 + k).normal(size=4)
        x = Tensor(make_rng(50 + k).uniform(-1, 1, (3, 9, 3)))
        g = make_rng(60 + k).normal(size=(3, 9, 4))
        out = conv_stack(x, ((W, b),))
        (out * Tensor(g)).sum().backward()
        expected = self.loop_reference(x.data, W.data, b.data, g)
        for got, want in zip((out.data, W.grad, b.grad), expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_batched_gradients(self, k):
        # 8 steps, and 3 steps: shorter than the k=5 and k=7 kernels
        for n in (8, 3):
            W, _ = conv_weights(2, 3, k, make_rng(60 + k))
            x = Tensor(make_rng(70 + k).uniform(-1, 1, (3, n, 2)))
            weights = Tensor(make_rng(80 + k).normal(size=(3, n, 3)))

            def fn(w, b):
                out = conv_stack(x, ((w, b),))
                return (out * out * weights).sum()

            bias = make_rng(90 + k).normal(size=3)
            assert_gradients_match(fn, [W.data.copy(), bias])

    def test_one_node(self):
        # the input is data, not a parent; one that needs a gradient is refused
        W, b = conv_weights(2, 3, 5, make_rng(31))
        x = Tensor(np.ones((3, 8, 2)))
        out = conv_stack(x, ((W, b),))
        assert out._parents == (W, b)
        out.sum().backward()
        assert x.grad is None
        assert W.grad.shape == W.shape and b.grad.shape == b.shape
        with pytest.raises(UsageError, match="no input gradient"):
            conv_stack(Tensor(x.data, requires_grad=True), ((W, b),))


class TestAttention:
    def test_single_row_passes_value_through(self):
        head = AttentionHead(3, 2, make_rng(1))
        h = make_rng(2).uniform(-1, 1, (1, 1, 3))
        out = head(Tensor(h))
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out.data, h[:, 0] @ head.W.data[:, 4:], atol=1e-14)

    def test_identical_rows_give_identical_outputs(self):
        # every attended row is the one value row, and so is their mean
        head = AttentionHead(3, 2, make_rng(3))
        row = make_rng(4).uniform(-1, 1, 3)
        out = head(Tensor(np.tile(row, (1, 5, 1))))
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out.data[0], row @ head.W.data[:, 4:], atol=1e-14)

    def test_outputs_in_value_hull(self):
        head = AttentionHead(4, 3, make_rng(7))
        h = make_rng(8).uniform(-2, 2, (1, 6, 4))
        v = h[0] @ head.W.data[:, 6:]
        out = head(Tensor(h)).data[0]
        assert (out >= v.min(axis=0) - 1e-12).all()
        assert (out <= v.max(axis=0) + 1e-12).all()

    def test_permutation_invariance_with_identity_projections(self):
        # permuting a window's rows permutes its attended rows, and leaves their mean
        head = AttentionHead(3, 3, make_rng(9))
        head.W.data[...] = np.tile(np.eye(3), (1, 3))  # Q, K and V blocks
        h = make_rng(10).uniform(-1, 1, (1, 5, 3))
        perm = h.copy()
        perm[0, [1, 3]] = perm[0, [3, 1]]
        out = head(Tensor(h)).data[0]
        out_perm = head(Tensor(perm)).data[0]
        np.testing.assert_allclose(out_perm, out, atol=1e-12)

    def test_d_model_mismatch(self):
        head = AttentionHead(4, 3, make_rng())
        with pytest.raises(DimensionError):
            head(Tensor(np.zeros((1, 5, 3))))

    def test_gradients(self):
        head = AttentionHead(3, 2, make_rng(11))
        h = make_rng(12).uniform(-1, 1, (1, 4, 3))

        def fn(w, hv):
            head.W = w
            out = head(hv)
            return (out * out).sum()

        assert_gradients_match(fn, [head.W.data.copy(), h])

    def test_matches_op_chain(self):
        head = AttentionHead(5, 4, make_rng(13))
        h = make_rng(14).uniform(-2, 2, (3, 6, 5))
        upstream = Tensor(make_rng(15).normal(size=(3, 4)))

        def leaves():
            return [Tensor(h.copy(), requires_grad=True),
                    Tensor(head.W.data.copy(), requires_grad=True)]

        node = leaves()
        head.W = node[1]
        out = head(node[0])
        (out * upstream).sum().backward()

        # the reference runs one window at a time through 2-D engine ops,
        # reading the Q, K and V blocks out of one leaf, and pools the
        # attended rows with the reference mean
        chain = leaves()
        x, w = chain
        wq, wk, wv = (block(w, 1, j * 4, (j + 1) * 4) for j in range(3))
        n = h.shape[1]
        scale = Tensor(np.array(1 / np.sqrt(4))).expand((n, n))
        reference, loss = [], None
        for i in range(h.shape[0]):
            scores = (x[i] @ wq) @ (x[i] @ wk).transpose((1, 0)) * scale
            pooled = mean(softmax(scores, axis=-1) @ (x[i] @ wv), 0)
            term = (pooled * upstream[i]).sum()
            loss = term if loss is None else loss + term
            reference.append(pooled.data)
        loss.backward()

        np.testing.assert_allclose(out.data, np.stack(reference), rtol=0, atol=1e-12)
        for a, b in zip(node, chain):
            np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)

    def test_one_node(self):
        head = AttentionHead(3, 2, make_rng(16))
        h = Tensor(np.ones((2, 4, 3)))
        out = head(h)
        assert out._parents == (h, head.W)
        out.sum().backward()
        assert h.grad is None

    def test_nan_input_raises_numeric_error(self):
        head = AttentionHead(3, 2, make_rng(17))
        h = make_rng(18).uniform(-1, 1, (2, 4, 3))
        h[1, 2, 0] = np.nan
        with pytest.raises(NumericError):
            head(Tensor(h))


class TestNoGradForward:
    """``unroll`` and ``AttentionHead`` have one forward for training and
    ``no_grad``: the same bits, with ``no_grad`` keeping only the output."""

    SHAPES = [(1, 1), (2, 24), (256, 24)]  # (B, n); at n = 1 every step is step 0

    @staticmethod
    def both(layer, x):
        recorded = layer(Tensor(x))
        assert recorded.requires_grad
        with no_grad():
            plain = layer(Tensor(x))
        assert not plain.requires_grad
        return recorded.data, plain.data

    @staticmethod
    def peak_bytes(layer, x):
        """Peak traced heap while ``layer`` runs on ``x`` under no_grad, and its output's size."""
        x = Tensor(x)
        tracemalloc.start()
        try:
            with no_grad():
                out = layer(x)
            return tracemalloc.get_traced_memory()[1], out.data.nbytes
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_unroll_bits_match_recording(self, shape):
        cell = LstmCell(48, 64, make_rng(40))
        recorded, plain = self.both(cell.unroll, make_rng(41).uniform(-2, 2, shape + (48,)))
        assert (recorded == plain).all()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_attention_bits_match_recording(self, shape):
        head = AttentionHead(64, 64, make_rng(42))
        recorded, plain = self.both(head, make_rng(43).uniform(-2, 2, shape + (64,)))
        assert (recorded == plain).all()

    def test_saturated_unroll_without_warnings(self):
        cell = LstmCell(3, 4, make_rng(27))
        seq = Tensor(make_rng(28).choice([-800.0, 800.0], size=(2, 6, 3)))
        with warnings.catch_warnings(), no_grad():
            warnings.simplefilter("error")
            out = cell.unroll(seq)
        assert np.isfinite(out.data).all()

    def test_unroll_keeps_nothing_per_step(self):
        # recording keeps every step's gates, cells and inputs: about 9x the output
        peak, out = self.peak_bytes(LstmCell(48, 64, make_rng(44)).unroll,
                                    make_rng(45).uniform(-1, 1, (256, 24, 48)))
        assert peak < 2 * out

    def test_attention_frees_q_and_k(self):
        # q, k and v alive at once, with the attended rows, would be about 4x
        # those rows; the pooled output is n = 24 times smaller than them
        x = make_rng(47).uniform(-1, 1, (256, 24, 64))
        peak, _ = self.peak_bytes(AttentionHead(64, 64, make_rng(46)), x)
        attended = x.nbytes  # [B, n, d_k] with d_k = 64 = d, in float64 as x
        assert peak < 3 * attended


class TestFloat32:
    """A layer computes in its parameters' dtype: float32 weights give a
    float32 output and float32 weight gradients even from a float64 input,
    whose gradient stays float64, and the float32 output is the float64
    one rounded to float32 accuracy."""

    @staticmethod
    def run(layer, x, needs_grad):
        leaf = Tensor(x, requires_grad=needs_grad)
        out = layer(leaf)
        (out * out).sum().backward()
        return leaf, out

    def check(self, make, x, needs_grad=True):
        wide_layer, _ = make()
        _, wide = self.run(wide_layer, x, needs_grad)
        layer, params = make()
        for p in params:  # as ``ForecastModel`` casts its parameters
            p.data = p.data.astype(np.float32)
        leaf, out = self.run(layer, x, needs_grad)
        assert out.data.dtype == np.float32
        np.testing.assert_allclose(out.data, wide.data, rtol=1e-4, atol=1e-5)
        assert leaf.data.dtype == np.float64
        assert leaf.grad.dtype == np.float64 if needs_grad else leaf.grad is None
        for p in params:
            assert p.data.dtype == np.float32 and p.grad.dtype == np.float32

    def test_lstm(self):
        def make():
            cell = LstmCell(5, 4, make_rng(60))
            return cell.unroll, list(cell.parameters().values())

        self.check(make, make_rng(61).uniform(-2, 2, (3, 7, 5)))

    def test_attention(self):
        def make():
            head = AttentionHead(5, 4, make_rng(62))
            return head, list(head.parameters().values())

        self.check(make, make_rng(63).uniform(-2, 2, (3, 7, 5)))

    def test_conv_stack(self):
        def make():
            convs = [conv_weights(5, 2, k, make_rng(64 + k)) for k in (1, 3, 5)]
            return (lambda x: conv_stack(x, convs)), [p for c in convs for p in c]

        # the convs read raw windows: the leaf needs no gradient
        self.check(make, make_rng(65).uniform(-2, 2, (3, 7, 5)), needs_grad=False)


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
    "conv1d": lambda: conv_stack(Tensor(np.zeros((5, 3))), (conv_weights(3, 2, 3, make_rng()),)),
    "unroll": lambda: LstmCell(3, 4, make_rng()).unroll(Tensor(np.zeros((5, 3)))),
    "attention": lambda: AttentionHead(3, 2, make_rng())(Tensor(np.zeros((5, 3)))),
    "dense": lambda: Dense(3, 2, make_rng())(Tensor(np.zeros(3))),
    "step": lambda: lstm_step(LstmCell(3, 4, make_rng()),
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
        bias = cell.W.data[:, -1]  # the column that multiplies the constant 1
        np.testing.assert_array_equal(bias[5:10], np.ones(5))
        np.testing.assert_array_equal(bias[:5], np.zeros(5))

    def test_lstm_weight_is_four_ordered_draws(self):
        # i, f, o, C drawn in that order, as a seed always gave them
        cell = LstmCell(3, 5, make_rng(70))
        rng = make_rng(70)
        draws = [glorot_uniform(rng, (5, 8), 8, 5).data for _ in range(4)]
        bias = np.repeat([0.0, 1.0, 0.0, 0.0], 5)[:, None]
        expected = np.concatenate([np.concatenate(draws), bias], axis=1)
        assert cell.W.shape == (20, 9)
        assert (cell.W.data == expected).all()
        assert cell.parameters() == {"W": cell.W}

    def test_attention_weight_is_three_ordered_draws(self):
        # Q, K, V drawn in that order, side by side
        head = AttentionHead(6, 4, make_rng(71))
        rng = make_rng(71)
        draws = [glorot_uniform(rng, (6, 4), 6, 4).data for _ in range(3)]
        assert head.W.shape == (6, 12)
        assert (head.W.data == np.concatenate(draws, axis=1)).all()
        assert head.parameters() == {"W": head.W}
