import operator
import re
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import assert_gradients_match, max_relative_error, numerical_grad
from metroflow.errors import DimensionError, NumericError, UsageError
from metroflow.tensor import Tensor, matmul, no_grad
from reference import block, concat, mean, sigmoid, softmax, tanh


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal((eye @ m).data, m.data)

    def test_row_times_column(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_grad_matches_finite_differences(self):
        # frozen oracle value: d sum(A@B) / dA at A=[[1,1]], B=[[2],[5]] is [[2,5]]
        grads = assert_gradients_match(
            lambda a, b: matmul(a, b).sum(), [[[1.0, 1.0]], [[2.0], [5.0]]]
        )
        np.testing.assert_allclose(grads[0], [[2.0, 5.0]], atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        # inner extents differ, a batched operand with a matrix, two batched operands
        for a, b in (((2, 3), (2, 3)), ((3, 4, 5), (5, 2)), ((2, 3, 4), (2, 4, 3))):
            with pytest.raises(DimensionError, match=re.escape(f"{a} x {b}")):
                matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).item() == 0.5
        # far from zero it saturates to exact 0 and 1 without overflow warnings
        x = Tensor([-800.0, -40.0, 40.0, 800.0], requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(x)
            out.sum().backward()
        assert out.data[0] == 0.0 and out.data[3] == 1.0
        np.testing.assert_allclose(out.data[1:3], [np.exp(-40.0), 1.0], rtol=1e-15)
        assert np.isfinite(x.grad).all()

    def test_tanh_gradient_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        tanh(x).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0], atol=1e-15)

    def test_incompatible_shapes_rejected(self):
        # only equal shapes combine: a Python scalar or a size-1 operand is
        # rejected too, since expand is the only broadcast
        three = Tensor(np.zeros(3), requires_grad=True)
        cases = ((three, Tensor(np.zeros(4)), "(3,) and (4,)"),
                 (three, 2.0, "(3,) and ()"),
                 (Tensor(np.ones((1, 1))), three, "(1, 1) and (3,)"),
                 (three, Tensor(np.ones(1)), "(3,) and (1,)"))
        for a, b, shapes in cases:
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(DimensionError, match=re.escape(shapes)):
                    op(a, b)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "tanh", "sigmoid"])
    def test_gradients_random(self, op):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (3, 4))
        fns = {
            "add": lambda x, y: (x + y).sum(),
            "sub": lambda x, y: ((x - y) * (x - y)).sum(),
            "mul": lambda x, y: (x * y).sum(),
            "tanh": lambda x, y: (tanh(x) * y).sum(),
            "sigmoid": lambda x, y: (sigmoid(x) * y).sum(),
        }
        assert_gradients_match(fns[op], [a, b], rtol=1e-4)


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = softmax(Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_frozen_quarter_three_quarters(self):
        out = softmax(Tensor([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = softmax(Tensor(rng.uniform(-5, 5, (4, 6))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)
        assert (out.data > 0).all()

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        st.floats(-100, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, values, shift):
        x = np.array(values)
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + shift)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, (3, 5))
        w = rng.uniform(-2, 2, (3, 5))
        assert_gradients_match(lambda a, b: (softmax(a, axis=-1) * b).sum(), [x, w])

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            softmax(Tensor([np.inf, 0.0]))

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            softmax(Tensor([1.0, 2.0]), axis=2)


class TestBackward:
    def test_linear_case(self):
        w = Tensor([1.0, 1.0, 1.0], requires_grad=True)
        w.sum().backward()
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        (w * w).sum().backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        x = Tensor([1.5], requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_composite_against_finite_differences(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(-2, 2, (3, 3))
        v = rng.uniform(-2, 2, (3, 2))

        def fn(a, b):
            h = tanh(matmul(a, b))
            s = sigmoid(softmax(h, axis=0))
            return (s * s).mean()

        assert_gradients_match(fn, [w, v], rtol=1e-4)

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            (w * w).backward()

    def test_double_backward_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        loss = (w * w).sum()
        loss.backward()
        with pytest.raises(UsageError):
            loss.backward()

    def test_detached_tensor_rejected(self):
        with pytest.raises(UsageError):
            Tensor([1.0]).backward()

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor([0.1], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + Tensor([0.0])
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0])


class TestConcatSlice:
    def test_concat_values(self):
        out = concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_grad_routes_to_sources(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-2, 2, (2, 3))
        b = rng.uniform(-2, 2, (2, 2))
        w = rng.uniform(-2, 2, (2, 5))

        def fn(x, y, z):
            return tanh(concat([x, y], axis=1) * z).sum()

        assert_gradients_match(fn, [a, b, w])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_block_grad_scatters_into_source(self, axis):
        rng = np.random.default_rng(6)
        a = rng.uniform(-2, 2, (4, 6))
        w = rng.uniform(-2, 2, (2, 6) if axis == 0 else (4, 3))

        def fn(x, z):
            return tanh(block(x, axis, 1, 3 + axis) * z).sum()

        grads = assert_gradients_match(fn, [a, w])
        outside = np.delete(grads[0], np.s_[1:3 + axis], axis=axis)
        assert (outside == 0.0).all()

    def test_block_values_and_bounds(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal(block(x, 0, 1, 2).data, [[4, 5, 6, 7]])
        np.testing.assert_array_equal(block(x, 1, 2, 4).data, [[2, 3], [6, 7], [10, 11]])
        for args in ((0, 2, 4), (1, 3, 3), (2, 0, 1)):
            with pytest.raises(DimensionError):
                block(x, *args)

    def test_int_index_grad(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        x[1].sum().backward()
        np.testing.assert_array_equal(x.grad, [[0, 0], [1, 1]])

    def test_concat_extent_mismatch(self):
        with pytest.raises(DimensionError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)

    def test_slice_out_of_bounds(self):
        with pytest.raises(DimensionError):
            Tensor([1.0, 2.0, 3.0])[1:5]
        with pytest.raises(DimensionError):
            Tensor([1.0, 2.0])[4]

    def test_full_slice_and_int_readout_grad(self):
        x = Tensor(np.arange(12, dtype=np.float64).reshape(2, 3, 2), requires_grad=True)
        out = x[:, 2, :]
        np.testing.assert_array_equal(out.data, [[4, 5], [10, 11]])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad[:, 2, :], np.ones((2, 2)))
        assert x.grad.sum() == 4

    @pytest.mark.parametrize("key", [slice(1, 3), slice(None, 2), slice(None, None, 2),
                                     (slice(None), slice(0, 1)), ..., None, True,
                                     np.int64(0)])
    def test_only_ints_and_full_slices(self, key):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((3, 3)))[key]


class TestShapeOps:
    def test_transpose_grad(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-2, 2, (2, 3, 4))
        w = Tensor(rng.uniform(-2, 2, (4, 2, 3)))
        assert_gradients_match(lambda t: tanh(t.transpose((2, 0, 1)) * w).sum(), [x])

    def test_expand_sums_backward(self):
        b = Tensor([1.0, 2.0], requires_grad=True)
        b.expand((3, 2)).sum().backward()
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_expand_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor([1.0, 2.0]).expand((2, 3))

    def test_mean_axis_grad(self):
        # the reference pooling that closes the attention chain, against the oracle
        rng = np.random.default_rng(13)
        x = rng.uniform(-2, 2, (3, 4, 2))
        assert_gradients_match(lambda t: (mean(t, 1) * mean(t, 1)).sum(), [x])


class TestDeterminismAndNoGrad:
    def test_ops_bit_identical(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-2, 2, (4, 4))
        a = softmax(Tensor(x) @ Tensor(x.T), axis=-1).data
        b = softmax(Tensor(x) @ Tensor(x.T), axis=-1).data
        assert (a == b).all()

    def test_no_grad_builds_no_graph(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            out = (w * w).sum()
        assert not out.requires_grad
        with pytest.raises(UsageError):
            out.backward()

    def test_oracle_self_check(self):
        # the finite-difference helper should agree with a hand derivative
        x = Tensor([2.0], requires_grad=True)
        numeric = numerical_grad(lambda t: (t * t).sum(), [x], 0)
        assert max_relative_error(np.array([4.0]), numeric) < 1e-8


class TestDtype:
    """One dtype rule: float32 stays float32, anything else becomes float64,
    mixed operands follow numpy's promotion, and a gradient has its tensor's dtype."""

    @pytest.mark.parametrize("value, dtype", [
        (np.ones(3, np.float32), np.float32),
        (np.ones(3), np.float64),
        (np.ones(3, np.int64), np.float64),
        (np.ones(3, np.float16), np.float64),
        ([1.0, 2.0], np.float64),
        (2, np.float64),
    ])
    def test_constructor(self, value, dtype):
        assert Tensor(value).data.dtype == dtype

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.matmul])
    def test_mixed_operands_promote_and_grads_keep_their_dtype(self, op):
        rng = np.random.default_rng(51)
        a = Tensor(rng.normal(size=(3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        out = op(a, b)
        assert out.data.dtype == np.float64
        out.sum().backward()
        assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64

    def test_float32_graph_stays_float32(self):
        x = Tensor(np.random.default_rng(52).normal(size=(2, 3)).astype(np.float32),
                   requires_grad=True)
        y = concat([x, x], axis=0)
        loss = (mean(softmax(sigmoid(tanh(y)), axis=-1).transpose((1, 0)), 0)
                * Tensor(np.ones(4, np.float32))).sum()
        assert loss.data.dtype == np.float32
        loss.backward()
        assert x.grad.dtype == np.float32

    def test_fan_out_of_float64_gradients_keeps_float32(self):
        # a float32 leaf reached twice by float64 gradients accumulates in float32
        w = Tensor(np.array([1.5, -2.0], np.float32), requires_grad=True)
        c = Tensor(np.array([3.0, 4.0]))
        (w * c + w * c).sum().backward()
        assert w.grad.dtype == np.float32
        np.testing.assert_array_equal(w.grad, [6.0, 8.0])
