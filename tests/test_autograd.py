import math
import struct
import tracemalloc

import numpy as np
import pytest

from typovec import autograd as ag
from typovec.autograd import Parameter, ShapeError, backward
from typovec.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from typovec.optim import BLOCK, AdamState, adam_step, clip_gradients, global_grad_norm

from oracles import finite_difference_grads, max_relative_error


def logit_loss(logits: ag.Tensor, targets, mask=None) -> ag.Tensor:
    """Cross-entropy of the (B, V) ``logits`` themselves: the output layer
    through an identity projection, which gives the same logits bit for bit."""
    rows, v = logits.value.shape
    mask = np.ones(rows) if mask is None else mask
    return ag.softmax_cross_entropy(logits, targets, mask, ag.constant(np.eye(v)), ag.constant(np.zeros(v)))


class TestForwardOps:
    def test_sigmoid_tanh_identities(self):
        assert float(ag.sigmoid(ag.constant(0.0)).value) == 0.5
        assert float(ag.tanh(ag.constant(0.0)).value) == 0.0

    def test_matmul_identity(self, rng):
        x = rng.normal(size=(3, 5))
        out = ag.matmul(ag.constant(np.eye(3)), ag.constant(x))
        np.testing.assert_array_equal(out.value, x)

    def test_matmul_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ag.matmul(ag.constant(np.zeros((2, 3))), ag.constant(np.zeros((2, 3))))

    def test_add_and_mul_refuse_operands_of_two_shapes(self):
        # no broadcasting: a bias is added at the shape of what it is added to
        for op in (ag.add, ag.mul):
            with pytest.raises(ShapeError, match=rf"{op.__name__}: shapes \(4, 3\) and \(3,\)"):
                op(ag.constant(np.zeros((4, 3))), ag.constant(np.array([1.0, 2.0, 3.0])))

    def test_cross_entropy_uniform_two_logits(self):
        loss = logit_loss(ag.constant(np.zeros((1, 2))), [0])
        assert float(loss.value) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_cross_entropy_masked_rows_drop_out(self):
        logits = ag.constant(np.array([[0.0, 1.0], [5.0, -5.0]]))
        full = logit_loss(logits, np.array([0, 1]))
        masked = logit_loss(logits, np.array([0, 1]), mask=np.array([1.0, 0.0]))
        row0 = logit_loss(ag.constant(np.array([[0.0, 1.0]])), [0])
        assert float(masked.value) == pytest.approx(float(row0.value), rel=1e-12)
        assert float(full.value) > float(masked.value)

    def test_embedding_lookup_and_scatter_grad(self):
        table = Parameter("emb", np.arange(12.0).reshape(4, 3))
        node = table.node()
        out = ag.embedding_lookup(node, np.array([1, 1, 3]))
        backward(ag.reduce_sum(out))
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_embedding_scatter_is_bitwise_np_add_at(self, rng):
        ids = rng.integers(0, 50, size=(30, 80))
        g = rng.normal(size=(30, 80, 16))
        g[3] = -0.0
        out = ag.embedding_lookup(Parameter("emb", rng.normal(size=(50, 16))).node(), ids)
        (got,) = out.vjp(g)
        expect = np.zeros((50, 16))
        np.add.at(expect, ids, g)
        assert got.tobytes() == expect.tobytes()


class TestBackward:
    def test_linear_gradient_is_exact(self):
        w = Parameter("w", np.array([2.0, -1.0, 0.5]))
        x = np.array([3.0, 4.0, 5.0])
        loss = ag.reduce_sum(ag.mul(w.node(), ag.constant(x)))
        backward(loss)
        np.testing.assert_array_equal(w.grad, x)

    def test_constant_loss_has_zero_gradients(self):
        w = Parameter("w", np.ones(3))
        loss = ag.scale(ag.reduce_sum(ag.mul(w.node(), ag.constant(np.zeros(3)))), 1.0)
        backward(loss)
        np.testing.assert_array_equal(w.grad, np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        w = Parameter("w", np.ones(3))
        with pytest.raises(ShapeError, match="scalar"):
            backward(w.node())

    def test_node_added_to_itself_gets_both_gradients(self):
        w = Parameter("w", np.array([1.0, -2.0]))
        node = w.node()
        backward(ag.reduce_sum(ag.add(node, node)))
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])

    def test_gradient_accumulates_across_backward_calls(self):
        w = Parameter("w", np.array([1.0]))
        for _ in range(2):
            backward(ag.reduce_sum(ag.mul(w.node(), ag.constant(np.array([3.0])))))
        np.testing.assert_array_equal(w.grad, [6.0])
        w.zero_grad()
        np.testing.assert_array_equal(w.grad, [0.0])

    def test_random_graph_matches_finite_differences(self, rng):
        a = Parameter("a", rng.uniform(-1, 1, size=(3, 4)))
        b = Parameter("b", rng.uniform(-1, 1, size=(4, 3)))  # the slice drops its last column
        c = Parameter("c", rng.uniform(-1, 1, size=(3, 2)))
        targets = np.array([0, 1, 0])

        def loss():
            z = ag.add(ag.slice_(ag.matmul(a.node(), b.node()), np.s_[:, :2]), c.node())
            mixed = ag.mul(ag.sigmoid(z), ag.tanh(z))
            return logit_loss(ag.add(mixed, ag.scale(z, 0.1)), targets)

        backward(loss())
        fd = finite_difference_grads(lambda: float(loss().value), [a, b, c])
        for p in (a, b, c):
            assert max_relative_error(p.grad, fd[p.name]) <= 1e-4


class TestDropout:
    """Inverted dropout, which runs inside the embedding lookup."""

    def test_rate_zero_is_identity(self, rng):
        table = Parameter("emb", rng.normal(size=(6, 5)))
        ids = np.array([0, 3, 3, 5])
        drop_rng = np.random.default_rng(3)
        state = drop_rng.bit_generator.state
        out = ag.embedding_lookup(table.node(), ids, 0.0, drop_rng)
        assert out.value.tobytes() == ag.embedding_lookup(table.node(), ids).value.tobytes()
        assert drop_rng.bit_generator.state == state

    def test_expected_value_matches_input(self):
        rng = np.random.default_rng(5)
        table = ag.constant(np.full((1, 10), 3.0))
        ids = np.zeros(10, dtype=np.int64)
        total = np.zeros((10, 10))
        n = 10_000
        for _ in range(n):
            total += ag.embedding_lookup(table, ids, 0.5, rng).value
        mean = total / n
        assert abs(float(mean.mean()) - 3.0) / 3.0 < 0.02
        assert np.all(np.abs(mean - 3.0) / 3.0 < 0.08)

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError, match="dropout rate"):
            ag.embedding_lookup(ag.constant(np.ones((2, 3))), [0, 1], 1.0, rng)

    def test_gradient_uses_the_same_mask(self):
        rng = np.random.default_rng(7)
        w = Parameter("w", np.ones((1000, 1)))
        out = ag.embedding_lookup(w.node(), np.arange(1000), 0.5, rng)
        backward(ag.reduce_sum(out))
        np.testing.assert_array_equal(w.grad, out.value)  # every row is a one, looked up once

    def test_in_place_output_is_bitwise_the_out_of_place_one(self, rng):
        # the mask multiplies the looked-up rows in place; the product and its gradient are
        # bitwise those of a plain lookup times a mask drawn from the same seed
        table = rng.normal(size=(9, 7))
        ids = rng.integers(0, 9, size=40)
        weights = rng.normal(size=(40, 7))
        keep = 1.0 - 0.3
        mask = (np.random.default_rng(9).random((40, 7)) < keep) / keep
        fused = Parameter("fused", table)
        out = ag.embedding_lookup(fused.node(), ids, 0.3, np.random.default_rng(9))
        backward(ag.reduce_sum(ag.mul(out, ag.constant(weights))))
        plain = Parameter("plain", table)
        masked = ag.mul(ag.embedding_lookup(plain.node(), ids), ag.constant(mask))
        backward(ag.reduce_sum(ag.mul(masked, ag.constant(weights))))
        assert out.value.tobytes() == masked.value.tobytes()
        assert fused.grad.tobytes() == plain.grad.tobytes()


def with_grad(p: Parameter, grad) -> Parameter:
    """``p`` with ``grad`` copied into its gradient buffer, as backward leaves it."""
    p.grad[...] = grad
    return p


class TestAdam:
    def test_first_step_magnitude(self):
        p = with_grad(Parameter("p", np.array([1.0])), [0.3])
        state = AdamState()
        adam_step([p], lr=0.001, state=state)
        assert state.t == 1
        assert abs(1.0 - p.value[0]) == pytest.approx(0.001, rel=1e-6)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        adam_step([p], lr=0.1, state=AdamState())
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_bitwise_deterministic(self):
        results = []
        for _ in range(2):
            p = with_grad(Parameter("p", np.array([0.7, -0.3])), [0.11, -0.52])
            state = AdamState()
            for _ in range(2):
                adam_step([p], lr=0.01, state=state)
            results.append(p.value.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_moments_are_allocated_once_and_follow_the_formula(self, rng):
        # the long parameter spans three whole blocks of the update and a ragged tail
        for shape in [(3, 4), (3 * BLOCK + 5,)]:
            p = Parameter("p", rng.normal(size=shape))
            theta, m, v = p.value.copy(), np.zeros(shape), np.zeros(shape)
            state = AdamState()
            for t in range(1, 4):
                g = with_grad(p, rng.normal(size=shape)).grad.copy()
                adam_step([p], lr=0.01, state=state)
                if t == 1:
                    moments, scratch = (state.m["p"], state.v["p"]), state.scratch
                assert state.m["p"] is moments[0] and state.v["p"] is moments[1]
                assert state.scratch[0] is scratch[0] and state.scratch[1] is scratch[1]
                assert scratch[0].size == min(BLOCK, p.value.size)
                m = 0.9 * m + (1.0 - 0.9) * g
                v = 0.999 * v + (1.0 - 0.999) * (g * g)
                theta = theta - 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
                assert p.value.tobytes() == theta.tobytes(), shape

    def test_non_finite_gradient_names_parameter(self):
        p = with_grad(Parameter("badparam", np.array([1.0])), [np.nan])
        with pytest.raises(ValueError, match="badparam"):
            adam_step([p], lr=0.01, state=AdamState())

    def test_non_contiguous_value_is_rejected(self, rng):
        # the update writes through a flat view of the value, which for a transposed array is a copy
        p = with_grad(Parameter("p", rng.normal(size=(3, 4))), 1.0)
        p.value = p.value.T
        before = p.value.copy()
        with pytest.raises(ValueError, match="p: value is not C-contiguous"):
            adam_step([p], lr=0.01, state=AdamState())
        assert p.value.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad, match", [(np.array([np.nan, 1.0]), "non-finite gradient for parameter 'b'")],
                             ids=["nan"])
    def test_rejected_step_changes_nothing(self, bad, match):
        # every gradient is checked before the first parameter, moment or counter moves
        a = with_grad(Parameter("a", np.array([1.0])), 0.5)
        b = with_grad(Parameter("b", np.array([2.0, 3.0])), [0.1, 0.2])
        state = AdamState()
        adam_step([a, b], lr=0.1, state=state)
        before = [x.copy() for x in (a.value, b.value, state.m["a"], state.v["a"], state.m["b"], state.v["b"])]
        with_grad(b, bad)
        with pytest.raises(ValueError, match=match):
            adam_step([a, b], lr=0.1, state=state)
        assert state.t == 1
        after = (a.value, b.value, state.m["a"], state.v["a"], state.m["b"], state.v["b"])
        assert all(x.tobytes() == y.tobytes() for x, y in zip(before, after))

    def test_first_step_rejected_allocates_no_moments(self):
        a = with_grad(Parameter("a", np.array([1.0])), 0.5)
        b = with_grad(Parameter("b", np.array([2.0])), np.inf)
        state = AdamState()
        with pytest.raises(ValueError, match="'b'"):
            adam_step([a, b], lr=0.1, state=state)
        assert (a.value[0], state.t, state.m, state.v) == (1.0, 0, {}, {})

    def test_state_holds_two_moments_and_one_block_pair(self, rng):
        # the update's scratch is one block-sized pair for all parameters, not two arrays per parameter
        params = [Parameter("long", rng.normal(size=3 * BLOCK + 5)), Parameter("w", rng.normal(size=(40, 30)))]
        state = AdamState()
        for _ in range(2):
            adam_step([with_grad(p, rng.normal(size=p.value.shape)) for p in params], lr=0.01, state=state)
        held = sum(a.nbytes for a in (*state.m.values(), *state.v.values(), *state.scratch))
        assert held <= 2 * sum(p.value.nbytes for p in params) + 2 * BLOCK * 8

    def test_moment_invariants(self, rng):
        p = Parameter("p", rng.normal(size=(3, 3)))
        state = AdamState()
        for _ in range(5):
            adam_step([with_grad(p, rng.normal(size=(3, 3)))], lr=0.01, state=state)
        assert state.t == 5
        assert np.all(state.v["p"] >= 0)
        assert state.m["p"].shape == p.value.shape

    def test_clipping_rescales_to_max_norm(self):
        p1 = Parameter("a", np.zeros(3))
        p2 = Parameter("b", np.zeros(4))
        p1.grad = np.full(3, 3.0)
        p2.grad = np.full(4, 4.0)
        before = global_grad_norm([p1, p2])
        clip_gradients([p1, p2], 5.0)
        assert before > 5.0
        assert global_grad_norm([p1, p2]) == pytest.approx(5.0, rel=1e-12)

    def test_clipping_below_threshold_is_identity(self):
        p = Parameter("a", np.zeros(3))
        p.grad = np.array([0.1, 0.0, 0.0])
        clip_gradients([p], 5.0)
        np.testing.assert_array_equal(p.grad, [0.1, 0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_norm_is_returned_with_gradients_unscaled(self):
        # scaling by max_norm / inf = 0 would turn inf into nan (with a numpy warning)
        p1, p2 = Parameter("a", np.zeros(3)), Parameter("b", np.zeros(2))
        p1.grad = np.array([1.0, np.inf, -2.0])
        p2.grad = np.array([3.0, 4.0])
        assert clip_gradients([p1, p2], 5.0) == np.inf
        np.testing.assert_array_equal(p1.grad, [1.0, np.inf, -2.0])
        np.testing.assert_array_equal(p2.grad, [3.0, 4.0])


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        tensors = {
            "embed": rng.normal(size=(7, 3)),
            "bias": rng.normal(size=(4,)),
            "scalarish": np.array(2.5),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tensors, seed=42)
        loaded, seed = load_checkpoint(path)
        assert seed == 42
        assert set(loaded) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_load_holds_each_tensor_once(self, tmp_path, rng):
        # the file's bytes go straight into the arrays returned: no whole-file buffer, slice or copy
        tensors = {"embed": rng.normal(size=(1000, 1000)), "bias": rng.normal(size=(1000,))}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tensors, seed=1)
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * sum(a.nbytes for a in tensors.values())
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation_at_every_offset_is_a_typed_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)}, seed=1)
        data = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(CheckpointError, match="cut.ckpt"):
                load_checkpoint(cut)
        cut.write_bytes(data + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(cut)

    @pytest.mark.parametrize("dims", [(0, 2**64 - 1), (0, 2**62)])
    def test_empty_tensor_with_a_dim_no_array_can_take_is_a_typed_error(self, tmp_path, dims):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"TVCK" + struct.pack("<IqI", 1, 0, 1) + struct.pack("<I", 1) + b"w"
                         + struct.pack("<I2Q", 2, *dims))
        with pytest.raises(CheckpointError, match="model.ckpt: tensor 'w' has no possible shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value, match", [
        pytest.param("w", np.array([1.0, np.nan]), "non-finite", id="nan-value"),
        pytest.param("\udcff", np.ones(2), "not UTF-8", id="0xff-in-name"),
    ])
    def test_bad_tensor_is_a_typed_error_naming_the_file(self, tmp_path, name, value, match):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"TVCK" + struct.pack("<IqI", 1, 0, 1)
                         + struct.pack("<I", 1) + name.encode("utf-8", "surrogateescape")
                         + struct.pack("<IQ", 1, 2) + value.astype("<f8").tobytes())
        with pytest.raises(CheckpointError, match=f"model.ckpt: .*{match}"):
            load_checkpoint(path)
