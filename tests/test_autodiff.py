import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopac import autodiff as ad
from sopac import harness, learn, verify
from sopac.envs import make_env

from reference import log, params_equal, square, sum_all
from test_fused import assert_bits_equal


def zero_like(params):
    return ad.ParamSet({k: np.zeros_like(v.data) for k, v in params.items()})


def gru_cell(params, x, h):
    """The next hidden state of one GRU step, through the cell kernel."""
    w, u, b = ([p.data for p in group] for group in ad._gru_gates(params))
    return ad._gru_cell([ad._rowwise(x, wg) for wg in w], h, u, b)[-1]


class TestMlp:
    def test_zero_network_outputs_zero(self):
        rng = np.random.default_rng(0)
        params = zero_like(ad.mlp_init(rng, (4, 8, 8, 2)))
        out = ad.mlp_forward(params, rng.standard_normal((5, 4)))
        assert np.array_equal(out.data, np.zeros((5, 2)))

    def test_identity_single_layer_passes_input_through(self):
        params = ad.ParamSet({"w0": np.eye(3), "b0": np.zeros(3)})
        v = np.array([[0.5, 0.0, 2.0]])
        out = ad.mlp_forward(params, v)
        assert np.array_equal(out.data, v)

    def test_shape_mismatch_reports_dimensions(self):
        rng = np.random.default_rng(1)
        params = ad.mlp_init(rng, (4, 8, 1))
        with pytest.raises(ad.ShapeError, match="does not match first layer"):
            ad.mlp_forward(params, rng.standard_normal((2, 5)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        params = ad.mlp_init(rng, (4, 8, 8, 2))
        x = rng.standard_normal((3, 4))

        def loss(p):
            return sum_all(square(ad.mlp_forward(p, x)))

        assert ad.finite_diff_check(loss, params, step=1e-5) < 1e-4

    def test_backward_populates_input_gradient(self):
        rng = np.random.default_rng(3)
        params = ad.mlp_init(rng, (4, 6, 1))
        x = ad.Tensor(rng.standard_normal((2, 4)))
        sum_all(ad.mlp_forward(params, x)).backward()
        assert x.grad is not None and x.grad.shape == (2, 4)
        # finite differences on the input itself
        h = 1e-6
        base = x.data.copy()
        for idx in np.ndindex(*base.shape):
            with ad.no_grad():
                plus, minus = base.copy(), base.copy()
                plus[idx] += h
                minus[idx] -= h
                fd = (
                    float(sum_all(ad.mlp_forward(params, plus)).data)
                    - float(sum_all(ad.mlp_forward(params, minus)).data)
                ) / (2 * h)
            assert abs(fd - x.grad[idx]) < 1e-6 * max(1.0, abs(fd))


class TestGru:
    def test_zero_params_halve_hidden_state(self):
        rng = np.random.default_rng(4)
        params = zero_like(ad.gru_init(rng, 3, 5))
        x = rng.standard_normal((2, 3))
        h = rng.standard_normal((2, 5))
        out = gru_cell(params, x, h)
        assert np.allclose(out, 0.5 * h, atol=1e-15)

    def test_zero_state_with_zero_candidate_weights_stays_zero(self):
        rng = np.random.default_rng(5)
        params = ad.gru_init(rng, 3, 5)
        for name in ("gru.wh", "gru.uh", "gru.bh"):
            params[name].data[...] = 0.0
        out = gru_cell(params, rng.standard_normal((2, 3)), np.zeros((2, 5)))
        assert np.array_equal(out, np.zeros((2, 5)))

    def test_gradients_match_finite_differences_through_x_and_h(self):
        # gru_unroll is the GRU's one differentiable path: over three steps of
        # two rows, the gradients reach the parameters and x directly and
        # through the carried hidden state h.
        rng = np.random.default_rng(7)
        params = ad.merge(ad.gru_init(rng, 3, 5), ad.ParamSet({"x": rng.standard_normal((6, 3))}))

        def loss(p):
            return sum_all(square(ad.gru_unroll(p, p["x"], steps=3)))

        assert ad.finite_diff_check(loss, params) < 1e-4


class TestRmsProp:
    def test_zero_gradient_leaves_params_and_decays_accumulator(self):
        params = ad.ParamSet({"p": np.array([1.0, -2.0])})
        state = ad.OptimizerState(acc={"p": np.array([0.5, 0.5])})
        params["p"].grad = np.zeros(2)
        before = params["p"].data.copy()
        ad.rmsprop_step(params, state, 0.005, 0.99, 1e-5)
        assert np.array_equal(params["p"].data, before)
        assert np.allclose(state.acc["p"], 0.99 * 0.5)

    def test_hand_evaluated_single_step(self):
        params = ad.ParamSet({"p": np.array([1.0])})
        params["p"].grad = np.array([2.0])
        state = ad.rmsprop_init(params)
        ad.rmsprop_step(params, state, 0.005, 0.99, 1e-5)
        assert np.allclose(state.acc["p"], 0.04)
        assert np.allclose(params["p"].data, 1.0 - 0.005 * 2.0 / np.sqrt(0.04 + 1e-5))

    def test_two_steps_descend_a_quadratic(self):
        params = ad.ParamSet({"p": np.array([1.0])})
        state = ad.rmsprop_init(params)
        values = [float(params["p"].data[0] ** 2)]
        for _ in range(2):
            params["p"].grad = 2.0 * params["p"].data
            ad.rmsprop_step(params, state, 0.005, 0.99, 1e-5)
            values.append(float(params["p"].data[0] ** 2))
        assert values[1] < values[0] and values[2] < values[1]

    def test_key_mismatch_rejected(self):
        params = ad.ParamSet({"p": np.zeros(2)})
        state = ad.OptimizerState(acc={"q": np.zeros(2)})
        with pytest.raises(ValueError, match="do not match"):
            ad.rmsprop_step(params, state, 0.005, 0.99, 1e-5)

    def test_in_place_step_bits_at_trainer_shapes(self):
        # every weight shape, every bias shape (each layer's output width),
        # and one parameter the backward never reached
        lr, alpha, eps = 0.005, 0.99, 1e-5
        rng = np.random.default_rng(41)
        shapes = WEIGHT_SHAPES + sorted({(n,) for _, n in WEIGHT_SHAPES})
        params = ad.ParamSet({f"p{i}": rng.standard_normal(shape)
                              for i, shape in enumerate(shapes)})
        params = ad.merge(params, ad.ParamSet({"unreached": rng.standard_normal((3, 4))}))
        state = ad.OptimizerState(acc={k: np.abs(rng.standard_normal(v.data.shape))
                                       * 10.0 ** rng.integers(-8, 3, v.data.shape)
                                       for k, v in params.items()})
        for name, tensor in params.items():
            if name != "unreached":
                tensor.grad = (rng.standard_normal(tensor.data.shape)
                               * 10.0 ** rng.integers(-8, 3, tensor.data.shape))
        before = {k: (v.data.copy(), state.acc[k].copy(), v.grad) for k, v in params.items()}
        ad.rmsprop_step(params, state, lr, alpha, eps)
        for name, (p, acc, g) in before.items():
            if g is None:
                assert_bits_equal(state.acc[name], alpha * acc)
                assert_bits_equal(params[name].data, p)
            else:
                assert_bits_equal(params[name].data,
                            p - (lr * g) / np.sqrt((alpha * acc + ((1.0 - alpha) * g) * g) + eps))
            assert params[name].grad is None

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_zero_gradients_never_change_parameters(self, seed):
        rng = np.random.default_rng(seed)
        params = ad.ParamSet({"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)})
        state = ad.OptimizerState(acc={k: np.abs(rng.standard_normal(v.data.shape))
                                       for k, v in params.items()})
        for _, tensor in params.items():
            tensor.grad = np.zeros_like(tensor.data)
        before = params.copy()
        ad.rmsprop_step(params, state, 0.005, 0.99, 1e-5)
        assert params_equal(params, before)


class TestFiniteDiffCheck:
    def test_linear_loss_has_zero_error(self):
        params = ad.ParamSet({"p": np.array([1.0, 2.0, 3.0])})

        def loss(p):
            return sum_all(p["p"])

        assert ad.finite_diff_check(loss, params) < 1e-10

    def test_quadratic_loss(self):
        params = ad.ParamSet({"p": np.array([0.7, -1.3])})

        def loss(p):
            return sum_all(square(p["p"]))

        assert ad.finite_diff_check(loss, params) < 1e-6

    def test_non_finite_loss_rejected(self):
        params = ad.ParamSet({"p": np.array([0.0])})

        def loss(p):
            return log(p["p"])

        with np.errstate(divide="ignore"), pytest.raises(ad.NumericError):
            ad.finite_diff_check(loss, params)


class TestDeterminismAndBatching:
    def test_forward_is_bit_deterministic(self):
        rng = np.random.default_rng(8)
        params = ad.mlp_init(rng, (6, 16, 16, 3))
        x = rng.standard_normal((10, 6))
        a = ad.mlp_forward(params, x).data
        b = ad.mlp_forward(params, x).data
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_batched_forward_equals_stacked_single_forwards(self, seed, k):
        rng = np.random.default_rng(seed)
        params = ad.mlp_init(rng, (5, 8, 8, 2))
        x = rng.standard_normal((k, 5))
        batched = ad.mlp_forward(params, x).data
        singles = np.vstack([ad.mlp_forward(params, x[i : i + 1]).data for i in range(k)])
        assert np.array_equal(batched, singles)

    def test_batched_gru_equals_stacked_single_steps(self):
        rng = np.random.default_rng(9)
        params = ad.gru_init(rng, 4, 6)
        x = rng.standard_normal((17, 4))
        h = rng.standard_normal((17, 6))
        batched = gru_cell(params, x, h)
        singles = np.vstack([gru_cell(params, x[i : i + 1], h[i : i + 1]) for i in range(17)])
        assert np.array_equal(batched, singles)

    def test_gradient_accumulation_is_reproducible(self):
        rng = np.random.default_rng(10)
        params = ad.mlp_init(rng, (4, 8, 1))
        x = rng.standard_normal((6, 4))

        def grads():
            params.zero_grads()
            sum_all(square(ad.mlp_forward(params, x))).backward()
            return params.grad_set()

        assert params_equal(grads(), grads())


def trainer_weight_shapes(nets=("actor", "critic")) -> list[tuple[int, int]]:
    """(K, N) of every weight matrix of the ``nets`` of the default trainer of
    each env and algorithm, and of the gradient suite's trainers."""
    trainers = []
    for env in harness.ENVS:
        for algo in learn.ALGOS:
            cfg = harness.RunConfig(env=env, algo=algo)
            trainers.append(harness.build_trainer(cfg, make_env(cfg.env, cfg.env_config)))
    rng = np.random.default_rng(0)
    trainers += [verify._check_trainer(rng, algo) for algo in learn.ALGOS]
    return sorted({tensor.data.shape for trainer in trainers
                   for params in (getattr(trainer, net) for net in nets)
                   for _, tensor in params.items() if tensor.data.ndim == 2})


WEIGHT_SHAPES = trainer_weight_shapes()
ROW_COUNTS = (*range(1, 71), 127, 128, 129, 255, 256, 257, 511, 512, 513,
              1023, 1024, 1025, 1600, 2048)
ROW_OFFSETS = (0, 7)


class TestRowExactKernel:
    """The row-exact product picks gemm or stacked gemv from the output width.
    At every shape the trainers use, each row of a stacked call must equal
    the one-row call bit for bit; a BLAS on which gemm is not row-exact at
    these shapes fails here."""

    def test_shapes_reach_both_kernels(self):
        widths = {n for _, n in WEIGHT_SHAPES}
        assert min(widths) < ad._GEMM_MIN_WIDTH <= max(widths)

    @pytest.mark.parametrize("shape", WEIGHT_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_stacked_rows_equal_one_row_calls(self, shape):
        k, n = shape
        rng = np.random.default_rng(1000 * k + n)
        w = rng.uniform(-1.0, 1.0, size=(k, n))
        x = rng.standard_normal((max(ROW_OFFSETS) + max(ROW_COUNTS), k))
        singles = np.vstack([ad._rowwise(x[i : i + 1], w) for i in range(len(x))])
        for offset in ROW_OFFSETS:
            for rows in ROW_COUNTS:
                stacked = ad._rowwise(x[offset : offset + rows], w)
                bad = np.flatnonzero(
                    (stacked.view(np.int64)
                     != singles[offset : offset + rows].view(np.int64)).any(axis=1))
                assert bad.size == 0, (
                    f"{k}x{n}, {rows} rows at offset {offset}: rows {bad[:5]} differ")


ACTOR_SHAPES = trainer_weight_shapes(("actor",))
STEP_COUNTS = (1, 2, 5, 20)
STEP_ROWS = (1, 2, 3, 6, 8, 16, 24, 48)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestStackedStepProducts:
    """The hoisted actor backward takes every product that a per-step tape
    takes per step as one stacked ``np.matmul`` over the (T, R, .) view of
    its rows, and every per-step row sum as one sum over the R axis. At every
    actor weight shape, each step's slice must equal that step's own product
    or sum bit for bit; a BLAS or numpy that folds the stack into one larger
    product fails here."""

    @pytest.mark.parametrize("shape", ACTOR_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_stacked_products_equal_per_step_products(self, shape):
        k, n = shape
        rng = np.random.default_rng(1000 * k + n)
        w = rng.uniform(-1.0, 1.0, size=(k, n))
        for steps in STEP_COUNTS:
            for rows in STEP_ROWS:
                x = rng.standard_normal((steps, rows, k))
                g = rng.standard_normal((steps, rows, n))
                weight_terms = np.matmul(x.transpose(0, 2, 1), g)
                input_terms = np.matmul(g, w.T)
                bias_terms = g.sum(axis=1)
                for t in range(steps):
                    where = f"{k}x{n}, step {t} of {steps}, {rows} rows"
                    assert np.array_equal(bits(weight_terms[t]), bits(x[t].T @ g[t])), where
                    assert np.array_equal(bits(input_terms[t]), bits(g[t] @ w.T)), where
                    assert np.array_equal(bits(bias_terms[t]), bits(g[t].sum(axis=0))), where

    def test_block_sums_equal_per_step_sums(self):
        rng = np.random.default_rng(5)
        for steps in STEP_COUNTS:
            for rows in STEP_ROWS:
                scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(steps * rows, 1))
                x = rng.standard_normal((steps * rows, 1)) * scale
                blocks = x.reshape(steps, -1).sum(axis=1)
                for t in range(steps):
                    one = x[t * rows:(t + 1) * rows].sum()
                    assert np.array_equal(bits(blocks[t]), bits(one)), (steps, rows, t)


BLOCKED_ROWS = (1, 255, 256, 257, 513, 1600)


class TestBlockedForward:
    """With gradients off, ``mlp_forward`` runs more than ``_BLOCK_ROWS`` rows
    one block at a time; every row must equal the taped (unblocked) forward
    and a forward of that row alone, bit for bit. The critics are those of
    the benchmark's 5x5 capture workloads."""

    @pytest.mark.parametrize("algo", ["coma-cc", "coma"])
    def test_blocked_rows_equal_taped_and_single_row_forwards(self, algo):
        cfg = harness.RunConfig(env="capture", env_config={"side": 5, "horizon": 20}, algo=algo)
        params = harness.build_trainer(cfg, make_env(cfg.env, cfg.env_config)).critic
        if algo == "coma-cc":
            assert [params[f"w{i}"].data.shape for i in range(3)] == [
                (107, 128), (128, 128), (128, 1)]
        else:
            assert params["w2"].data.shape[1] == 5  # one head per action
        rng = np.random.default_rng(18)
        x = rng.standard_normal((max(BLOCKED_ROWS), params["w0"].data.shape[0]))
        with ad.no_grad():
            singles = np.vstack([ad.mlp_forward(params, x[i : i + 1]).data
                                 for i in range(len(x))])
        for rows in BLOCKED_ROWS:
            with ad.no_grad():
                blocked = ad.mlp_forward(params, x[:rows])
            taped = ad.mlp_forward(params, x[:rows])
            assert blocked._parents == () and taped._parents != ()
            assert_bits_equal(blocked.data, taped.data)
            assert_bits_equal(blocked.data, singles[:rows])

    def test_only_no_grad_forwards_are_blocked(self, monkeypatch):
        params = ad.mlp_init(np.random.default_rng(19), (6, 16, 16, 3))
        x = np.random.default_rng(20).standard_normal((2 * ad._BLOCK_ROWS + 1, 6))
        calls = []
        linear = ad.linear

        def counted(h, w, b):
            calls.append(ad._data(h).shape[0])
            return linear(h, w, b)

        monkeypatch.setattr(ad, "linear", counted)
        ad.mlp_forward(params, x)
        assert calls == [len(x)] * 3
        calls.clear()
        with ad.no_grad():
            ad.mlp_forward(params, x)
        assert calls == [ad._BLOCK_ROWS] * 6 + [1] * 3


def sequential_sum(terms, last_first):
    """``terms[0] + terms[1] + ...`` one step at a time, or from the last step."""
    order = range(len(terms) - 1, -1, -1) if last_first else range(len(terms))
    total = None
    for t in order:
        total = terms[t] if total is None else np.add(total, terms[t])
    return total


class TestSumSteps:
    """``_sum_steps`` must add steps one at a time. numpy's axis-0 sum does
    not at every shape: it adds (T,), (T, 1) and (T, 1, 1) pairwise from
    T = 9 on. Those are ``learn.policy_loss``'s step sums and the bias terms
    of a width-1 critic head, which keep the loop; wider steps take the
    axis-0 sum."""

    @pytest.mark.parametrize("steps", [9, 16, 20, 1, 2, 33])
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (16, 64), (47, 64), (7, 64), (64,),
                                       (64, 5), (64, 3), (5,), (3,), (64, 64), (2,), (1, 5)],
                             ids=lambda s: "x".join(map(str, s)) or "scalar")
    def test_equals_a_sequential_sum(self, steps, shape):
        """The shapes the trainers pass (the actor's fc1, fc2 and GRU weight
        and bias step sums at the capture and switch widths) and a few
        narrow ones."""
        rng = np.random.default_rng(100 * steps + len(shape))
        size = (steps, *shape)
        for _ in range(20):
            terms = rng.standard_normal(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
            for last_first in (False, True):
                assert np.array_equal(bits(ad._sum_steps(terms, last_first)),
                                      bits(sequential_sum(terms, last_first))), last_first

    @pytest.mark.parametrize("steps", [9, 16, 20, 33])
    def test_transposed_terms_equal_a_sequential_sum(self, steps):
        """numpy adds the steps of a transposed array pairwise, so the loop
        keeps them."""
        rng = np.random.default_rng(steps)
        terms = (rng.standard_normal((64, steps)) * 10.0 ** rng.uniform(-8.0, 8.0, (64, steps))).T
        for last_first in (False, True):
            assert np.array_equal(bits(ad._sum_steps(terms, last_first)),
                                  bits(sequential_sum(terms, last_first))), last_first


class TestParamSet:
    def test_copy_is_independent_and_equal(self):
        rng = np.random.default_rng(11)
        params = ad.mlp_init(rng, (3, 4, 1))
        clone = params.copy()
        assert params_equal(clone, params)
        clone["w0"].data[0, 0] += 1.0
        assert not params_equal(clone, params)

    def test_name_order_is_insertion_order(self):
        params = ad.ParamSet({"z": np.zeros(1), "a": np.zeros(1)})
        assert params.names() == ("z", "a")
