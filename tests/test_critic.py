import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopac import critic as cr
from sopac.autodiff import ParamSet, ShapeError
from sopac.envs import make_env

from reference import comacc_q


def zero_params(in_width, out_width):
    rng = np.random.default_rng(0)
    params = cr.critic_init(rng, in_width, out_width, hidden=(8, 8))
    return ParamSet({k: np.zeros_like(v.data) for k, v in params.items()})


def random_inputs(rng, n=2, m=3, s_w=4, z_w=3):
    state = rng.standard_normal(s_w)
    obs = rng.standard_normal((n, z_w))
    prev = rng.integers(m, size=n)
    joint = rng.integers(m, size=n)
    return state, obs, prev, joint


class TestLayouts:
    def test_widths(self):
        assert cr.centralv_layout(7).width == 7
        assert cr.coma_layout(4, 3, 2, 5).width == 4 + 3 + 10 + 10 + 2
        assert cr.comacc_layout(4, 3, 2, 5).width == 4 + 6 + 10 + 10

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(1)
        layout = cr.comacc_layout(4, 3, 2, 5)
        parts = {name: rng.standard_normal(width) for name, width in layout.fields}
        vec = layout.pack(**parts)
        assert vec.shape == (layout.width,)
        for name, sl in layout.slices().items():
            assert np.array_equal(vec[sl], parts[name])

    def test_pack_rejects_wrong_fields_and_widths(self):
        layout = cr.centralv_layout(3)
        with pytest.raises(ShapeError):
            layout.pack(state=np.zeros(3), extra=np.zeros(1))
        with pytest.raises(ShapeError):
            layout.pack(state=np.zeros(4))

    def test_field_order_is_fixed(self):
        layout = cr.coma_layout(4, 3, 2, 5)
        assert [name for name, _ in layout.fields] == [
            "state", "obs", "prev_joint", "joint_others", "agent_id",
        ]


class TestJointEncodings:
    def test_joint_one_hot(self):
        vec = cr.joint_one_hot(np.array([1, 0]), m=3)
        assert np.array_equal(vec, [0, 1, 0, 1, 0, 0])

    def test_joint_one_hot_with_leading_dims(self):
        actions = np.array([[[1, 0], [2, 2]]])
        out = cr.joint_one_hot(actions, m=3)
        assert out.shape == (1, 2, 6)
        assert np.array_equal(out[0, 1], [0, 0, 1, 0, 0, 1])

    def test_mask_own_block(self):
        vec = cr.joint_one_hot(np.array([1, 0]), m=3)
        masked = cr.mask_own_block(vec, agent=0, m=3)
        assert np.array_equal(masked, [0, 0, 0, 1, 0, 0])
        assert np.array_equal(vec, [0, 1, 0, 1, 0, 0])  # original untouched


def v_value(params, state):
    layout = cr.centralv_layout(np.size(state))
    return cr.critic_forward(params, cr.encode(layout, state, None, None, None)[None]).data[0, 0]


def step_values(params, layout, state, obs, prev, joint):
    """Counterfactual values of one ``encode``d step."""
    return cr.counterfactual_values(params, layout, cr.encode(layout, state, obs, prev, joint))


def rows_per_step(kind, n, m, steps=3):
    """Critic input rows that ``counterfactual_values`` forwards per step,
    read by wrapping ``critic_forward``."""
    rng = np.random.default_rng(n * 100 + m)
    layout = cr.layout_for(kind, 4, 3, n, m)
    params = cr.critic_init(rng, layout.width, m if kind == "coma" else 1, hidden=(4, 4))
    inputs = cr.encode(layout, rng.standard_normal((steps, 4)),
                       rng.standard_normal((steps, n, 3)),
                       rng.integers(m, size=(steps, n)), rng.integers(m, size=(steps, n)))
    values, calls = forwarded_rows(params, layout, inputs)
    assert values.shape == (steps, n, m) and len(calls) == 1
    return len(calls[0]) / steps


def forwarded_rows(params, layout, inputs, needed=None):
    """``counterfactual_values`` and the input rows of each ``critic_forward``
    it makes."""
    calls = []
    forward = cr.critic_forward

    def counted(params, rows):
        calls.append(rows.copy())
        return forward(params, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cr, "critic_forward", counted)
        values = cr.counterfactual_values(params, layout, inputs, needed)
    return values, calls


class TestVValue:
    def test_zero_weight_critic_returns_zero(self):
        params = zero_params(4, 1)
        assert v_value(params, np.random.default_rng(0).standard_normal(4)) == 0.0

    def test_identical_states_identical_values(self):
        rng = np.random.default_rng(2)
        params = cr.critic_init(rng, 4, 1, hidden=(8, 8))
        s = rng.standard_normal(4)
        assert v_value(params, s) == v_value(params, s.copy())

    def test_width_mismatch_rejected(self):
        params = zero_params(4, 1)
        with pytest.raises(ShapeError):
            v_value(params, np.zeros(5))


class TestComaCritic:
    def test_zero_weight_critic_gives_zero_row(self):
        n, m = 2, 3
        layout = cr.coma_layout(4, 3, n, m)
        params = zero_params(layout.width, m)
        rng = np.random.default_rng(3)
        state, obs, prev, joint = random_inputs(rng, n, m)
        assert np.array_equal(step_values(params, layout, state, obs, prev, joint),
                              np.zeros((n, m)))

    def test_taken_action_estimates_disagree_across_agents(self):
        # with differing observations the per-agent estimates of the same
        # joint action generally differ; demand it on >= 95 of 100 draws
        n, m = 2, 3
        layout = cr.coma_layout(4, 3, n, m)
        disagreements = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            params = cr.critic_init(rng, layout.width, m, hidden=(8, 8))
            state, obs, prev, joint = random_inputs(rng, n, m)
            q = step_values(params, layout, state, obs, prev, joint)[np.arange(n), joint]
            disagreements += q[0] != q[1]
        assert disagreements >= 95

    def test_identical_inputs_give_identical_outputs(self):
        # strip the differing fields (ids, per-agent obs masking): two agents
        # packing the same vector see the same network output
        rng = np.random.default_rng(4)
        no_id_layout = cr.CriticInputLayout(
            "coma-noid", (("state", 4), ("obs", 3), ("prev_joint", 6), ("joint_others", 6)),
        )
        params = cr.critic_init(rng, no_id_layout.width, 3, hidden=(8, 8))
        shared_obs = rng.standard_normal(3)
        vec = no_id_layout.pack(
            state=rng.standard_normal(4),
            obs=shared_obs,
            prev_joint=cr.joint_one_hot(np.array([0, 0]), 3),
            joint_others=np.zeros(6),
        )
        out_agent1 = cr.critic_forward(params, vec.reshape(1, -1)).data
        out_agent2 = cr.critic_forward(params, vec.reshape(1, -1)).data
        assert np.array_equal(out_agent1, out_agent2)


class TestComaCCCritic:
    def test_zero_weight_critic_returns_zero(self):
        n, m = 2, 3
        layout = cr.comacc_layout(4, 3, n, m)
        params = zero_params(layout.width, 1)
        rng = np.random.default_rng(5)
        state, obs, prev, joint = random_inputs(rng, n, m)
        assert comacc_q(params, layout, state, obs, prev, joint) == 0.0
        assert np.array_equal(step_values(params, layout, state, obs, prev, joint),
                              np.zeros((n, m)))

    def test_same_joint_action_same_value_for_any_requester(self):
        n, m = 2, 3
        layout = cr.comacc_layout(4, 3, n, m)
        rng = np.random.default_rng(6)
        params = cr.critic_init(rng, layout.width, 1, hidden=(8, 8))
        state, obs, prev, joint = random_inputs(rng, n, m)
        values = [
            comacc_q(params, layout, state, obs, prev, joint)
            for _agent in range(n)
        ]
        assert values[0] == values[1]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_table_equals_looped_calls_bit_exactly(self, seed):
        n, m = 2, 3
        layout = cr.comacc_layout(4, 3, n, m)
        rng = np.random.default_rng(seed)
        params = cr.critic_init(rng, layout.width, 1, hidden=(8, 8))
        state, obs, prev, joint = random_inputs(rng, n, m)
        table = step_values(params, layout, state, obs, prev, joint)
        for a in range(n):
            for u in range(m):
                counter = joint.copy()
                counter[a] = u
                assert table[a, u] == comacc_q(params, layout, state, obs, prev, counter)

    def test_taken_entry_identical_for_every_agent(self):
        n, m = 3, 4
        layout = cr.comacc_layout(4, 3, n, m)
        rng = np.random.default_rng(7)
        params = cr.critic_init(rng, layout.width, 1, hidden=(8, 8))
        state = rng.standard_normal(4)
        obs = rng.standard_normal((n, 3))
        joint = rng.integers(m, size=n)
        table = step_values(params, layout, state, obs, np.full(n, -1), joint)
        taken = table[np.arange(n), joint]
        assert taken[0] == taken[1] == taken[2]

    def test_single_agent_table_is_q_over_own_actions(self):
        n, m = 1, 4
        layout = cr.comacc_layout(4, 3, n, m)
        rng = np.random.default_rng(8)
        params = cr.critic_init(rng, layout.width, 1, hidden=(8, 8))
        state = rng.standard_normal(4)
        obs = rng.standard_normal((1, 3))
        first = np.full(1, -1)
        table = step_values(params, layout, state, obs, first, [2])
        assert table.shape == (1, m)
        for u in range(m):
            assert table[0, u] == comacc_q(params, layout, state, obs, first, [u])


class TestNeededEntries:
    """A ``needed`` mask forwards only the rows of its entries, gives those
    entries the bits of the unmasked table, and every other entry +0.0."""

    @pytest.mark.parametrize("mask", ["random", "all", "none"])
    @pytest.mark.parametrize("n, m", [(2, 3), (2, 5), (3, 3), (3, 5)])
    @pytest.mark.parametrize("kind", ["coma", "coma-cc"])
    def test_needed_entries_equal_the_unmasked_table(self, kind, n, m, mask):
        rng = np.random.default_rng(10 * n + m)
        layout = cr.layout_for(kind, 4, 3, n, m)
        params = cr.critic_init(rng, layout.width, m if kind == "coma" else 1, hidden=(16, 16))
        lead = (4, 3)
        inputs = cr.encode(layout, rng.standard_normal((*lead, 4)),
                           rng.standard_normal((*lead, n, 3)),
                           rng.integers(-1, m, size=(*lead, n)), rng.integers(m, size=(*lead, n)))
        needed = {"random": rng.random((*lead, n, m)) < 0.6,
                  "all": np.ones((*lead, n, m), dtype=bool),
                  "none": np.zeros((*lead, n, m), dtype=bool)}[mask]
        table, [full_rows] = forwarded_rows(params, layout, inputs)
        values, [rows] = forwarded_rows(params, layout, inputs, needed)
        assert values.shape == table.shape == (*lead, n, m)
        assert np.array_equal(values[needed].view(np.int64), table[needed].view(np.int64))
        assert (values[~needed].view(np.int64) == 0).all()
        if kind == "coma":
            expected = full_rows.reshape(*lead, n, -1)[needed.any(axis=-1)]
        else:
            expected = full_rows.reshape(*lead, n, m, -1)[needed]
        assert rows.shape == (len(expected), layout.width)
        assert np.array_equal(rows, expected)


class TestCounterfactualMemory:
    @staticmethod
    def benchmark_pass(needed_share):
        """Peak traced bytes of one coma-cc pass over an (8, 20) batch of the
        5x5 capture shape, with a random share of its entries needed, or all
        of them by default."""
        spec = make_env("capture", {"side": 5, "horizon": 20}).spec
        n, m = spec.n_agents, spec.n_actions
        layout = cr.comacc_layout(spec.state_width, spec.obs_width, n, m)
        rng = np.random.default_rng(21)
        params = cr.critic_init(rng, layout.width, 1)
        inputs = cr.encode(layout, rng.standard_normal((8, 20, spec.state_width)),
                           rng.standard_normal((8, 20, n, spec.obs_width)),
                           rng.integers(m, size=(8, 20, n)), rng.integers(m, size=(8, 20, n)))
        needed = None if needed_share is None else rng.random((8, 20, n, m)) < needed_share
        tracemalloc.start()
        try:
            values = cr.counterfactual_values(params, layout, inputs, needed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (8, 20, n, m) and layout.width == 107
        return peak

    def test_benchmark_batch_peaks_under_three_mib(self):
        """All 1600 rows of the pass. Blocked, its temporaries stay far below
        the 6 MiB that one unblocked forward of those rows peaks at."""
        peak = self.benchmark_pass(None)
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_masked_pass_peaks_under_three_mib(self):
        """About two thirds of the rows, the share training forwards."""
        peak = self.benchmark_pass(0.67)
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestInputCounting:
    def test_coma_needs_one_input_per_agent(self):
        assert rows_per_step("coma", 5, 10) == 5

    def test_comacc_needs_one_input_per_agent_action_pair(self):
        assert rows_per_step("coma-cc", 5, 10) == 50

    @given(st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_ratio_is_action_count_for_all_agent_counts(self, n, m):
        assert rows_per_step("coma-cc", n, m) == m * rows_per_step("coma", n, m)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            cr.layout_for("qmix", 4, 3, 2, 3)
        with pytest.raises(ValueError):
            cr.counterfactual_values(zero_params(4, 1), cr.centralv_layout(4), np.zeros(4))
