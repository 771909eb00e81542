"""The fused autodiff nodes against the composed graphs they replace.

``linear``, ``masked_epsilon_probs`` and the two losses
(``learn.critic_loss_tensor`` and ``learn.policy_loss``) each record one
tape node with a hand-written backward. These tests build the same
computations from the elementwise ops (``reference.py``) and require every
forward value and every gradient to be identical down to the bit, compared
as int64 views. The
rollout's forward-only actor step, ``actor_cell``, must match the composed
cell's forward bits and record nothing. ``gru_unroll``, the hoisted actor
replay, is pinned against a per-step tape of the composed cell by
``test_learn.py::TestHoistedUnroll``.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from sopac import autodiff as ad
from sopac import learn, rollout
from sopac.envs import SwitchGame
from sopac.learn import Batch, LearnConfig, Trainer, critic_batch_inputs
from sopac.policy import ActorConfig, actor_cell, actor_init, masked_epsilon_probs
from sopac.verify import random_episode

from reference import (
    composed_critic_loss,
    composed_gru_step,
    composed_masked_epsilon_probs,
    composed_mlp_forward,
    composed_policy_loss,
)

DIMS = dict(n=2, m=4, state_width=5, obs_width=3, gru_hidden=7,
            critic_hidden=(9, 9), batch=3, max_len=5)


def assert_bits_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_each_bits_equal(fused: dict, composed: dict):
    assert fused.keys() == composed.keys()
    for name in fused:
        assert fused[name] is not None, name
        assert_bits_equal(fused[name], composed[name])


@contextmanager
def composed_nodes():
    """Route the critic's dense stacks (``ad.mlp_forward``), the masked
    epsilon-softmax and the two losses that ``learn`` reads through the
    composed graphs.

    The actor replay's ``linear`` and ``gru_unroll`` nodes are not routed, so
    under it the actor differs from the fused run only in the epsilon-softmax;
    ``test_learn.py::TestHoistedUnroll`` pins the hoisted actor against a
    per-step tape of the composed cell.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "mlp_forward", composed_mlp_forward)
        mp.setattr(learn, "masked_epsilon_probs", composed_masked_epsilon_probs)
        mp.setattr(learn, "critic_loss_tensor", composed_critic_loss)
        mp.setattr(learn, "policy_loss", composed_policy_loss)
        yield


def both(run):
    """``run()`` with the fused nodes, then with the composed graphs."""
    fused = run()
    with composed_nodes():
        composed = run()
    return fused, composed


def param_grads(params: ad.ParamSet) -> dict:
    return {name: t.grad for name, t in params.items()}


def tape_nodes(out: ad.Tensor) -> int:
    """Nodes with a backward closure reachable from ``out``."""
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


class TestSingleNodes:
    @pytest.mark.parametrize("rows", [1, 6])
    def test_dense_stack(self, rows):
        def run():
            rng = np.random.default_rng(rows)
            params = ad.mlp_init(rng, (4, 8, 8, 3))
            x = ad.Tensor(rng.standard_normal((rows, 4)))
            out = ad.mlp_forward(params, x)
            out.backward(rng.standard_normal(out.shape))
            return out.data, dict(param_grads(params), x=x.grad)

        (fused_out, fused), (composed_out, composed) = both(run)
        assert_bits_equal(fused_out, composed_out)
        assert_each_bits_equal(fused, composed)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_gru_cell(self, rows):
        # The acting step is forward only: its GRU state and logits against
        # the composed cell's forward
        rng = np.random.default_rng(10 + rows)
        params = actor_init(rng, ActorConfig(obs_width=1, n_agents=1, n_actions=2,
                                             gru_hidden=6))
        x, h = rng.standard_normal((rows, 4)), rng.standard_normal((rows, 6))
        logits, h_next = actor_cell(params, x, h)
        z = ad.relu(composed_mlp_forward(params, x, prefix="fc1."))
        composed = composed_gru_step(params, z, h)
        assert_bits_equal(h_next, composed.data)
        assert_bits_equal(logits, composed_mlp_forward(params, composed, prefix="fc2.").data)

    @pytest.mark.parametrize("per_row_epsilon", [False, True])
    def test_masked_epsilon_softmax(self, per_row_epsilon):
        def run(probs_fn):
            rng = np.random.default_rng(20)
            logits = ad.Tensor(rng.standard_normal((6, 5)) * 3.0)
            avail = (rng.uniform(size=(6, 5)) < 0.6).astype(np.float64)
            avail[:, 0] = 1.0
            eps = rng.uniform(0.0, 1.0, size=(6, 1)) if per_row_epsilon else 0.3
            out = probs_fn(logits, avail, eps)
            out.backward(rng.standard_normal(out.shape))
            return out.data, {"logits": logits.grad}

        fused_out, fused = run(masked_epsilon_probs)
        composed_out, composed = run(composed_masked_epsilon_probs)
        assert_bits_equal(fused_out, composed_out)
        assert_each_bits_equal(fused, composed)


class TestActorUnroll:
    def test_step_returns_arrays_with_gradients_on(self, monkeypatch):
        # The rollout only acts: its actor step returns plain arrays and
        # records nothing, so the rollout runs with no no_grad block.
        env = SwitchGame()
        cfg = ActorConfig(env.spec.obs_width, env.spec.n_agents, env.spec.n_actions, 7)
        params = actor_init(np.random.default_rng(0), cfg)
        steps = []

        def cell(params, x, h):
            out = actor_cell(params, x, h)
            steps.append((ad._grad_enabled, *(type(o) for o in out)))
            return out

        monkeypatch.setattr(rollout, "actor_cell", cell)
        assert ad._grad_enabled
        rollout.rollout_episodes(env, 3, params, cfg, 0.3, seed=0, stream=1)
        assert steps and all(step == (True, np.ndarray, np.ndarray) for step in steps)


class TestLossesOnPaddedBatch:
    def batch(self, seed):
        rng = np.random.default_rng(seed)
        episodes = [
            random_episode(rng, DIMS["n"], DIMS["m"], DIMS["state_width"],
                           DIMS["obs_width"], t, generation=i)
            for i, t in enumerate((5, 2, 4))]
        # mask one action that was not taken, on a real step
        episodes[0].avail[0, 1, 0, (episodes[0].actions[0, 1, 0] + 1) % DIMS["m"]] = 0.0
        return Batch.from_episodes(episodes)

    def trainer(self, algo, seed, schedule="wholebatch"):
        actor_cfg = ActorConfig(DIMS["obs_width"], DIMS["n"], DIMS["m"], DIMS["gru_hidden"])
        return Trainer.create(
            LearnConfig(algo=algo, critic_schedule=schedule), actor_cfg,
            DIMS["state_width"], np.random.default_rng(seed),
            np.random.default_rng(seed + 1), critic_hidden=DIMS["critic_hidden"])

    def test_policy_loss_tensor(self):
        batch = self.batch(30)

        def run():
            trainer = self.trainer("coma-cc", 31)
            adv = np.random.default_rng(32).standard_normal(
                (len(batch), batch.max_length, DIMS["n"])) * batch.pad[:, :, None]
            probs = learn.unroll_policy(trainer.actor, trainer.actor_cfg, batch)
            loss = learn.policy_loss(batch, adv, probs)
            loss.backward()
            return loss.data, param_grads(trainer.actor)

        (fused_loss, fused), (composed_loss, composed) = both(run)
        assert_bits_equal(fused_loss, composed_loss)
        assert_each_bits_equal(fused, composed)

    @pytest.mark.parametrize("algo", ["centralv", "coma", "coma-cc"])
    def test_critic_loss_gradients(self, algo):
        batch = self.batch(33)
        inputs = critic_batch_inputs(batch, algo)

        def run():
            trainer = self.trainer(algo, 34)
            targets, weights, actions = learn.prepare_critic_batch(
                batch, inputs, algo, trainer.target, 0.8, 0.99)
            loss = learn.critic_loss_tensor(trainer.critic, inputs, targets, weights, actions)
            loss.backward()
            return loss.data, param_grads(trainer.critic)

        (fused_loss, fused), (composed_loss, composed) = both(run)
        assert_bits_equal(fused_loss, composed_loss)
        assert_each_bits_equal(fused, composed)

    @pytest.mark.parametrize("algo", ["centralv", "coma", "coma-cc"])
    def test_critic_loss_node(self, algo):
        # The loss node alone against the composed loss over the same fused
        # critic: on the whole batch, then on each step's slice as the
        # minibatch sweep takes it
        batch = self.batch(37)
        inputs = critic_batch_inputs(batch, algo)
        trainer = self.trainer(algo, 38)
        targets, weights, actions = learn.prepare_critic_batch(
            batch, inputs, algo, trainer.target, 0.8, 0.99)
        for t in [slice(None), *range(batch.max_length)]:
            step_actions = None if actions is None else actions[:, t]
            runs = []
            for loss_fn in (learn.critic_loss_tensor, composed_critic_loss):
                trainer.critic.zero_grads()
                loss = loss_fn(trainer.critic, inputs[:, t], targets[:, t], weights[:, t],
                               step_actions)
                loss.backward()
                runs.append((loss.data, param_grads(trainer.critic)))
            (fused_loss, fused), (composed_loss, composed) = runs
            assert_bits_equal(fused_loss, composed_loss)
            assert_each_bits_equal(fused, composed)

    @pytest.mark.parametrize("schedule", ["minibatch", "wholebatch"])
    @pytest.mark.parametrize("algo", ["centralv", "coma", "coma-cc"])
    def test_train_on_batch(self, algo, schedule):
        def run():
            trainer = self.trainer(algo, 35, schedule)
            losses = [trainer.train_on_batch(self.batch(36 + k)) for k in range(2)]
            return losses, trainer

        (fused_losses, fused), (composed_losses, composed) = both(run)
        assert_bits_equal(fused_losses, composed_losses)
        for mine, theirs in ((fused.actor, composed.actor), (fused.critic, composed.critic),
                             (fused.target.params, composed.target.params)):
            assert_each_bits_equal({k: v.data for k, v in mine.items()},
                               {k: v.data for k, v in theirs.items()})
        for mine, theirs in ((fused.actor_opt, composed.actor_opt),
                             (fused.critic_opt, composed.critic_opt)):
            assert_each_bits_equal(mine, theirs)

