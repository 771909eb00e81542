import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sopac import cli, harness, sop, verify
from sopac.autodiff import ParamSet
from sopac.envs import SwitchGame
from sopac.learn import Batch, LearnConfig, Trainer
from sopac.harness import (
    METRICS_HEADER,
    ConfigError,
    RunConfig,
    aggregate,
    eval_grid,
    evaluate,
    read_metrics,
    run_experiment,
    write_aggregate,
)
from sopac.policy import ActorConfig, actor_init
from sopac.rollout import rollout_episodes

from reference import params_equal


def small_config(**overrides):
    base = dict(env="switch", algo="centralv", sop="off", batch_size=2,
                total_steps=40, eval_interval=20, eval_episodes=2, seed=0)
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_defaults_are_reference_values(self):
        cfg = RunConfig()
        assert cfg.lam == 0.8 and cfg.gamma == 0.99
        assert cfg.lr == 0.005 and cfg.rms_alpha == 0.99 and cfg.rms_eps == 1e-5
        assert cfg.target_period == 200
        assert cfg.eps_start == 0.5 and cfg.eps_end == 0.01
        assert cfg.eps_anneal_steps == 100_000
        assert cfg.critic_hidden == (128, 128) and cfg.gru_hidden == 64

    def test_validation_reports_all_problems(self):
        with pytest.raises(ConfigError, match="algo"):
            RunConfig(algo="dqn")
        with pytest.raises(ConfigError, match="batch_size"):
            RunConfig(batch_size=0)
        with pytest.raises(ConfigError, match="eval_interval"):
            RunConfig(eval_interval=0)

    def test_empty_critic_hidden_and_infinite_threshold_are_valid(self):
        cfg = RunConfig.from_dict({"critic_hidden": [], "kl_threshold": float("inf")})
        assert cfg.critic_hidden == () and cfg.kl_threshold == float("inf")

    @pytest.mark.parametrize("cfg", [
        RunConfig(),
        RunConfig(env="capture", env_config={"side": 4, "prey": "walk"}, algo="coma",
                  sop="strict", kl_threshold=0.05, critic_hidden=(16,), seed=3),
    ], ids=["default", "finite-threshold"])
    def test_to_dict_round_trips(self, cfg):
        data = json.loads(json.dumps(cfg.to_dict()))
        again = RunConfig.from_dict(data)
        assert again == cfg
        assert again.to_dict() == cfg.to_dict() and again.sha256() == cfg.sha256()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"learning_rate": 0.1})

    def test_default_surface_is_pinned(self):
        # the manifest's config and its hash do not depend on the field order
        cfg = RunConfig()
        assert cfg.sha256() == "769082f077ae3699caaa813f3e68d5353bf63e77b8f8838565d7922b4b3d44a8"
        assert sorted(cfg.to_dict()) == sorted([
            "algo", "batch_size", "critic_hidden", "critic_schedule", "env", "env_config",
            "eps_anneal_steps", "eps_end", "eps_start", "eval_episodes", "eval_interval",
            "gamma", "gamma_adv_one", "gru_hidden", "kl_threshold", "lam", "lr",
            "record_timing", "rms_alpha", "rms_eps", "seed", "sop", "target_period",
            "total_steps"])

    def test_trainer_takes_the_run_config(self):
        cfg = small_config(algo="coma", lr=0.01, target_period=1, critic_hidden=(8,))
        env = SwitchGame()
        trainer = harness.build_trainer(cfg, env)
        learn_cfg = LearnConfig(**{name: getattr(cfg, name)
                                   for name in LearnConfig.__dataclass_fields__})
        twin = Trainer.create(learn_cfg, trainer.actor_cfg, env.spec.state_width,
                              np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0, 0))),
                              np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0, 1))),
                              critic_hidden=(8,))
        assert trainer.cfg is cfg
        batch = rollout_episodes(env, 3, trainer.actor, trainer.actor_cfg, 0.5, 0, stream=1)
        assert trainer.train_on_batch(batch) == twin.train_on_batch(batch)
        for mine, theirs in ((trainer.actor, twin.actor), (trainer.critic, twin.critic),
                             (trainer.target.params, twin.target.params)):
            assert params_equal(mine, theirs)

    def test_hash_is_stable_and_sensitive(self):
        a, b = RunConfig(seed=1), RunConfig(seed=1)
        assert a.sha256() == b.sha256()
        assert RunConfig(seed=2).sha256() != a.sha256()


class TestEvalGrid:
    def test_divisible_grid(self):
        assert eval_grid(100, 25) == [25, 50, 75, 100]

    def test_ragged_grid_has_ceil_rows(self):
        assert eval_grid(25, 10) == [10, 20, 25]
        assert len(eval_grid(25, 10)) == -(-25 // 10)

    def test_interval_larger_than_total(self):
        assert eval_grid(5, 10) == [5]


class TestEvaluate:
    def _optimal_actor(self, env):
        cfg = ActorConfig(env.spec.obs_width, 2, env.spec.n_actions, gru_hidden=8)
        params = actor_init(np.random.default_rng(0), cfg)
        zeroed = ParamSet({k: np.zeros_like(v.data) for k, v in params.items()})
        zeroed["fc2.b0"].data[:] = [0.0, 0.0, 5.0]  # argmax picks action 2
        return zeroed, cfg

    def test_optimal_policy_wins_every_episode(self):
        env = SwitchGame()
        params, cfg = self._optimal_actor(env)
        win_rate, mean_return = evaluate(params, cfg, env, 16, seed=0)
        assert win_rate == 1.0
        assert mean_return == pytest.approx(1.0)

    def test_uniform_actor_sampling_matches_combinatorics(self):
        env = SwitchGame()
        cfg = ActorConfig(env.spec.obs_width, 2, env.spec.n_actions, gru_hidden=8)
        params = actor_init(np.random.default_rng(1), cfg)
        uniform = ParamSet({k: np.zeros_like(v.data) for k, v in params.items()})
        episodes = 10_000
        played = rollout_episodes(env, episodes, uniform, cfg, 0.0, seed=5, stream=2,
                                  mode="sample")
        win_rate = played.wins.mean()
        p = 1.0 / 9.0
        se = np.sqrt(p * (1 - p) / episodes)
        assert abs(win_rate - p) < 3.0 * se

    def test_evaluation_is_pure(self):
        env = SwitchGame()
        params, cfg = self._optimal_actor(env)
        before = params.copy()
        first = evaluate(params, cfg, env, 8, seed=9)
        second = evaluate(params, cfg, env, 8, seed=9)
        assert first == second
        assert params_equal(params, before)


class TestRunExperiment:
    def test_metrics_header_is_the_pinned_contract(self, tmp_path):
        result = run_experiment(small_config(), tmp_path / "r")
        first_line = result.metrics_path.read_text().splitlines()[0]
        assert first_line == METRICS_HEADER
        assert first_line == ("step,episodes,train_return,test_win_rate,test_return,"
                              "max_buffer_kl,mean_buffer_kl,critic_loss,policy_loss,"
                              "epsilon,seconds")

    def test_row_count_is_ceil_steps_over_interval(self, tmp_path):
        result = run_experiment(small_config(total_steps=25, eval_interval=10),
                                tmp_path / "r")
        assert len(result.rows) == 3
        assert [r["step"] for r in result.rows] == [10, 20, 25]

    def test_step_column_is_monotone_and_win_rate_bounded(self, tmp_path):
        result = run_experiment(small_config(total_steps=60), tmp_path / "r")
        steps = [r["step"] for r in result.rows]
        assert steps == sorted(steps)
        assert all(0.0 <= r["test_win_rate"] <= 1.0 for r in result.rows)

    def test_same_config_and_seed_reproduce_identical_bytes(self, tmp_path):
        cfg = small_config(sop="permissive", batch_size=3, seed=7)
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()

    def test_record_timing_fills_only_the_seconds_column(self, tmp_path):
        def columns(record_timing):
            cfg = small_config(eval_interval=10, record_timing=record_timing)
            lines = run_experiment(cfg, tmp_path / str(record_timing)).metrics_path.read_bytes()
            return [line.rsplit(b",", 1) for line in lines.splitlines()[1:]]

        timed, untimed = columns(True), columns(False)
        seconds = [float(s) for _, s in timed]
        assert len(seconds) == 4 and seconds[-1] > 0.0
        assert all(0.0 <= a <= b for a, b in zip(seconds, seconds[1:]))
        assert [rest for rest, _ in timed] == [rest for rest, _ in untimed]
        assert all(s == b"0.0" for _, s in untimed)

    def test_off_policy_mode_equals_permissive_with_unit_batch(self, tmp_path):
        base = dict(env="switch", algo="centralv", batch_size=1, total_steps=60,
                    eval_interval=20, eval_episodes=2, seed=3)
        off = run_experiment(RunConfig(sop="off", **base), tmp_path / "off")
        perm = run_experiment(RunConfig(sop="permissive", **base), tmp_path / "perm")
        assert off.metrics_path.read_bytes() == perm.metrics_path.read_bytes()

    def test_strict_with_infinite_threshold_equals_permissive(self, tmp_path):
        base = dict(env="switch", algo="coma-cc", batch_size=3, total_steps=40,
                    eval_interval=20, eval_episodes=2, seed=4)
        perm = run_experiment(RunConfig(sop="permissive", **base), tmp_path / "p")
        strict = run_experiment(RunConfig(sop="strict", **base), tmp_path / "s")
        assert strict.metrics_path.read_bytes() == perm.metrics_path.read_bytes()

    def test_manifest_records_config_hash_and_counters(self, tmp_path):
        cfg = small_config()
        result = run_experiment(cfg, tmp_path / "r")
        manifest = json.loads(result.manifest_path.read_text())
        assert set(manifest) == {"config", "config_sha256", "package_version", "environment",
                                 "episodes", "env_steps", "rows", "wall_seconds"}
        assert manifest["config_sha256"] == cfg.sha256()
        assert manifest["rows"] == len(result.rows)
        assert manifest["env_steps"] >= cfg.total_steps
        assert result.params_path.exists()

    @pytest.mark.parametrize("mode", ["off", "permissive", "strict"])
    def test_no_episode_is_sampled_after_the_last_update(self, tmp_path, mode):
        cfg = small_config(sop=mode, batch_size=3, kl_threshold=0.05, total_steps=50)
        result = run_experiment(cfg, tmp_path / "r")
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["episodes"] == result.rows[-1]["episodes"]
        assert manifest["env_steps"] == result.rows[-1]["episodes"]  # one step each

    def test_strict_replays_the_buffer_kl_once_per_update(self, tmp_path, monkeypatch):
        # criterion 11's strict config: 8 updates, 2 of them evaluation rows
        counts = {"kls": 0, "updates": 0}
        episode_kls, train_on_batch = sop.episode_kls, Trainer.train_on_batch

        def counted_kls(*args, **kwargs):
            counts["kls"] += 1
            return episode_kls(*args, **kwargs)

        def counted_update(self, batch):
            counts["updates"] += 1
            return train_on_batch(self, batch)

        monkeypatch.setattr(sop, "episode_kls", counted_kls)
        monkeypatch.setattr(harness, "episode_kls", counted_kls, raising=False)
        monkeypatch.setattr(Trainer, "train_on_batch", counted_update)
        cfg = RunConfig(env="capture", algo="centralv", sop="strict", kl_threshold=0.05,
                        batch_size=2, total_steps=80, eval_interval=40, eval_episodes=2,
                        seed=12, env_config={"side": 4, "horizon": 8, "prey": "walk"})
        result = run_experiment(cfg, tmp_path / "r")
        assert len(result.rows) == 2
        assert counts == {"kls": 8, "updates": 8}

    def test_capture_environment_runs_all_algorithms(self, tmp_path):
        for algo in ("centralv", "coma", "coma-cc"):
            cfg = RunConfig(env="capture", algo=algo, sop="permissive", batch_size=2,
                            total_steps=60, eval_interval=30, eval_episodes=2, seed=1,
                            env_config={"side": 4, "horizon": 8})
            result = run_experiment(cfg, tmp_path / algo)
            assert len(result.rows) == 2


class TestExactLengthReturns:
    """A return is summed over its own episode's steps. Summing a padded row
    regroups numpy's pairwise sum and can change the last bit."""

    @staticmethod
    def padded_row():
        """A switch-shaped batch of a 9-15-step episode padded to 20 steps,
        whose padded row sum and mean return both differ from the exact ones;
        and its exact and padded mean returns."""
        for seed in range(100):
            rng = np.random.default_rng(seed)
            short = verify.random_episode(rng, 2, 3, 1, 2, int(rng.integers(9, 16)))
            long = verify.random_episode(rng, 2, 3, 1, 2, 20, generation=1)
            batch = Batch.from_episodes([short, long])
            exact = float(np.mean([short.rewards[0].sum(), long.rewards[0].sum()]))
            padded = float(np.mean(batch.rewards.sum(axis=1)))
            if batch.rewards[0].sum() != short.rewards[0].sum() and exact != padded:
                return batch, exact, padded
        raise AssertionError("no seed below 100 pads to a different sum")

    def test_batch_returns_sum_each_episode_over_its_length(self):
        batch, exact, _ = self.padded_row()
        assert batch.lengths[0] >= 9 and batch.max_length == 20
        assert float(np.mean(batch.returns)) == exact
        assert batch.returns[0] != batch.rewards[0].sum()

    def test_test_return_is_the_exact_length_mean(self, monkeypatch):
        batch, exact, padded = self.padded_row()
        monkeypatch.setattr(harness, "rollout_episodes", lambda *args, **kwargs: batch)
        _, test_return = evaluate(None, None, None, len(batch), seed=0)
        assert test_return == exact != padded

    def test_train_return_is_the_exact_length_mean(self, tmp_path, monkeypatch):
        batch, exact, padded = self.padded_row()
        steps = int(batch.lengths.sum())

        def sampler(env, cfg, schedule, seed):
            def sample(params, count):
                assert count == len(batch)
                sample.counter["rollouts"] += count
                sample.counter["env_steps"] += steps
                return batch
            sample.counter = {"rollouts": 0, "env_steps": 0}
            return sample

        monkeypatch.setattr(harness, "sample_episode_fn", sampler)
        cfg = small_config(sop="permissive", total_steps=steps, eval_interval=steps)
        [row] = run_experiment(cfg, tmp_path / "r").rows
        assert row["train_return"] == exact != padded


class TestAggregate:
    def _write(self, tmp_path, name, win_rates, steps=(10, 20)):
        rows = []
        for step, rate in zip(steps, win_rates):
            rows.append({
                "step": step, "episodes": step, "train_return": 0.0,
                "test_win_rate": rate, "test_return": 0.0, "max_buffer_kl": 0.0,
                "mean_buffer_kl": 0.0, "critic_loss": 0.0, "policy_loss": 0.0,
                "epsilon": 0.5, "seconds": 0.0,
            })
        path = tmp_path / name
        lines = [METRICS_HEADER]
        for row in rows:
            lines.append(",".join(str(row[c]) for c in METRICS_HEADER.split(",")))
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_single_seed_degenerates_to_identity(self, tmp_path):
        path = self._write(tmp_path, "a.csv", [0.25, 0.75])
        rows = aggregate([path])
        assert rows[0]["win_rate_median"] == 0.25
        assert rows[0]["win_rate_q25"] == rows[0]["win_rate_q75"] == 0.25

    def test_linear_interpolation_quantile(self, tmp_path):
        paths = [
            self._write(tmp_path, f"{i}.csv", [rate, rate])
            for i, rate in enumerate([0.0, 0.5, 1.0, 1.0])
        ]
        rows = aggregate(paths)
        assert rows[0]["win_rate_median"] == pytest.approx(0.75)
        assert rows[0]["win_rate_q25"] <= rows[0]["win_rate_median"] <= rows[0]["win_rate_q75"]

    def test_constant_columns_aggregate_to_the_constant(self, tmp_path):
        paths = [self._write(tmp_path, f"{i}.csv", [0.4, 0.4]) for i in range(3)]
        rows = aggregate(paths)
        for row in rows:
            assert row["win_rate_median"] == row["win_rate_q25"] == row["win_rate_q75"] == 0.4

    def test_permutation_invariance(self, tmp_path):
        paths = [
            self._write(tmp_path, f"{i}.csv", [rate, rate])
            for i, rate in enumerate([0.1, 0.9, 0.4])
        ]
        assert aggregate(paths) == aggregate(list(reversed(paths)))

    def test_misaligned_grids_rejected_with_row_report(self, tmp_path):
        a = self._write(tmp_path, "a.csv", [0.1, 0.2], steps=(10, 20))
        b = self._write(tmp_path, "b.csv", [0.1, 0.2], steps=(10, 30))
        with pytest.raises(ValueError, match="row 1"):
            aggregate([a, b])

    def test_write_aggregate_roundtrip(self, tmp_path):
        paths = [self._write(tmp_path, "a.csv", [0.5, 0.5])]
        out = tmp_path / "agg.csv"
        write_aggregate(out, aggregate(paths))
        assert out.read_text().splitlines()[0] == "step,win_rate_median,win_rate_q25,win_rate_q75"


class TestCli:
    def test_train_smoke_and_exit_zero(self, tmp_path, capsys):
        code = cli.main([
            "train", "--env", "switch", "--algo", "centralv", "--sop", "off",
            "--batch-size", "2", "--seed", "0", "--total-steps", "40",
            "--eval-interval", "20", "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        assert (tmp_path / "run" / "metrics.csv").exists()
        assert "final:" in capsys.readouterr().out

    def test_cli_overrides_config_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "env": "switch", "algo": "coma-cc", "sop": "off", "batch_size": 2,
            "total_steps": 60, "eval_interval": 20, "eval_episodes": 2,
        }))
        code = cli.main([
            "train", "--config", str(config), "--total-steps", "40",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        rows = read_metrics(tmp_path / "run" / "metrics.csv")
        assert [r["step"] for r in rows] == [20, 40]

    def test_config_error_exits_two(self, tmp_path, capsys):
        code = cli.main([
            "train", "--env", "switch", "--batch-size", "0",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"eps_start": 0.01, "eps_end": 0.5},
        {"eps_start": 1.5},
        {"eps_anneal_steps": 0},
        {"env_config": {"sides": 4}},
        {"env_config": [["side", 4]]},
        {"lr": 0},
        {"rms_alpha": 1.5},
        {"gamma": 1.5},
        {"gamma": 0},
        {"batch_size": 1.5},
        {"total_steps": 40.0},
        {"gru_hidden": 0},
        {"gru_hidden": 2.5},
        {"critic_hidden": [0]},
        {"critic_hidden": 128},
        {"seed": -1},
        {"kl_threshold": float("nan")},
        {"target_period": 0},
        {"gamma_adv_one": "no"},
        {"record_timing": "yes"},
        {"lam": True},
        {"gamma": True},
        {"lr": True},
        {"kl_threshold": True},
        {"eps_start": True},
        {"eps_end": False},
        {"rms_eps": True},
        {"lam": "0.8"},
        {"env_config": {"side": 4.5}},
        {"env_config": {"n_agents": 2.0}},
        {"env_config": {"view_radius": 1.5}},
        {"env_config": {"horizon": 2.5}},
        {"env_config": {"capture_reward": float("nan")}},
        {"eps_anneal_steps": 2.5},
        {"eps_anneal_steps": True},
        {"env_config": {"side": 3, "n_agents": 9}},
        {"env": "switch", "env_config": {"payoff": [["1", "0.5"], ["0.5", "0"]]}},
        {"env": "switch", "env_config": {"payoff": [[True, False], [False, False]]}},
        {"lr": float("inf")},
        {"rms_eps": float("inf")},
    ], ids=["eps-start-below-end", "eps-start-above-one", "zero-anneal",
            "unknown-env-key", "list-env-config", "zero-lr", "rms-alpha-above-one",
            "gamma-above-one", "zero-gamma", "fractional-batch", "float-steps",
            "zero-gru-hidden", "fractional-gru-hidden", "zero-critic-hidden",
            "scalar-critic-hidden", "negative-seed", "nan-kl-threshold",
            "zero-target-period", "string-gamma-adv-one", "string-record-timing",
            "bool-lam", "bool-gamma", "bool-lr", "bool-kl-threshold", "bool-eps-start",
            "bool-eps-end", "bool-rms-eps", "string-lam", "fractional-side",
            "float-n-agents", "fractional-view-radius", "fractional-horizon",
            "nan-capture-reward", "fractional-anneal", "bool-anneal",
            "overfull-grid", "string-payoff", "bool-payoff", "inf-lr", "inf-rms-eps"])
    def test_invalid_config_exits_two_before_writing(self, tmp_path, bad):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(dict({"env": "capture", "total_steps": 40}, **bad)))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_config_key_exits_two(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"learning": 1}))
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("lr", [1e200, 1e100])
    def test_numeric_failure_exits_three(self, tmp_path, capsys, lr):
        # 1e200 overflows a loss; 1e100 leaves finite losses but a policy whose
        # acting distribution is not finite.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "env": "switch", "algo": "centralv", "sop": "off", "batch_size": 2,
            "total_steps": 40, "eval_interval": 20, "eval_episodes": 2,
            "lr": lr,
        }))
        with np.errstate(all="ignore"):
            code = cli.main(["train", "--config", str(config),
                             "--out", str(tmp_path / "run")])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err
        rows = read_metrics(tmp_path / "run" / "metrics.csv")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["status"] == "numeric_failure"
        assert manifest["rows"] == len(rows)
        assert manifest["env_step"] == manifest["env_steps"] > 0
        assert "not finite" in manifest["error"]
        assert manifest["config"]["lr"] == lr
        assert not (tmp_path / "run" / "params.npz").exists()

    def test_train_out_that_is_a_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("keep me")
        code = cli.main(["train", "--env", "switch", "--sop", "off", "--batch-size", "2",
                         "--total-steps", "40", "--eval-interval", "20", "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert out.read_text() == "keep me"

    def test_aggregate_out_that_is_a_directory_exits_two(self, tmp_path, capsys):
        cli.main(["train", "--env", "switch", "--sop", "off", "--batch-size", "2",
                  "--total-steps", "40", "--eval-interval", "20",
                  "--out", str(tmp_path / "a")])
        out = tmp_path / "agg"
        (out / "inner").mkdir(parents=True)
        (out / "inner" / "keep.txt").write_text("keep me")
        capsys.readouterr()
        code = cli.main(["aggregate", "--runs", str(tmp_path / "a"), "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in out.rglob("*")] == ["inner", "keep.txt"]
        assert (out / "inner" / "keep.txt").read_text() == "keep me"

    def test_aggregate_subcommand(self, tmp_path):
        for seed in (0, 1):
            cli.main([
                "train", "--env", "switch", "--sop", "off", "--batch-size", "2",
                "--seed", str(seed), "--total-steps", "40", "--eval-interval", "20",
                "--out", str(tmp_path / f"s{seed}"),
            ])
        out = tmp_path / "agg.csv"
        code = cli.main([
            "aggregate", "--runs", str(tmp_path / "s0"), str(tmp_path / "s1"),
            "--out", str(out),
        ])
        assert code == 0 and out.exists()

    def test_aggregate_misaligned_exits_two(self, tmp_path):
        cli.main(["train", "--env", "switch", "--sop", "off", "--batch-size", "2",
                  "--total-steps", "40", "--eval-interval", "20",
                  "--out", str(tmp_path / "a")])
        cli.main(["train", "--env", "switch", "--sop", "off", "--batch-size", "2",
                  "--total-steps", "60", "--eval-interval", "20",
                  "--out", str(tmp_path / "b")])
        code = cli.main(["aggregate", "--runs", str(tmp_path / "a"),
                         str(tmp_path / "b"), "--out", str(tmp_path / "agg.csv")])
        assert code == 2

    def test_grad_check_subcommand(self, capsys):
        assert cli.main(["grad-check", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "actor" in out and "ok" in out

    @pytest.mark.parametrize("argv", [
        ["grad-check", "--seeds", "0"],
        ["grad-check", "--seeds", "-3"],
        ["grad-check", "--tolerance", "nan"],
        ["grad-check", "--tolerance", "inf"],
        ["grad-check", "--tolerance", "0"],
        ["oracle-check", "--tolerance", "-1"],
        ["oracle-check", "--tolerance", "nan"],
    ], ids=["zero-seeds", "negative-seeds", "grad-nan-tolerance", "grad-inf-tolerance",
            "grad-zero-tolerance", "oracle-negative-tolerance", "oracle-nan-tolerance"])
    def test_vacuous_verify_settings_exit_two_before_any_work(self, monkeypatch, capsys,
                                                              argv):
        def no_work(*args, **kwargs):
            raise AssertionError("the check started before its arguments were validated")

        monkeypatch.setattr(verify, "gradient_suite", no_work)
        monkeypatch.setattr(verify, "switch_oracle_check", no_work)
        assert cli.main(argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_every_train_flag_has_a_config_file_equivalent(self, tmp_path):
        # each train flag's dest is a RunConfig field, so the same setting
        # can come from the JSON file; the run must accept all of them at once
        flag_fields = {
            "env": "switch", "algo": "coma", "sop": "permissive",
            "critic_schedule": "minibatch", "batch_size": 3,
            "kl_threshold": 2.5, "gamma_adv_one": False, "seed": 9,
            "total_steps": 40, "eval_interval": 20,
        }
        assert set(flag_fields) <= set(RunConfig.__dataclass_fields__)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**flag_fields, "eval_episodes": 2}))
        code = cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "run")])
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        for key, value in flag_fields.items():
            assert manifest["config"][key] == value


# Criterion 11's two configs, as RunConfig keywords.
CRITERION_11_CONFIGS = [
    dict(env="switch", algo="coma-cc", sop="permissive", batch_size=3, total_steps=60,
         eval_interval=30, eval_episodes=2, seed=11),
    dict(env="capture", algo="centralv", sop="strict", kl_threshold=0.05, batch_size=2,
         total_steps=80, eval_interval=40, eval_episodes=2, seed=12,
         env_config={"side": 4, "horizon": 8, "prey": "walk"}),
]

# Run every config of argv[1] (JSON) into argv[2]/<index>.
RUN_CONFIGS = """
import json, sys
from sopac.harness import RunConfig, run_experiment
for i, cfg in enumerate(json.loads(sys.argv[1])):
    run_experiment(RunConfig(**cfg), f"{sys.argv[2]}/{i}")
"""


class TestBlasThreads:
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # One process at one BLAS thread, then one at two, never both at once.
        src = str(Path(harness.__file__).resolve().parents[1])
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / threads
            subprocess.run([sys.executable, "-c", RUN_CONFIGS,
                            json.dumps(CRITERION_11_CONFIGS), str(out)],
                           env=env, check=True, timeout=300)
            outputs[threads] = {
                f"{i}/{name}": (out / str(i) / name).read_bytes()
                for i in range(len(CRITERION_11_CONFIGS))
                for name in ("metrics.csv", "params.npz")}
        assert outputs["1"] == outputs["2"]
