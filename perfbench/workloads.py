"""The benchmark's workloads: configs made from the seed, one unit of work, its checks.

A workload knows three things: how to build the fixtures a user builds before
the first rollout or check (timed as set-up), how to run one fixed unit of
work, and how to check that unit's outputs. Every unit returns an
:class:`Outcome` whose ``fingerprint`` must be identical across the repeats
of one invocation; that is the determinism check.

``sopac`` modules are looked up in ``sys.modules`` at call time, never bound
at import, so that set-up can re-import the package and the tracer can patch
it after this module was loaded.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path


def sopac(name: str):
    """The currently imported ``sopac.<name>`` module."""
    return importlib.import_module(f"sopac.{name}")


@dataclass
class Outcome:
    """What one unit of work produced, and what was wrong with it."""

    seconds: float              # wall time of the unit, checks excluded
    fingerprint: bytes          # metrics.csv, or a digest of the verify results
    env_steps: int
    problems: list[str] = field(default_factory=list)
    test_return_mean: float | None = None
    # Counts the tracer's cross-checks compare against.
    episodes: int = 0
    eval_episodes: int = 0


# The 5x5 capture grid of the reference setup; only the prey differs between
# the two capture workloads.
CAPTURE = {"side": 5, "horizon": 20}


@dataclass(frozen=True)
class TrainingWorkload:
    """One ``harness.run_experiment`` per unit. ``config`` holds the RunConfig
    fields that differ from their defaults; the seed is the benchmark's."""

    name: str
    config: dict
    tiny_steps: int

    training = True

    def run_config(self, seed: int, tiny: bool = False):
        data = dict(self.config, seed=seed)
        if tiny:
            data.update(total_steps=self.tiny_steps,
                        eval_interval=self.tiny_steps // 2, eval_episodes=2)
        return sopac("harness").RunConfig(**data)

    def unroll_per_update(self) -> int:
        """Actor unrolls per ``train_on_batch`` at the benchmark's commit: the
        counterfactual critics unroll once for the baseline and once for the
        loss; centralv only for the loss."""
        return 1 if self.config["algo"] == "centralv" else 2

    def build_fixtures(self, seed: int) -> None:
        """What ``run_experiment`` builds before its first rollout."""
        harness, envs = sopac("harness"), sopac("envs")
        policy, rollout = sopac("policy"), sopac("rollout")
        cfg = self.run_config(seed)
        env = envs.make_env(cfg.env, cfg.env_config)
        envs.make_env(cfg.env, cfg.env_config)
        trainer = harness.build_trainer(cfg, env)
        schedule = policy.EpsilonSchedule(cfg.eps_start, cfg.eps_end, cfg.eps_anneal_steps)
        rollout.sample_episode_fn(env, trainer.actor_cfg, schedule, cfg.seed)

    def run(self, seed: int, out_dir: Path, tiny: bool = False) -> Outcome:
        harness = sopac("harness")
        cfg = self.run_config(seed, tiny)
        start = time.perf_counter()
        result = harness.run_experiment(cfg, out_dir)
        seconds = time.perf_counter() - start
        data = result.metrics_path.read_bytes()
        manifest = json.loads(result.manifest_path.read_text())
        rows = harness.read_metrics(result.metrics_path)
        problems = []
        expected = len(harness.eval_grid(cfg.total_steps, cfg.eval_interval))
        if len(rows) != expected:
            problems.append(f"metrics.csv has {len(rows)} rows, eval_grid has {expected}")
        if not all(math.isfinite(v) for row in rows for v in row.values()):
            problems.append("metrics.csv holds a non-finite value")
        returns = [row["test_return"] for row in rows]
        return Outcome(
            seconds=seconds,
            fingerprint=data,
            env_steps=int(manifest["env_steps"]),
            problems=problems,
            test_return_mean=sum(returns) / len(returns) if returns else None,
            episodes=int(manifest["episodes"]),
            eval_episodes=len(rows) * cfg.eval_episodes,
        )


# Criterion 1 gates the gradient suite at this relative error, criterion 5
# the trained critics at this absolute error; the benchmark never loosens them.
GRAD_TOL = 1e-4
ORACLE_TOL = 0.05
# The first two of criterion 1's twenty gradient-suite seeds: about 2.6 s.
GRAD_SEEDS = 2
# Uniform switch-game episodes per oracle-check update (one env step each).
ORACLE_BATCH = 32
# Walking prey on the smallest grid: about 19k exact Q entries in about 1 s.
ORACLE_GRID = {"side": 3, "horizon": 3, "prey": "walk"}


@dataclass(frozen=True)
class VerifyWorkload:
    """One pass of the gradient suite, the switch oracle check and the exact
    capture-grid Q table. Its inputs are the fixed fixtures of criteria 1 and
    5, whose tolerances are defined on them, so the seed does not change them."""

    name: str

    training = False

    def build_fixtures(self, seed: int) -> None:
        envs, oracle = sopac("envs"), sopac("oracle")
        sopac("verify")
        switch = envs.make_env("switch")
        oracle.uniform_policy(switch)
        grid = envs.make_env("capture", ORACLE_GRID)
        oracle.uniform_policy(grid)

    @staticmethod
    def grad_seeds(tiny: bool) -> int:
        return 1 if tiny else GRAD_SEEDS

    def run(self, seed: int, out_dir: Path, tiny: bool = False) -> Outcome:
        verify, envs, oracle = sopac("verify"), sopac("envs"), sopac("oracle")
        start = time.perf_counter()
        suite = verify.gradient_suite(seeds=self.grad_seeds(tiny))
        check = verify.switch_oracle_check(
            max_updates=5000, batch=ORACLE_BATCH, tol=ORACLE_TOL)
        grid = envs.make_env("capture", ORACLE_GRID)
        table = oracle.exact_action_values(grid, oracle.uniform_policy(grid))
        seconds = time.perf_counter() - start

        problems = [
            f"gradient suite: {loss} relative error {err:.3e} >= {GRAD_TOL}"
            for loss, err in suite.max_errors.items() if not err < GRAD_TOL
        ]
        if not check.passed(ORACLE_TOL):
            problems.append(f"oracle check: |V-V*|={check.v_error:.4f}, "
                            f"max|Q-Q*|={check.q_error:.4f}, tolerance {ORACLE_TOL}")
        values = [table.action_values[k] for k in sorted(table.action_values)]
        if not values or not all(math.isfinite(v) for v in values):
            problems.append("exact Q table is empty or non-finite")
        digest = hashlib.sha256(json.dumps(
            [sorted(suite.max_errors.items()), check.v_error, check.q_error,
             check.v_updates, check.q_updates, values, table.initial_value]
        ).encode()).digest()
        return Outcome(
            seconds=seconds,
            fingerprint=digest,
            env_steps=ORACLE_BATCH * (check.v_updates + check.q_updates),
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (
    TrainingWorkload(
        name="capture-comacc-permissive",
        config=dict(env="capture", env_config=dict(CAPTURE, prey="static"),
                    algo="coma-cc", sop="permissive", critic_schedule="wholebatch",
                    batch_size=8, total_steps=800, eval_interval=200, eval_episodes=8),
        tiny_steps=60,
    ),
    TrainingWorkload(
        name="capture-centralv-strict",
        # kl_threshold 0: every episode the update moved the policy away
        # from is evicted, so each update refills the whole buffer. At a
        # positive threshold the number of updates in a unit depends on how
        # soon a seed's policy settles (14 to 28 per 2000 steps at 0.001),
        # so a unit's work differed by up to 2x between seeds.
        config=dict(env="capture", env_config=dict(CAPTURE, prey="walk"),
                    algo="centralv", sop="strict", kl_threshold=0.0,
                    critic_schedule="minibatch", batch_size=8,
                    total_steps=2000, eval_interval=500, eval_episodes=8),
        tiny_steps=60,
    ),
    TrainingWorkload(
        name="switch-coma-off",
        config=dict(env="switch", algo="coma", sop="off", batch_size=8,
                    total_steps=2000, eval_interval=500, eval_episodes=8),
        tiny_steps=40,
    ),
    VerifyWorkload(
        name="verify",
    ),
)}
