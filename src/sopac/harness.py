"""Experiment runner: configuration, seeded orchestration, metrics, aggregation.

``RunConfig`` is a ``learn.LearnConfig`` plus the run's own fields, so each
learning setting is declared, defaulted and checked once; an invalid config
raises one ``ConfigError`` naming every problem found.

A run is fully determined by (config, seed): parameter initialisation, every
rollout, and every evaluation draw their randomness from fixed-purpose
seed-sequence keys, and the metrics CSV is written with deterministic
formatting so two identical runs produce byte-identical files.

Every sop mode trains through the one loop of ``sop.sop_iteration``: fill
the buffer, train, evict. Evaluation rows land on the fixed environment-step
grid ``[k, 2k, ..., total]`` (k = eval interval), checked right after every
training update, before eviction. The loop stops once the last row is
written, so no episode is sampled that no update trains on. On-policy
training with batch size 1 and permissive training then produce identical
traces, which is tested.

A ``NumericError`` part-way through a run still leaves ``metrics.csv`` with
the rows written so far and a ``manifest.json`` whose ``status`` is
``numeric_failure``; the error is then re-raised.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .autodiff import NumericError, ParamSet
from .critic import CRITIC_HIDDEN
from .envs import ENV_CLASSES, make_env, make_env_config
from .learn import LearnConfig, Trainer
from .policy import (ActorConfig, EpsilonSchedule, epsilon_at, epsilon_order_problems,
                     failures, is_int, is_real, type_problems)
from .rollout import rollout_episodes, sample_episode_fn
from .sop import SOP_MODES, ReplayBuffer, episode_kls, max_mean_kl, sop_iteration

Array = np.ndarray

METRICS_HEADER = (
    "step,episodes,train_return,test_win_rate,test_return,"
    "max_buffer_kl,mean_buffer_kl,critic_loss,policy_loss,epsilon,seconds"
)

ENVS = tuple(ENV_CLASSES)


class ConfigError(ValueError):
    """Invalid run configuration; reported before any work starts."""


@dataclass(frozen=True)
class RunConfig(LearnConfig):
    """Full experiment description; defaults follow the reference setup."""

    env: str = "switch"
    env_config: dict = field(default_factory=dict)
    algo: str = "centralv"
    sop: str = "permissive"
    batch_size: int = 8
    eps_start: float = EpsilonSchedule.start
    eps_end: float = EpsilonSchedule.end
    eps_anneal_steps: int = EpsilonSchedule.anneal_steps
    kl_threshold: float = float("inf")
    total_steps: int = 20_000
    eval_interval: int = 1_000
    eval_episodes: int = 32
    seed: int = 0
    record_timing: bool = False
    gru_hidden: int = ActorConfig.gru_hidden
    critic_hidden: tuple[int, ...] = CRITIC_HIDDEN

    def __post_init__(self) -> None:
        problems = []
        if self.env not in ENVS:
            problems.append(f"env must be one of {ENVS}, got {self.env!r}")
        if self.sop not in SOP_MODES:
            problems.append(f"sop must be one of {SOP_MODES}, got {self.sop!r}")
        problems += type_problems(
            self, counts=("batch_size", "total_steps", "eval_interval", "eval_episodes",
                          "gru_hidden", "eps_anneal_steps"),
            flags=("record_timing",), reals=("eps_start", "eps_end", "kl_threshold"))
        if not isinstance(self.critic_hidden, tuple) or not all(
                is_int(width) and width >= 1 for width in self.critic_hidden):
            problems.append("critic_hidden must be a list of positive integers, "
                            f"got {self.critic_hidden!r}")
        if not is_int(self.seed) or self.seed < 0:
            problems.append(f"seed must be a nonnegative integer, got {self.seed!r}")
        if is_real(self.kl_threshold) and not self.kl_threshold >= 0.0:
            problems.append(f"kl_threshold must be nonnegative, got {self.kl_threshold!r}")
        if is_real(self.eps_start) and is_real(self.eps_end):  # else reported above
            problems += epsilon_order_problems(self.eps_start, self.eps_end,
                                               ("eps_start", "eps_end"))
        problems += failures(super().__post_init__)
        if not isinstance(self.env_config, dict):
            problems.append("env_config must be a mapping")
        elif self.env in ENVS:
            problems += failures(make_env_config, self.env, self.env_config)
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def schedule(self) -> EpsilonSchedule:
        return EpsilonSchedule(self.eps_start, self.eps_end, self.eps_anneal_steps)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if isinstance(data.get("critic_hidden"), list):
            data["critic_hidden"] = tuple(data["critic_hidden"])
        if data.get("kl_threshold") == "inf":  # how ``to_dict`` writes it
            data["kl_threshold"] = float("inf")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        data = asdict(self)
        data["critic_hidden"] = list(self.critic_hidden)
        data["kl_threshold"] = (
            "inf" if np.isinf(self.kl_threshold) else self.kl_threshold
        )
        return data

    def sha256(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def eval_grid(total_steps: int, interval: int) -> list[int]:
    """Fixed row grid [k, 2k, ...] capped at total_steps; ceil(S/k) entries."""
    grid = list(range(interval, total_steps + 1, interval))
    if not grid or grid[-1] != total_steps:
        grid.append(total_steps)
    return grid


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(
    actor: ParamSet, actor_cfg: ActorConfig, env, episodes: int, seed: int,
) -> tuple[float, float]:
    """Win rate and mean return over ``episodes`` greedy evaluation rollouts of
    ``env``.

    Actions are the argmax of the policy and exploration is off: all episodes
    play as one lockstep group with epsilon 0. Evaluation plays stream 2 of
    ``seed`` and never touches the actor, the env or any training generator.
    """
    played = rollout_episodes(env, episodes, actor, actor_cfg, 0.0, seed, stream=2,
                              mode="greedy")
    return int(played.wins.sum()) / episodes, float(np.mean(played.returns))


# ---------------------------------------------------------------------------
# Experiment loop


@dataclass
class RunResult:
    out_dir: Path
    metrics_path: Path
    manifest_path: Path
    params_path: Path
    rows: list[dict]


def build_trainer(cfg: RunConfig, env) -> Trainer:
    actor_cfg = ActorConfig(
        obs_width=env.spec.obs_width,
        n_agents=env.spec.n_agents,
        n_actions=env.spec.n_actions,
        gru_hidden=cfg.gru_hidden,
    )
    actor_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 0)))
    critic_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 1)))
    return Trainer.create(cfg, actor_cfg, env.spec.state_width, actor_rng, critic_rng,
                          critic_hidden=cfg.critic_hidden)


def run_experiment(cfg: RunConfig, out_dir: str | Path) -> RunResult:
    """Train per the config and emit metrics.csv / manifest.json / params.npz."""
    start = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    env = make_env(cfg.env, cfg.env_config)
    trainer = build_trainer(cfg, env)
    schedule = cfg.schedule
    sample = sample_episode_fn(env, trainer.actor_cfg, schedule, cfg.seed)
    grid = eval_grid(cfg.total_steps, cfg.eval_interval)

    buffer = ReplayBuffer(cfg.batch_size)
    rows: list[dict] = []

    def emit(critic_loss: float, policy_loss: float, kls) -> None:
        steps_done = sample.counter["env_steps"]
        trained = buffer.batch
        while len(rows) < len(grid) and steps_done >= grid[len(rows)]:
            eval_seq = np.random.SeedSequence(cfg.seed, spawn_key=(3, len(rows)))
            win_rate, test_return = evaluate(
                trainer.actor, trainer.actor_cfg, env, cfg.eval_episodes,
                int(eval_seq.generate_state(1)[0]),
            )
            if kls is None:
                kls = episode_kls(trainer.actor, trainer.actor_cfg, trained)
            max_kl, mean_kl = max_mean_kl(kls)
            rows.append({
                "step": grid[len(rows)],
                "episodes": sample.counter["rollouts"],
                "train_return": float(np.mean(trained.returns)),
                "test_win_rate": win_rate,
                "test_return": test_return,
                "max_buffer_kl": max_kl,
                "mean_buffer_kl": mean_kl,
                "critic_loss": critic_loss,
                "policy_loss": policy_loss,
                "epsilon": epsilon_at(steps_done, schedule),
                "seconds": round(time.perf_counter() - start, 3) if cfg.record_timing else 0.0,
            })

    metrics_path = out / "metrics.csv"
    manifest_path = out / "manifest.json"

    def write_records(**extra) -> None:
        _write_csv(metrics_path, METRICS_HEADER, rows)
        manifest = {
            "config": cfg.to_dict(),
            "config_sha256": cfg.sha256(),
            "package_version": __version__,
            "environment": f"{cfg.env} {env.config}",
            "episodes": sample.counter["rollouts"],
            "env_steps": sample.counter["env_steps"],
            "rows": len(rows),
            "wall_seconds": round(time.perf_counter() - start, 3),
            **extra,
        }
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    try:
        while len(rows) < len(grid):
            sop_iteration(buffer, trainer, sample, cfg.sop, cfg.kl_threshold, emit)
    except NumericError as exc:
        write_records(status="numeric_failure", env_step=sample.counter["env_steps"],
                      error=str(exc))
        raise
    params_path = out / "params.npz"
    _save_params(params_path, trainer)
    write_records()
    return RunResult(out, metrics_path, manifest_path, params_path, rows)


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(float(value))


def _write_csv(path: str | Path, header: str, rows: list[dict]) -> None:
    columns = header.split(",")
    lines = [header]
    for row in rows:
        lines.append(",".join(_format_value(row[c]) for c in columns))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode())


def _save_params(path: Path, trainer: Trainer) -> None:
    arrays = {f"actor/{k}": v.data for k, v in trainer.actor.items()}
    arrays.update({f"critic/{k}": v.data for k, v in trainer.critic.items()})
    arrays.update({f"target/{k}": v.data for k, v in trainer.target.items()})
    np.savez(path, **arrays)


# ---------------------------------------------------------------------------
# Cross-seed aggregation


AGGREGATE_HEADER = ("step,win_rate_median,win_rate_q25,win_rate_q75,"
                    "return_median,return_q25,return_q75")


def read_metrics(path: str | Path) -> list[dict]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != METRICS_HEADER.split(","):
            raise ValueError(f"{path} does not carry the metrics header")
        return [
            {k: (int(v) if k in ("step", "episodes") else float(v)) for k, v in row.items()}
            for row in reader
        ]


def aggregate(paths: Sequence[str | Path]) -> list[dict]:
    """Per-step median and quartiles of test win rate and test return across
    seed files.

    Quantiles use linear interpolation. Files must share the step grid.
    """
    if not paths:
        raise ValueError("aggregate needs at least one metrics file")
    tables = [read_metrics(p) for p in paths]
    steps = [row["step"] for row in tables[0]]
    for path, table in zip(paths, tables):
        other = [row["step"] for row in table]
        if other != steps:
            shared = min(len(steps), len(other))
            bad = next((i for i in range(shared) if steps[i] != other[i]), shared)
            raise ValueError(f"{path} step grid diverges at row {bad}")
    out = []
    for i, step in enumerate(steps):
        row = {"step": step}
        for column, name in (("test_win_rate", "win_rate"), ("test_return", "return")):
            values = [table[i][column] for table in tables]
            q25, med, q75 = np.percentile(values, [25.0, 50.0, 75.0], method="linear")
            row.update({f"{name}_median": float(med), f"{name}_q25": float(q25),
                        f"{name}_q75": float(q75)})
        out.append(row)
    return out


def write_aggregate(path: str | Path, rows: list[dict]) -> None:
    _write_csv(path, AGGREGATE_HEADER, rows)
