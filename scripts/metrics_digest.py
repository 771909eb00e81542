#!/usr/bin/env python3
"""Digest the outputs of a fixed set of training runs, for refactor identity checks.

Runs twenty-one (config, seed) pairs through ``harness.run_experiment`` with
the ``sopac`` package of the checkout this script lives in, one BLAS thread,
and prints one markdown table row per run: the sha256 of ``metrics.csv``,
the sha256 of ``params.npz``, and the manifest's episode and step totals.
A last row digests the verification path: the sha256 of the gradient
suite's per-loss maximum errors over 20 seeds, and of the four numbers the
switch oracle check returns. Two final rows digest the exact oracle on the
benchmark's walking-prey 3x3 grid (horizon 3): the sha256 of its Q values,
its V values and its initial value, under the uniform policy and under a
policy that plays each agent's first available action, so that every other
joint action has zero weight. A change that must not alter training,
verification, the environments or the oracle then checks with one ``diff``:

    python3 scripts/metrics_digest.py > after.md   # in the changed checkout
    python3 scripts/metrics_digest.py > before.md  # in a checkout of its parent
    diff before.md after.md
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sopac.envs import make_env  # noqa: E402
from sopac.harness import RunConfig, run_experiment  # noqa: E402
from sopac.oracle import exact_action_values, uniform_policy  # noqa: E402
from sopac.verify import gradient_suite, switch_oracle_check  # noqa: E402

CAPTURE = {"side": 5, "horizon": 20}
TINY_CAPTURE = {"side": 4, "horizon": 8, "prey": "walk"}
# The benchmark's exact-oracle grid, copied for the same reason as WORKLOADS.
ORACLE_GRID = {"side": 3, "horizon": 3, "prey": "walk"}

# Copies of the benchmark's three training workloads, kept here so that a
# later change to the benchmark leaves these digests comparable.
WORKLOADS = {
    "capture-comacc-permissive": dict(
        env="capture", env_config=dict(CAPTURE, prey="static"), algo="coma-cc",
        sop="permissive", critic_schedule="wholebatch", batch_size=8,
        total_steps=800, eval_interval=200, eval_episodes=8),
    "capture-centralv-strict": dict(
        env="capture", env_config=dict(CAPTURE, prey="walk"), algo="centralv",
        sop="strict", kl_threshold=0.0, critic_schedule="minibatch", batch_size=8,
        total_steps=2000, eval_interval=500, eval_episodes=8),
    "switch-coma-off": dict(
        env="switch", algo="coma", sop="off", batch_size=8,
        total_steps=2000, eval_interval=500, eval_episodes=8),
}


def configs() -> dict[str, dict]:
    runs = {f"{name}/s{seed}": dict(config, seed=seed)
            for name, config in WORKLOADS.items() for seed in (0, 1, 2)}
    # criterion 11's two determinism configs
    runs["crit11-switch"] = dict(
        env="switch", algo="coma-cc", sop="permissive", batch_size=3,
        total_steps=60, eval_interval=30, eval_episodes=2, seed=11)
    runs["crit11-capture"] = dict(
        env="capture", algo="centralv", sop="strict", kl_threshold=0.05,
        batch_size=2, total_steps=80, eval_interval=40, eval_episodes=2,
        seed=12, env_config=TINY_CAPTURE)
    runs["tiny-coma-strict"] = dict(
        env="capture", env_config=TINY_CAPTURE, algo="coma", sop="strict",
        kl_threshold=0.02, batch_size=3, total_steps=120, eval_interval=40,
        eval_episodes=2, seed=5)
    runs["tiny-comacc-off"] = dict(
        env="capture", env_config={"side": 4, "horizon": 8}, algo="coma-cc",
        sop="off", batch_size=2, total_steps=120, eval_interval=40,
        eval_episodes=2, seed=6)
    # epsilon anneals until step 200, so each request runs at its own epsilon
    runs["tiny-centralv-off-anneal"] = dict(
        env="capture", env_config=TINY_CAPTURE, algo="centralv", sop="off",
        batch_size=4, eps_anneal_steps=200, total_steps=400, eval_interval=100,
        eval_episodes=4, seed=7)
    # one lockstep group of 32 greedy episodes per evaluation row
    runs["switch-coma-permissive-eval32"] = dict(
        env="switch", algo="coma", sop="permissive", batch_size=4,
        total_steps=200, eval_interval=50, eval_episodes=32, seed=8)
    # three agents, so the action draw digests an agent axis wider than two
    runs["tiny-3agents-comacc-strict"] = dict(
        env="capture", env_config=dict(TINY_CAPTURE, n_agents=3), algo="coma-cc",
        sop="strict", kl_threshold=0.02, batch_size=3, total_steps=120,
        eval_interval=40, eval_episodes=4, seed=9)
    # the per-timestep critic sweep of every critic, syncing the target
    # network several times within each update
    for seed, algo in enumerate(("centralv", "coma", "coma-cc"), start=13):
        runs[f"tiny-{algo.replace('-', '')}-minibatch-sync5"] = dict(
            env="capture", env_config=TINY_CAPTURE, algo=algo, sop="permissive",
            critic_schedule="minibatch", target_period=5, batch_size=3,
            total_steps=120, eval_interval=40, eval_episodes=2, seed=seed)
    # 320 no-grad critic rows per update, so that the counterfactual pass of
    # the m-headed coma critic and the bootstrap pass of centralv each run
    # in more than one block of ``mlp_forward``
    runs["capture-coma-b8"] = dict(
        env="capture", env_config=dict(CAPTURE, prey="static"), algo="coma",
        sop="permissive", batch_size=8, total_steps=480, eval_interval=240,
        eval_episodes=2, seed=16)
    runs["capture-centralv-b16"] = dict(
        env="capture", env_config=dict(CAPTURE, prey="walk"), algo="centralv",
        sop="permissive", batch_size=16, total_steps=960, eval_interval=480,
        eval_episodes=2, seed=17)
    return runs


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_digests() -> tuple[str, str]:
    """sha256 of the gradient suite's max errors (20 seeds, in loss-name
    order) and of the oracle check's (v_error, q_error, v_updates, q_updates),
    each packed as float64."""
    suite = gradient_suite(seeds=20).max_errors
    errors = np.array([suite[name] for name in sorted(suite)], dtype=np.float64)
    check = switch_oracle_check()
    oracle = np.array([check.v_error, check.q_error, check.v_updates, check.q_updates],
                      dtype=np.float64)
    return (hashlib.sha256(errors.tobytes()).hexdigest(),
            hashlib.sha256(oracle.tobytes()).hexdigest())


def first_available_policy(key, avail: np.ndarray) -> np.ndarray:
    """All weight on each agent's first available action."""
    probs = np.zeros(avail.shape, dtype=np.float64)
    probs[np.arange(avail.shape[0]), np.argmax(avail, axis=1)] = 1.0
    return probs


def oracle_digest(policy=None) -> str:
    """sha256 of the exact Q values of ``policy`` (default uniform) in sorted
    (key, joint action) order, then the V values in sorted key order, then
    the initial value, all packed as float64."""
    grid = make_env("capture", ORACLE_GRID)
    table = exact_action_values(grid, policy or uniform_policy(grid))
    values = [table.action_values[k] for k in sorted(table.action_values)]
    values += [table.state_values[k] for k in sorted(table.state_values)]
    values.append(table.initial_value)
    return hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="keep the run directories here "
                        "(default: a temporary directory, removed afterwards)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        out = Path(args.out or scratch)
        print("| run | sha256 of metrics.csv | sha256 of params.npz | episodes | env_steps |")
        print("| --- | --- | --- | --- | --- |")
        for name, config in configs().items():
            result = run_experiment(RunConfig(**config), out / name)
            manifest = json.loads(result.manifest_path.read_text())
            print(f"| `{name}` | `{sha256(result.metrics_path)}` | `{sha256(result.params_path)}` "
                  f"| {manifest['episodes']} | {manifest['env_steps']} |", flush=True)
    suite, oracle = verify_digests()
    print(f"| `verify` | `{suite}` (gradient suite) | `{oracle}` (oracle check) | - | - |")
    print(f"| `oracle-capture-3x3-walk` | `{oracle_digest()}` (Q, V, initial value) | - | - | - |")
    print(f"| `oracle-capture-3x3-walk-fixed` | `{oracle_digest(first_available_policy)}` "
          "(Q, V, initial value) | - | - | - |")


if __name__ == "__main__":
    main()
