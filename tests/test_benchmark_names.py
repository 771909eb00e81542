"""The benchmark's workloads and tracer run on the package as it stands.

``perfbench/workloads.py`` calls ``sopac`` by name: functions, fields and
options. It is loaded here read-only, and every workload builds its fixtures
and runs one tiny unit, so a rename in ``src/`` fails this suite instead of
failing the benchmark with a run that prints no result. ``perfbench/tracer.py``
wraps ``sopac`` functions by name too, so a rename must not lose a span.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"

# The tracer's targets that name functions already gone from ``src/``; no
# other target may go missing. Mending the tracer shrinks this set.
STALE_TRACE_TARGETS = {
    "sopac.learn.critic_update_wholebatch", "sopac.learn.critic_update_minibatch",
    "sopac.autodiff.matmul", "sopac.policy.replay_distributions",
    "sopac.rollout.rollout_episode", "sopac.sop.max_buffer_kl",
    *(f"sopac.autodiff.{op}" for op in ("add", "sub", "mul", "div", "sigmoid", "tanh",
                                        "exp", "log", "square", "sum_all", "sum_last",
                                        "gather_last")),
}


def load_workloads():
    """``perfbench/workloads.py`` as a module, with no bytecode cache written beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_unit_runs_without_problems(name, tmp_path):
    workload = WORKLOADS[name]
    workload.build_fixtures(3)
    assert workload.run(3, tmp_path, tiny=True).problems == []


def test_tracer_finds_every_live_target():
    # The tracer never removes its wrappers, so it is installed in a child
    # process; -B keeps that process from writing bytecode under perfbench/.
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import tracer; "
            "t = tracer.Tracer(); t.install(); print(*t.missing)")
    run = subprocess.run(
        [sys.executable, "-B", "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, check=True)
    lost = set(run.stdout.split()) - STALE_TRACE_TARGETS
    assert not lost
