"""The benchmark's workloads run on the package as it stands.

``perfbench/workloads.py`` calls ``sopac`` by name: functions, fields and
options. It is loaded here read-only, and every workload builds its fixtures
and runs one tiny unit, so a rename in ``src/`` fails this suite instead of
failing the benchmark with a run that prints no result.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
