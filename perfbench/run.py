"""Run one workload of the sopac benchmark and print its metrics.

    python3 perfbench/run.py --workload capture-comacc-permissive \
        --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, measured with no wrapper installed. With
``--trace 1`` it holds the per-layer metrics: the process first takes
untraced repeats, then wraps every ``sopac`` layer and takes traced ones.
End-to-end times are in reference seconds: wall time scaled by fixed
kernels timed next to the program (``perfbench/calibrate.py``), so that the
drifting speed of a shared machine cancels out.
Lines before it are a human-readable report. The exit code is 0 only when
every operation passed its checks. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import REF_KERNEL_S, SPEED_INDEX_REF_S, SpeedIndex, reference_kernel
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-ups per invocation. The first pays the cold imports (numpy); the
# median is taken over the others, which re-import only ``sopac``.
SETUP_REPEATS = 9
# Each invocation runs a training config at least this often after its
# untimed first run, so determinism is always checked.
MIN_REPEATS = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "env_steps_per_s": "steps/s",
    "peak_rss_mb": "MiB",
}


class Session:
    """Runs the workload's unit of work and keeps the failure count.

    An operation fails when it raises, when its checks find a problem, or
    when its output differs from the first operation of the invocation.
    """

    def __init__(self, workload, seed: int, tiny: bool, scratch: Path):
        self.workload, self.seed, self.tiny, self.scratch = workload, seed, tiny, scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: Outcome | None = None
        self.tracer = None
        self.speed_s: list[float] = []

    def op(self) -> Outcome | None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = self.attempted
        out_dir = self.scratch / f"op{self.attempted}"
        try:
            outcome = self.workload.run(self.seed, out_dir, self.tiny)
        except Exception:  # any failure of the program is a failed operation
            self.failed += 1
            self.problems.append(traceback.format_exc())
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.reference is None:
            self.reference = outcome
        elif outcome.fingerprint != self.reference.fingerprint:
            outcome.problems.append("output differs from the first run of this invocation")
        if outcome.problems:
            self.failed += 1
            self.problems.extend(outcome.problems)
            return None
        return outcome

    def repeat(self, seconds: float, speed: SpeedIndex | None = None) -> list[Outcome]:
        """Repeat the unit until the next one would end after ``seconds``.

        With a ``speed`` index, it is timed before the first unit and after
        each one, and its times are kept in ``self.speed_s``.
        """
        done: list[Outcome] = []
        deadline = time.perf_counter() + seconds
        if speed is not None:
            self.speed_s.append(speed())
        while len(done) < MIN_REPEATS or (
                time.perf_counter() + statistics.median(o.seconds for o in done) <= deadline):
            outcome = self.op()
            if outcome is None:
                break
            done.append(outcome)
            if speed is not None:
                self.speed_s.append(speed())
        return done


def timed_setup(workload, seed: int) -> float:
    """Import ``sopac`` afresh and build the workload's fixtures."""
    for name in [m for m in sys.modules if m == "sopac" or m.startswith("sopac.")]:
        del sys.modules[name]
    start = time.perf_counter()
    workload.build_fixtures(seed)
    return time.perf_counter() - start


def timed_setups(workload, seed: int, count: int) -> tuple[float, list[tuple[float, float]]]:
    """Seconds of the first, cold set-up; then (seconds, reference kernel
    seconds around them) of each further one."""
    cold = timed_setup(workload, seed)
    warm = []
    before = reference_kernel()
    for _ in range(count - 1):
        seconds = timed_setup(workload, seed)
        after = reference_kernel()
        warm.append((seconds, (before + after) / 2.0))
        before = after
    return cold, warm


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import hashlib

    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "sopac").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def median(values) -> float:
    return float(statistics.median(values))


def cross_checks(workload, outcome: Outcome, metrics: dict, calls: dict,
                 tiny: bool) -> dict[str, bool]:
    """Whether the tracer saw all the work, against counts the program reports.

    These hold for the call structure at the benchmark's commit. They check
    the tracer, not the program, so a failure is reported but does not fail
    the invocation: a change that, say, shares the actor unroll will show it.
    """
    if workload.training:
        updates = metrics["learn.train_on_batch.calls"]
        per_update = workload.unroll_per_update()
        return {
            "rollout.episode.calls == manifest episodes + evaluation episodes":
                metrics["rollout.episode.calls"] == outcome.episodes + outcome.eval_episodes,
            "sop.sampled_episodes == manifest episodes":
                metrics["sop.sampled_episodes"] == outcome.episodes,
            f"learn.unroll_policy.calls == {per_update} x learn.train_on_batch.calls":
                updates > 0 and metrics["learn.unroll_policy.calls"] == per_update * updates,
        }
    seeds = workload.grad_seeds(tiny)
    return {
        "verify.gradient_suite.calls == 1":
            calls.get("verify.gradient_suite") == 1,
        f"autodiff.finite_diff_check.calls == 4 x {seeds} gradient-suite seeds":
            metrics["autodiff.finite_diff_check.calls"] == 4 * seeds,
        "oracle.exact_action_values.calls == 2 (through verify's binding, and directly)":
            calls.get("oracle.exact_action_values") == 2,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent on measured repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the unit of work (for the smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "sopac" / "__init__.py").is_file():
        print(f"error: no sopac package under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads, in this process only.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"ops-{os.getpid()}"
    try:
        return measure(args, workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def end_to_end(first: Outcome, untraced: list[Outcome], speed_s: list[float],
               peak_rss_mb: float, cold: float, setups: list[tuple[float, float]]):
    """End-to-end metrics, a note on each, and the samples for the record.

    Each unit's wall time is scaled by the speed index's mean time just
    before and just after it; ``run_s`` is the median of the scaled times.
    """
    wall_s = median(o.seconds for o in untraced)
    run_s = median(o.seconds * SPEED_INDEX_REF_S * 2.0 / (before + after)
                   for o, before, after in zip(untraced, speed_s, speed_s[1:]))
    setup_wall_s = median(s for s, _ in setups)
    metrics = {
        "setup_s": median(s * REF_KERNEL_S / k for s, k in setups),
        "run_s": run_s,
        "env_steps_per_s": first.env_steps / run_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups after the first, in reference s "
                   f"(wall {setup_wall_s:.4f} s); the first, cold, took {cold:.4f} s",
        "run_s": f"median of {len(untraced)} repeats after one untimed run, in reference s "
                 f"(wall {wall_s:.4f} s; speed index {median(speed_s):.4f} s, "
                 f"{SPEED_INDEX_REF_S} s on the reference machine)",
        "env_steps_per_s": f"{first.env_steps} env steps per unit of work, over run_s",
        "peak_rss_mb": "peak resident memory of set-up and the untimed first run",
    }
    record = {"repeats_s": [o.seconds for o in untraced], "wall_run_s": wall_s,
              "speed_index_s": speed_s, "setup_wall_s": setup_wall_s,
              "cold_setup_s": cold, "setups_s_and_kernel_s": setups}
    return metrics, notes, record


def per_layer(args, workload, session: Session, first: Outcome, untraced: list[Outcome]):
    """Install the tracer, take traced repeats, and derive the per-layer
    metrics; also the report lines and the record of the traced runs."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    session.tracer = tracer
    traced = session.repeat(args.seconds / 2)
    if not traced:
        return {}, {}, [], {}
    metrics, calls, differ = tracing.layer_metrics(tracer)
    metrics["trace.overhead"] = (median(o.seconds for o in traced)
                                 / median(o.seconds for o in untraced) - 1.0)
    notes = {"trace.overhead": f"median of {len(traced)} traced over "
                               f"{len(untraced)} untraced repeats, minus 1"}
    if differ:
        session.failed += 1
        session.problems.append(f"counts differ between traced runs: {differ}")
    checks = cross_checks(workload, first, metrics, calls, args.tiny)
    lines = [f"# cross-check {'PASS' if ok else 'FAIL'}: {check}" for check, ok in checks.items()]
    spans = OUT / f"{workload.name}-seed{args.seed}-spans.npz"
    tracer.save(spans)
    lines.append(f"# {len(tracer.start)} spans over {len(traced)} traced runs "
                 f"written to {spans.relative_to(ROOT)}")
    if tracer.missing:
        lines.append(f"# not traced (missing): {', '.join(tracer.missing)}")
    record = {"cross_checks": checks, "missing_targets": tracer.missing,
              "traced_s": [o.seconds for o in traced],
              "untraced_s": [o.seconds for o in untraced]}
    return metrics, notes, lines, record


def measure(args, workload, scratch: Path) -> int:
    if args.trace:
        import tracer as tracing

        units = tracing.PER_LAYER
    else:
        units = END_TO_END
    cold, setups = timed_setups(workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    import sopac

    if not Path(sopac.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported sopac from {sopac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    session = Session(workload, args.seed, args.tiny, scratch)
    first = session.op()  # warm-up, and the reference for every later run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if first is None:
        untraced = []
    elif args.trace:
        untraced = session.repeat(args.seconds / 2)
    else:
        untraced = session.repeat(args.seconds, SpeedIndex())

    lines = [f"# sopac benchmark: {workload.name}, seed {args.seed}, trace {args.trace}",
             f"# environment: {json.dumps(env, sort_keys=True)}"]
    record: dict = {"workload": workload.name, "seconds": args.seconds, "tiny": args.tiny,
                    "trace": args.trace, "environment": env}
    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    if untraced and not args.trace:
        metrics, notes, extra = end_to_end(first, untraced, session.speed_s, peak_rss_mb,
                                           cold, setups)
        record.update(extra)
    elif untraced:
        metrics, notes, extra_lines, extra = per_layer(args, workload, session, first, untraced)
        lines += extra_lines
        record.update(extra)

    if first is not None and first.test_return_mean is not None:
        record["test_return_mean"] = first.test_return_mean
        if not args.trace:
            lines.append(f"# test_return_mean {first.test_return_mean!r} reward "
                         "(mean test_return over metrics.csv rows; fixed per seed)")
    error_rate = session.failed / session.attempted
    lines.append(f"# error_rate {error_rate!r} fraction "
                 f"({session.failed} failed of {session.attempted} operations)")
    for problem in session.problems:
        lines.append("# problem: " + problem.strip().replace("\n", "\n#   "))
    for name, unit in units.items():
        if name in metrics:
            lines.append(f"{name:40s} {metrics[name]!r:>24} {unit:8s} "
                         f"{notes.get(name, '')}".rstrip())

    result = {
        "correct": session.failed == 0 and metrics.keys() == units.keys(),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    record.update(result, error_rate=error_rate, problems=session.problems)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
