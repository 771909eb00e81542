"""How fast this machine runs code like the program's, at this moment.

A shared virtual machine runs user code at a speed that drifts by up to
about 1.8x over tens of seconds to minutes, as its neighbours load the host.
Wall times of the same unit of work taken minutes apart differ by that much,
which hides any change to the program smaller than about 20%. The benchmark
therefore times fixed kernels next to the program and reports times in
reference seconds: measured seconds x a kernel's time on the baseline
machine / the kernel's time now. The kernels use numpy only, never
``sopac``, so a change to the program leaves them alone.

Two kernels are defined here:

- :func:`reference_kernel`, about 10 ms of interpreter-bound small-numpy
  work, brackets each ~50 ms set-up;
- :class:`SpeedIndex`, about 0.4 s, runs before the first unit of work and
  after each one. The slow spells slow the program's units more than they
  slow interpreter-bound code alone (the units hold a larger working set),
  so the index is the geometric mean of three kernels that stress
  different parts of the machine: the interpreter with small numpy calls,
  pointer chasing through a few MB of Python objects, and single-threaded
  BLAS on arrays of a few MB.

numpy is imported inside the functions, so that importing this module does
not load it before the benchmark has pinned BLAS to one thread.
"""

from __future__ import annotations

import time

# Kernel times that define one reference second: about their times on the
# machine the baseline was measured on (a 2-vCPU Intel Xeon VM).
REF_KERNEL_S = 0.012
SPEED_INDEX_REF_S = 0.13


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of Python and small-numpy work, about
    10 ms."""
    import numpy as np

    rng = np.random.default_rng(12345)
    layers = rng.standard_normal((3, 32, 32)) / 6.0
    rows = rng.standard_normal((64, 4, 32))
    wide = rng.standard_normal((64, 128)) / 8.0
    batch = rng.standard_normal((256, 64))
    start = time.perf_counter()
    kept: list = []
    for i in range(600):
        h = rows[i % 64]
        for w in layers:
            h = np.tanh(np.matmul(h[:, None, :], w)[:, 0, :] + 0.1)
        kept.append({"h": h, "sum": float(h.sum())})
        del kept[:-8]
    np.maximum(np.matmul(batch[:, None, :], wide)[:, 0, :], 0.0)
    return time.perf_counter() - start


class SpeedIndex:
    """Calling it times the three kernels and returns the geometric mean of
    their seconds, about ``SPEED_INDEX_REF_S`` on the baseline machine.

    Building and calling it raise the process's peak memory by about 50 MB,
    so build it only after the peak memory of interest has been read.
    """

    CHASE_NODES = 60_000
    CHASE_HOPS = 250_000
    BLAS_REPEATS = 4
    REFERENCE_REPEATS = 10

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(2104)
        nodes = [{"value": float(i), "next": None} for i in range(self.CHASE_NODES)]
        order = rng.permutation(self.CHASE_NODES).tolist()
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here]["next"] = nodes[there]
        self.nodes = nodes
        self.weights = rng.standard_normal((512, 512)) * 0.05
        self.inputs = rng.standard_normal((2000, 512))

    def chase(self) -> float:
        start = time.perf_counter()
        node, total = self.nodes[0], 0.0
        for _ in range(self.CHASE_HOPS):
            total += node["value"]
            node = node["next"]
        return time.perf_counter() - start

    def blas(self) -> float:
        import numpy as np

        start = time.perf_counter()
        for _ in range(self.BLAS_REPEATS):
            np.tanh(self.inputs @ self.weights).sum(axis=0)
        return time.perf_counter() - start

    def __call__(self) -> float:
        interpreter = sum(reference_kernel() for _ in range(self.REFERENCE_REPEATS))
        return (interpreter * self.chase() * self.blas()) ** (1.0 / 3.0)
