"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark runs on a few virtual cores of a shared host, whose speed
drifts by up to a third over minutes: the same code, timed a few minutes
apart, differs by more than any bound a regression gate could use. A run
times this kernel before the first timed interval and after each one (each
set-up probe, each stage group of each pipeline run), and scales every
interval's wall time towards a host on which the kernel takes
``NOMINAL_S``, using the kernel samples nearest to it in time:

    scaled = wall * (NOMINAL_S / median(WINDOW samples before, WINDOW after)) ** ELASTICITY

A window of samples, rather than the two next to the interval, because one
kernel run is too short to average out the host's second-to-second jitter.
``ELASTICITY`` is below 1 because the pipeline's stages slow down less than
the kernel when the host is busy: regressing log stage time on log kernel
time within runs, over 80 runs of the three workloads, gave slopes of 0.5
(train), 0.66 (the later stages) and 0.74 (preprocess). Full scaling (1.0)
over-corrects in quiet periods and adds noise.

The kernel uses no code of the program under test. A change to the program
alters the kernel's time only through work it leaves running between
stages (threads or worker processes still busy); the raw wall times in the
report show such a case. The kernel mixes what the pipeline does: sorting
and regex work on Python strings, dict building, and small float64 matmuls
with a ``tanh``, in the encoder's (B*T, H) @ (H, H) shape. Garbage
collection is off while it runs, so the program's heap size cannot slow it.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import time

import numpy as np

# Median kernel time on the 2-vCPU Xeon KVM guest the benchmark was tuned
# on; it only sets the scale of the reported times.
NOMINAL_S = 0.05
WINDOW = 6
ELASTICITY = 0.7

_VOWELS = re.compile(r"[aeiou]+")


class Reference:
    """The kernel's inputs, and the kernel times sampled so far."""

    def __init__(self):
        self.samples: list[float] = []
        rnd = random.Random(7)
        self._words = ["".join(rnd.choice("abcdefghijklmnop") for _ in range(7)) for _ in range(3000)]
        self._pairs = [(w, w[::-1]) for w in self._words]
        rng = np.random.default_rng(7)
        self._x = rng.standard_normal((3072, 32))
        self._w = rng.standard_normal((32, 32)) * 0.1

    def _kernel(self) -> int:
        acc = 0
        for _ in range(8):
            acc += len(sorted(self._pairs))
            acc += sum(len(_VOWELS.sub("_", w)) for w in self._words)
            index = {w: i for i, w in enumerate(self._words)}
            acc += sum(index[w] for w in self._words[::3])
        h = self._x
        for _ in range(40):
            h = np.tanh(h @ self._w)
        return acc + int(h.shape[0])

    def sample(self) -> None:
        """Time one kernel run and keep the sample."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def position(self) -> int:
        """Where an interval that starts now sits among the samples."""
        return len(self.samples)

    def scale(self, wall: float, position: int) -> float:
        """``wall``, timed at ``position``, as it would read on the nominal
        host. Call once every sample of the run is taken."""
        near = self.samples[max(0, position - WINDOW):position + WINDOW]
        return wall * (NOMINAL_S / statistics.median(near)) ** ELASTICITY

    def run_scale(self) -> float:
        """The factor for times pooled over the whole run."""
        return (NOMINAL_S / statistics.median(self.samples)) ** ELASTICITY
