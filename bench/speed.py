"""Samples of the host's speed, to scale measured times to a reference speed.

The host's speed changes by itself, by up to half between runs a minute
apart, on every kind of op at once (README.md). A run therefore times two
fixed references of the benchmark's own, neither of which imports ``tpl``:

- ``process``: an exact 4x4x4 contraction by ``oracle.modewise`` in this
  process, for ops that run in this process;
- ``child``: a fresh interpreter running ``oracle.py``, which imports numpy
  and compiles the module, for ops that run in a child process.

A time measured for one kind of work is scaled by ``REF_S[kind]`` over the
median of that kind's samples in the run: it becomes the time the work
would take on a host where the reference takes ``REF_S[kind]``.
"""

from __future__ import annotations

import itertools
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracle

# Near the references' median times on the 2-CPU test machine, so that scaled
# times read close to measured ones there.
REF_S = {"process": 0.005, "child": 0.15}


def _contraction_inputs():
    rng = random.Random("reference")

    def value():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(0)

    entries = {idx: value() for idx in itertools.product(range(4), repeat=3)}
    return entries, [{c: [(r, value()) for r in range(4)] for c in range(4)} for _ in range(3)]


ENTRIES, MAPS = _contraction_inputs()


class Speed:
    """Reference samples of one run, by kind of work."""

    def __init__(self, env, cwd):
        self.env, self.cwd = env, cwd
        self.samples = {kind: [] for kind in REF_S}

    def sample(self, kind):
        """Time the reference of ``kind`` once and keep the sample."""
        if kind == "process":
            start = perf_counter()
            oracle.modewise(ENTRIES, MAPS)
        else:
            command = [sys.executable, str(Path(oracle.__file__))]
            start = perf_counter()
            subprocess.run(command, env=self.env, cwd=self.cwd, capture_output=True, timeout=120, check=True)
        self.samples[kind].append(perf_counter() - start)

    def scale(self, kind):
        """Factor from measured seconds of ``kind`` to seconds at reference speed."""
        return REF_S[kind] / statistics.median(self.samples[kind])

    def report(self):
        return "; ".join(f"{kind} reference {statistics.median(s) * 1e3:.4g} ms (median of {len(s)}), "
                         f"times scaled by {self.scale(kind):.4g}" for kind, s in self.samples.items())
