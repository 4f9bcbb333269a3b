"""Reference kernel for normalising the benchmark's timings.

A fixed piece of numpy and Python work that uses no pcmkit code; run.py
times it between operations to tell how slow the machine runs.  Run as a
script, this module is the helper process that times the kernel on the
second core: each line read from standard input asks for one timing,
written back as one line, and the process ends when standard input closes.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

_KERNEL_RNG = np.random.default_rng(20221117)
_KERNEL_ONE = _KERNEL_RNG.random((9, 9)) + 0.5
_KERNEL_STACK = _KERNEL_RNG.random((1024, 6, 6)) + 0.5


def _kernel_once() -> float:
    """Small-array and batched power-iteration steps plus a Python loop, the
    three kinds of work the pcmkit workloads do."""
    t0 = time.perf_counter()
    for _ in range(200):
        w = np.full(9, 1 / 9)
        v = _KERNEL_ONE @ w
        lam = (v / w).mean()
        np.max(np.abs(v - lam * w) / w)
    w = np.full((1024, 6), 1 / 6)
    for _ in range(20):
        v = np.matmul(_KERNEL_STACK, w[:, :, None])[:, :, 0]
        lam = (v / w).mean(axis=1)
        np.max(np.abs(v - lam[:, None] * w) / w, axis=1)
        w = v / v.sum(axis=1)[:, None]
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - t0


def kernel_s() -> float:
    """The kernel's time in seconds, median of three."""
    return float(statistics.median(_kernel_once() for _ in range(3)))


def serve() -> None:
    for _ in sys.stdin:
        print(repr(kernel_s()), flush=True)


if __name__ == "__main__":
    serve()
