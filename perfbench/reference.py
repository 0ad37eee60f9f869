"""The reference loop: fixed pure-Python work that op times are divided by.

It imports nothing from ucf, so no change to the program moves it. Its four
kernels each take about a quarter of the loop on the host the benchmark was
built on (a shared 2-vCPU VM, Python 3.11): integer and set work, Fraction
arithmetic, tuple, frozenset and dict building, and function calls with
keyword arguments. On that host other tenants slow this process by up to
2.5x, and each kind of work by its own share. The program's ops are a mix
of the four, and the sum tracks them better than any one kernel: over 17 s
windows for 6.5 minutes on that host, the window medians of op time / loop
time spread 0.04-0.05, against up to 0.14 with one kernel and 0.21-0.33
for the op time alone.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction


def _ints_and_sets() -> None:
    acc = 0
    seen = set()
    for i in range(20_000):
        x = (acc ^ i) & 0x3FF
        if x in seen:
            acc += x >> 3
        else:
            seen.add(x)
        acc = (acc * 33 + i) & 0xFFFFF


def _fractions() -> None:
    total = Fraction(0)
    for i in range(1, 700):
        q = Fraction(i, i + 7)
        total += q
        if q < total / i:
            total -= Fraction(1, i)


def _containers() -> None:
    counts: dict[tuple, int] = {}
    for i in range(5_000):
        k = (i * 7919) & 0x3FFF
        key = (k, k >> 3, i & 7)
        counts[key] = counts.get(key, 0) + 1
        len(frozenset((k & 15, k >> 10, 3)) | {i & 31})


def _calls() -> None:
    def outer(a, b=1, *, c=2):
        return inner(a + b, c)

    def inner(x, y):
        return (x ^ y) & 0xFFFF

    acc = 0
    for i in range(25_000):
        acc = outer(acc, i, c=3)


KERNELS = (_ints_and_sets, _fractions, _containers, _calls)


def reference_loop() -> float:
    """Seconds of one run of the four kernels, with the collector off so
    that the size of the program's heap does not reach them."""
    clock = time.perf_counter
    gc.disable()
    try:
        start = clock()
        for kernel in KERNELS:
            kernel()
        return clock() - start
    finally:
        gc.enable()
