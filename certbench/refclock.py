"""Timings in reference-machine seconds.

The speed of a shared 2-CPU machine can drift by a third within
minutes, so raw wall-clock medians of identical work differ by up to
30% from run to run. After about every REF_EVERY seconds of timed work,
RefClock runs a fixed numpy kernel that does not touch patchcert (small
matmuls, softmax and layer norm as in the encoder, plus larger matmuls)
and rescales the work timed since its last run by
REF_SECONDS / kernel seconds.
A faster or slower patchcert moves the result; a faster or slower
machine mostly does not. Raw seconds are kept beside the normalized ones.
"""

from __future__ import annotations

import time

import numpy as np

REF_SECONDS = 0.05  # kernel_seconds() on the 2-CPU reference machine
REF_EVERY = 1.0  # seconds of timed work between kernel runs


class RefClock:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((12, 64)).astype(np.float32)
        self._w = (0.1 * rng.standard_normal((64, 64))).astype(np.float32)
        self._b = rng.standard_normal((256, 768)).astype(np.float32)
        self._c = (0.05 * rng.standard_normal((768, 128))).astype(np.float32)
        self.raw: dict[str, list] = {}
        self.normalized: dict[str, list] = {}
        self.kernel_runs: list[float] = []
        self._pending: list[tuple[str, float]] = []

    def kernel_seconds(self) -> float:
        t0 = time.perf_counter()
        x = self._x
        for _ in range(400):
            y = x @ self._w
            y = np.exp(y - y.max(axis=-1, keepdims=True))
            y = y / y.sum(axis=-1, keepdims=True) + self._x
            x = (y - y.mean(axis=-1, keepdims=True)) / (y.std(axis=-1, keepdims=True) + 1e-5)
        for _ in range(50):
            self._b @ self._c
        return time.perf_counter() - t0

    def add(self, kind: str, seconds: float) -> None:
        """Record one timed item; normalize once enough work is pending."""
        self._pending.append((kind, seconds))
        self.raw.setdefault(kind, []).append(seconds)
        if sum(s for _, s in self._pending) >= REF_EVERY:
            self.flush()

    def flush(self) -> None:
        """Normalize the pending items by the median of one kernel run per REF_EVERY of them."""
        if not self._pending:
            return
        pending_s = sum(s for _, s in self._pending)
        runs = [self.kernel_seconds() for _ in range(max(1, round(pending_s / REF_EVERY)))]
        self.kernel_runs.extend(runs)
        ref = float(np.median(runs))
        for kind, seconds in self._pending:
            self.normalized.setdefault(kind, []).append(seconds * REF_SECONDS / ref)
        self._pending = []
