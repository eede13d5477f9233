"""Reference helpers shared by the tests: the float replay of a run's draw
layout, the hit-list kernel over whole error arrays, and the exact rate by
walking every grid pattern through the kernel's lanes, which pins the line
route of :func:`subqec.exact_rate_enumeration` on grids of up to 20 sites."""

import math

import numpy as np

from subqec.simulate import _Kernel


def trial_uniforms(seed: int, t0: int, t1: int, draws: int) -> np.ndarray:
    """Uniforms for trials [t0, t1); row t-t0 belongs to trial t.

    Each trial owns ceil(draws/4) Philox blocks of the stream keyed by
    ``seed``, so the rows depend only on (seed, trial index).
    """
    blocks = max(1, (draws + 3) // 4)
    bg = np.random.Philox(key=seed)
    bg.advance(t0 * blocks)
    u = np.random.Generator(bg).random((t1 - t0) * blocks * 4)
    return u.reshape(t1 - t0, blocks * 4)[:, :draws]


def batch_failures(code, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The kernel over a batch of (t, n1, n2) errors; True where recovery
    leaves a logical error."""
    z, x = z.reshape(-1).astype(bool), x.reshape(-1).astype(bool)
    idx = np.flatnonzero(z | x)
    trials, bit, phase = _Kernel(code)(idx, z[idx], x[idx])
    failed = np.zeros(len(z) // code.n, bool)
    failed[trials] = bit | phase
    return failed


def walked_exact_rate(code, noise) -> float:
    """Exact ``x_only`` or ``z_only`` failure rate by pushing all 2**n grid
    patterns through the kernel's stage: doubling over the sites gives the
    stage's lanes and the weight of every pattern, and failing patterns
    are counted by weight."""
    n = code.n
    axis, kernel = int(noise.kind == "z_only"), _Kernel(code)
    sites = kernel.lanes[:, (1 + axis) * n:][:, :n]  # X or Z hits, (lanes, n)
    lanes = np.zeros((len(sites), 1 << n), np.int64)
    weights = np.zeros(1 << n, np.uint8)
    for s in range(n):
        lanes[:, 1 << s:2 << s] = lanes[:, :1 << s] ^ sites[:, s, None]
        weights[1 << s:2 << s] = weights[:1 << s] + 1
    failing = np.bincount(weights[kernel.fails(axis, lanes)], minlength=n + 1)
    p = noise.p
    return math.fsum(int(count) * p ** w * (1.0 - p) ** (n - w)
                     for w, count in enumerate(failing) if count)
