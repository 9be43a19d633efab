"""Random instance generators for property tests and experiments."""
from __future__ import annotations

import numpy as np

from . import kernels
from .chains import BDParams, make_bd


def random_kernel(rng, n: int) -> np.ndarray:
    """Dirichlet rows; no structure beyond stochasticity."""
    return rng.dirichlet(np.ones(n), size=n)


def random_monotone_kernel(rng, n: int) -> np.ndarray:
    """Mixture of six nondecreasing deterministic maps plus a rank-one part.

    Both ingredients are monotone and the rank-one part makes every entry
    positive, so the result is a strictly positive monotone kernel.
    """
    m = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(6)):
        f = np.sort(rng.integers(0, n, size=n))
        m[np.arange(n), f] += w
    mu = rng.dirichlet(np.ones(n))
    out = 0.9 * m + 0.1 * mu[None, :]
    return kernels.validate_kernel(out, require="stochastic").matrix


def random_monotone_bd(rng, N: int) -> BDParams:
    """Birth-death chain with p_x, q_x uniform on [0.08, 0.45): p_x + q_{x+1}
    < 1 and transitions bounded away from zero, so the Siegmund dual exists
    and absorption is fast."""
    p = np.zeros(N + 1)
    q = np.zeros(N + 1)
    p[:N] = rng.uniform(0.08, 0.45, size=N)
    q[1:] = rng.uniform(0.08, 0.45, size=N)
    return make_bd(p, q)

