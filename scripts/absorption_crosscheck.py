#!/usr/bin/env python3
"""Three-way absorption-law agreement on random monotone birth-death chains.

For each sampled chain the mean, variance and pmf of the hidden absorption
time are computed by matrix powers, by the spectral product formula, and by
the first-passage recurrences, each at its own automatic horizon; the worst
pairwise deviations are printed (the pmfs over the shortest horizon), with
the spread max - min of the three horizons.  The three laws come from one
engine of blocked matrix powers and share one truncation rule, so n_spread
is expected to read 0; another value means two routes disagree near the
1e-12 cut.

Usage: python3 scripts/absorption_crosscheck.py [n_chains] [seed] [max_N]

The chain sizes N are drawn uniformly from 2..max_N (default 14).  From
N of about 100 on, some random chains take longer than the 10^6-step cap of
the matrix route to be absorbed; such a chain is listed as skipped.
"""
import sys

import numpy as np

from dualchain import errors
from dualchain.chains import bd_kernel, bd_params_from_kernel
from dualchain.duals import siegmund_dual, siegmund_function
from dualchain.intertwining import build_intertwining
from dualchain.samplers import random_monotone_bd
from dualchain.spectra import bd_spectrum
from dualchain.stationary_times import (
    absorption_exact,
    absorption_recurrence,
    absorption_spectral,
)


def main(argv):
    n_chains = int(argv[1]) if len(argv) > 1 else 25
    rng = np.random.default_rng(int(argv[2]) if len(argv) > 2 else 0)
    max_n = int(argv[3]) if len(argv) > 3 else 14
    print(f"{'N':>4} {'mean':>12} {'d_mean':>10} {'d_var':>10} {'d_pmf':>10} {'n_max':>7} "
          f"{'n_spread':>8}")
    worst = 0.0
    for _ in range(n_chains):
        N = int(rng.integers(2, max_n + 1))
        params = random_monotone_bd(rng, N)
        P = bd_kernel(params)
        res = build_intertwining(P, siegmund_function(N), siegmund_dual(P).dual)
        start = np.zeros(N + 1)
        start[0] = 1.0
        try:
            ex = absorption_exact(res.p_tilde, start, N)
        except errors.TruncationTooCoarseError as e:
            print(f"{N:>4} skipped: matrix route {e}")
            continue
        sp = absorption_spectral(bd_spectrum(params))
        rc = absorption_recurrence(bd_params_from_kernel(res.p_tilde))
        horizons = [ex.n_max, sp.n_max, rc.n_max]
        k = min(horizons) + 1
        d_mean = max(abs(ex.mean - sp.mean), abs(ex.mean - rc.mean)) / ex.mean
        d_var = max(abs(ex.variance - sp.variance),
                    abs(ex.variance - rc.variance)) / ex.variance
        d_pmf = max(np.max(np.abs(ex.pmf[:k] - sp.pmf[:k])),
                    np.max(np.abs(ex.pmf[:k] - rc.pmf[:k])))
        worst = max(worst, d_mean, d_var, d_pmf)
        print(f"{N:>4} {ex.mean:>12.4f} {d_mean:>10.2e} {d_var:>10.2e} {d_pmf:>10.2e} "
              f"{ex.n_max:>7} {max(horizons) - min(horizons):>8}")
    print(f"# worst deviation: {worst:.3e}")


if __name__ == "__main__":
    main(sys.argv)
