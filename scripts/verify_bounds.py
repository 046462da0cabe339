#!/usr/bin/env python3
"""Numerical check of the evidence-bound chain on random small models.

For each instance: the certified relative duality gap of the posterior
mode z*, the closed-form ELBO and its lower bound, the gap against the
sparsity-based gap bound, a Monte-Carlo cross-check, and (for m <= 2) the
quadrature log evidence. Exits nonzero on any bound violation, and counts
a z* whose duality gap is above ``MODE_GAP_TOL`` (uncertified) as one.
"""

import argparse
import sys

import numpy as np

from dictolearn import Dictionary
from dictolearn.elbo import (
    ModelParams,
    elbo_lower_bound,
    elbo_monte_carlo,
    log_evidence_quadrature,
    posterior_mode,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--mc-samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'n':>3} {'m':>3} {'||z*||0':>7} {'mode gap':>8} {'elbo':>10} {'bound':>10} "
          f"{'gap':>8} {'gap_bound':>9} {'mc z':>6} {'evidence':>10}")
    violations = 0
    for _ in range(args.instances):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 17))
        d = Dictionary.random(m, k, int(rng.integers(2 ** 31)))
        params = ModelParams(sigma=float(rng.uniform(0.15, 0.6)),
                             b=float(rng.uniform(0.2, 0.8)),
                             b_star=float(rng.uniform(0.01, 0.2)),
                             n=k * k, m=m)
        x = rng.standard_normal(k * k) * 0.6
        z_star = posterior_mode(x, d, params)
        rep = elbo_lower_bound(x, d, params, z_star)
        mc, se = elbo_monte_carlo(x, d, params, z_star, args.mc_samples,
                                  seed=int(rng.integers(2 ** 31)))
        zscore = (mc - rep.elbo_exact) / se
        evidence = ""
        if m <= 2:
            ev = log_evidence_quadrature(x, d, params, points=2001)
            evidence = f"{ev:10.3f}"
            violations += ev < mc - 3 * se - 1e-3
        bad = not rep.holds or abs(zscore) > 4
        violations += bad
        print(f"{params.n:>3} {m:>3} {rep.support_size:>7} {rep.mode_gap:>8.1e} {rep.elbo_exact:>10.3f} "
              f"{rep.lower_bound:>10.3f} {rep.gap:>8.4f} {rep.gap_bound:>9.4f} "
              f"{zscore:>6.2f} {evidence:>10}")
    print(f"\n{violations} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
