#!/usr/bin/env python3
"""Numerical check of the evidence-bound chain on random small models.

For each instance: the certified relative duality gap of the posterior
mode z*, the closed-form ELBO and its lower bound, the gap against the
sparsity-based gap bound, a Monte-Carlo cross-check, and (for m <= 2) the
quadrature log evidence. Each instance runs through ``evidence_chain``,
whose named violations (an uncertified z* among them) are printed under
its row and counted; the script exits nonzero on any.
"""

import argparse
import sys

import numpy as np

from dictolearn import Dictionary
from dictolearn.elbo import MC_MIN_SAMPLES, ModelParams, evidence_chain


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--mc-samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.instances < 1:
        ap.error("--instances must be at least 1")
    if args.mc_samples < MC_MIN_SAMPLES:
        ap.error(f"--mc-samples must be at least {MC_MIN_SAMPLES}")

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
        rep, mc, se, ev, found = evidence_chain(x, d, params, args.mc_samples,
                                                int(rng.integers(2 ** 31)))
        evidence = f"{ev:10.3f}" if m <= 2 else ""
        print(f"{params.n:>3} {m:>3} {rep.support_size:>7} {rep.mode_gap:>8.1e} {rep.elbo_exact:>10.3f} "
              f"{rep.lower_bound:>10.3f} {rep.gap:>8.4f} {rep.gap_bound:>9.4f} "
              f"{(mc - rep.elbo_exact) / se:>6.2f} {evidence:>10}")
        for name in found:
            print(f"    {name}")
        violations += len(found)
    print(f"\n{violations} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
