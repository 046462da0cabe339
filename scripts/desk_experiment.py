#!/usr/bin/env python3
"""Desk-scale low-dose CT comparison: FBP vs Huber vs dictionary methods.

Trains a small dictionary on jittered phantoms, simulates a noisy scan of
a Shepp-Logan phantom, reconstructs with every method, and prints a
PSNR/SSIM table. Runs in a few minutes on one core. The scale, the scan
and the operating points are ``dictolearn.desk``'s.
"""

import argparse
import dataclasses
import time

import numpy as np

from dictolearn import (
    desk,
    fbp,
    psnr,
    reconstruct_dict,
    reconstruct_dict_patch,
    reconstruct_huber,
    ssim,
    train_dictionary,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train-steps", type=int, default=5000)
    ap.add_argument("--train-images", type=int, default=20)
    ap.add_argument("--iters", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = dataclasses.replace(desk.TRAIN, steps=args.train_steps, seed=args.seed)
    print(f"training dictionary (m={cfg.atom_count}, k={cfg.atom_side}, {cfg.steps} steps) ...")
    t0 = time.time()
    first = desk.TRAIN_PHANTOM_SEEDS[0]
    train_set = [desk.phantom(seed) for seed in range(first, first + args.train_images)]
    dictionary, log = train_dictionary(train_set, cfg, geom=desk.GEOM)
    print(f"  done in {time.time() - t0:.0f}s; "
          f"final sparsity {log.records[-1].sparsity:.0f}, lambda {log.records[-1].lam:.4f}")

    phantom = desk.phantom()
    y = desk.scan(phantom, desk.C07_NOISE_SEED + args.seed)
    data_range = float(phantom.values.max() - phantom.values.min())
    # linearize maps counts c to -ln(c / N0), so the largest y is the fewest counts.
    min_counts = desk.PHOTONS * np.exp(-y.values.max())
    print(f"noisy scan: min transmitted counts {min_counts:.0f} of {desk.PHOTONS:.0f}")

    grid, h = desk.GRID, desk.SPACING
    results = {}
    results["fbp (hann 0.75)"] = fbp(y, grid, h, window="hann", cutoff=0.75)
    results["huber"] = reconstruct_huber(y, desk.HUBER, grid, h)
    conv_cfg = dataclasses.replace(desk.CONV, iters=args.iters)
    results["dict (conv)"], _ = reconstruct_dict(y, dictionary, conv_cfg, grid, h)
    patch_cfg = dataclasses.replace(desk.PATCH, iters=args.iters)
    results["dict (patch)"], _ = reconstruct_dict_patch(y, dictionary, patch_cfg, grid, h)

    print(f"\n{'method':<16} {'PSNR (dB)':>10} {'SSIM':>8}")
    for name, img in results.items():
        print(f"{name:<16} {psnr(img, phantom, data_range):>10.2f} "
              f"{ssim(img, phantom, data_range):>8.4f}")


if __name__ == "__main__":
    main()
