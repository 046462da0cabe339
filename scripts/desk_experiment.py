#!/usr/bin/env python3
"""Desk-scale low-dose CT comparison: FBP vs Huber vs dictionary methods.

Trains a small dictionary on jittered phantoms, simulates a noisy scan of
a Shepp-Logan phantom, reconstructs with every method, and prints a
PSNR/SSIM table. Runs in a few minutes on one core.
"""

import argparse
import time

import numpy as np

from dictolearn import (
    AcquisitionGeometry,
    HuberConfig,
    ImageGrid,
    NoiseModel,
    ReconConfig,
    TrainConfig,
    fbp,
    linearize,
    psnr,
    random_ellipse_phantom,
    reconstruct_dict,
    reconstruct_dict_patch,
    reconstruct_huber,
    shepp_logan,
    simulate_counts,
    ssim,
    train_dictionary,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=128)
    ap.add_argument("--pixel-spacing", type=float, default=2.8)
    ap.add_argument("--attenuation-scale", type=float, default=0.05)
    ap.add_argument("--photons", type=float, default=50_000.0)
    ap.add_argument("--train-steps", type=int, default=5000)
    ap.add_argument("--train-images", type=int, default=20)
    ap.add_argument("--iters", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    n, h = args.size, args.pixel_spacing
    geom = AcquisitionGeometry(num_angles=180, num_bins=192, detector_spacing=h)

    print(f"training dictionary (m=64, k=8, {args.train_steps} steps) ...")
    t0 = time.time()
    train_set = [ImageGrid(random_ellipse_phantom(n, seed=500 + i).values * args.attenuation_scale, h)
                 for i in range(args.train_images)]
    cfg = TrainConfig(atom_count=64, atom_side=8, target_sparsity=64.0,
                      crop_size=64, steps=args.train_steps, learning_rate=1e-3,
                      validation_interval=50, fista_iters=40, seed=args.seed)
    dictionary, log = train_dictionary(train_set, cfg, geom=geom, cutoff_fraction=0.10)
    print(f"  done in {time.time() - t0:.0f}s; "
          f"final sparsity {log.records[-1].sparsity:.0f}, lambda {log.records[-1].lam:.4f}")

    phantom = ImageGrid(shepp_logan(n, "modified").values * args.attenuation_scale, h)
    counts = simulate_counts(phantom, geom, NoiseModel(args.photons, seed=args.seed + 11))
    y = linearize(counts, args.photons, geom)
    data_range = float(phantom.values.max() - phantom.values.min())
    print(f"noisy scan: min transmitted counts {counts.min():.0f} of {args.photons:.0f}")

    results = {}
    results["fbp (hann 0.75)"] = fbp(y, (n, n), h, window="hann", cutoff=0.75)
    results["huber"] = reconstruct_huber(y, HuberConfig(lam=0.2, gamma=2e-4, iters=70), (n, n), h)
    conv_cfg = ReconConfig(lambda1=1000.0, lambda2=0.1, iters=args.iters, lowpass_cutoff=0.10)
    results["dict (conv)"], _ = reconstruct_dict(y, dictionary, conv_cfg, (n, n), h)
    patch_cfg = ReconConfig(lambda1=400.0, lambda2=0.075, iters=args.iters, lowpass_cutoff=0.10)
    results["dict (patch)"], _ = reconstruct_dict_patch(y, dictionary, patch_cfg, (n, n), h)

    print(f"\n{'method':<16} {'PSNR (dB)':>10} {'SSIM':>8}")
    for name, img in results.items():
        print(f"{name:<16} {psnr(img, phantom, data_range):>10.2f} "
              f"{ssim(img, phantom, data_range):>8.4f}")


if __name__ == "__main__":
    main()
