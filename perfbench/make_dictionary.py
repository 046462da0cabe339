#!/usr/bin/env python3
"""Train the fixed dictionary that the reconstruction workloads load.

Runs ``train_dictionary`` once at the desk-scale acceptance config (c07:
20 jittered phantoms, m=64 atoms of 8x8, crop 64, target sparsity 64,
FISTA 40 iterations, validation every 50 steps, 5000 steps, seed 2) and
writes the atoms as a DLDICT1 file. The benchmark pins the file's
SHA-256, so the recon workloads' inputs do not depend on the training
code they would otherwise share with the ``train`` workload.

Usage, from the repository root:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python3 perfbench/make_dictionary.py
"""

import hashlib
from pathlib import Path

from dictolearn import ImageGrid, TrainConfig, random_ellipse_phantom, train_dictionary, write_dictionary
from dictolearn.tomo import AcquisitionGeometry

OUT = Path(__file__).resolve().parent / "data" / "dict_c07.dldict"


def main():
    n, h, scale = 128, 2.8, 0.05
    geom = AcquisitionGeometry(num_angles=180, num_bins=192, detector_spacing=h)
    train_set = [ImageGrid(random_ellipse_phantom(n, seed=500 + i).values * scale, h)
                 for i in range(20)]
    cfg = TrainConfig(atom_count=64, atom_side=8, target_sparsity=64.0,
                      crop_size=64, steps=5000, learning_rate=1e-3,
                      validation_interval=50, fista_iters=40, seed=2)
    dictionary, log = train_dictionary(train_set, cfg, geom=geom, cutoff_fraction=0.10)
    write_dictionary(OUT, dictionary)
    last = log.records[-1]
    print(f"wrote {OUT.name}: sparsity {last.sparsity:.1f}, lambda {last.lam:.5f}, "
          f"sha256 {hashlib.sha256(OUT.read_bytes()).hexdigest()}")


if __name__ == "__main__":
    main()
