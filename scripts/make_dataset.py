#!/usr/bin/env python3
"""Write a directory of DLGRID1 phantom images for CLI training runs."""

import argparse
from pathlib import Path

from dictolearn import desk, random_ellipse_phantom, write_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", type=Path)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--size", type=int, default=desk.N)
    ap.add_argument("--pixel-spacing", type=float, default=desk.SPACING)
    ap.add_argument("--attenuation-scale", type=float, default=desk.ATTENUATION_SCALE)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        phantom = random_ellipse_phantom(args.size, seed=args.seed * 10_000 + i)
        write_grid(args.out / f"phantom{i:04d}.dlgrid",
                   phantom.values * args.attenuation_scale, args.pixel_spacing)
    print(f"wrote {args.count} phantoms to {args.out}")


if __name__ == "__main__":
    main()
