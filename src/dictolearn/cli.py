"""Command-line pipeline driver.

Subcommands wire the library end to end: ``simulate`` (phantom to noisy
sinogram), ``train`` (dictionary from an image directory), ``reconstruct``
(dict / dict-patch / fbp / huber), ``evaluate`` (PSNR/SSIM), ``sweep``
(regularization grid), ``verify-elbo`` (bound checks), and ``atoms``
(significance-ordered montage).

Every config key is also a flag with the same name, underscores written
as dashes (``phantom_size`` and ``--phantom-size``). Option precedence is
flags over the ``--config`` key=value file over built-in defaults, and
every value is parsed, by the type of its default, before any work.
Booleans accept only 1/0, true/false and yes/no. All randomness derives
from one ``--seed`` through named sub-streams. Exit codes: 0 success,
2 configuration, 3 file I/O or format, 4 numeric contract violation,
5 verification failure.

Each ``cmd_*`` returns its exit code, its input paths and its outputs as
file name -> writer. :func:`main` creates the output directory, writes
the outputs, and then the run manifest (inputs with content hashes,
output paths, seed, every option in effect, library versions), for exit
codes 0 and 5 alike. A command that raises writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
import zlib
from dataclasses import astuple
from pathlib import Path

import numpy as np
import scipy

from . import analytics, elbo, fileio, learn, recon, tomo
from .operators import ContractError, ImageGrid
from .sparse import DivergenceError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CONTRACT = 4
EXIT_VERIFY = 5


class ConfigError(ValueError):
    pass


def _substream(seed: int, name: str) -> int:
    """Named child seed: stable across commands and runs."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])
    return int(ss.generate_state(1)[0])


def _blob_hash(path: Path) -> str:
    data = path.read_bytes()
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


# Parsed arguments that are not run parameters: the dispatch, and the
# fields the manifest records on their own.
_NOT_PARAMETERS = ("func", "table", "command", "config", "seed", "out")
# The thread-count variables BLAS and OpenMP read when they load; the
# manifest records each as the environment holds it, null when unset.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _write_manifest(args, opt: dict, inputs: dict, outputs):
    """Record the run: input hashes, outputs, options and flags in effect, thread variables."""
    out_dir = Path(args.out)
    flags = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMETERS}
    manifest = {
        "command": args.command,
        "config": str(args.config) if args.config else None,
        "inputs": inputs,
        "outputs": [str(out_dir / o) for o in outputs],
        "seed": args.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "parameters": {**flags, **opt},
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# One table per command: every key is a config-file key and a
# ``--key-with-dashes`` flag, and its default's type sets how the value parses.
GEOMETRY = {
    "num_angles": 180,
    "num_bins": 192,
    "detector_spacing": 1.0,
    "angular_range": math.pi,
}
SIMULATE = {
    **GEOMETRY,
    "phantom": "shepp-logan",
    "phantom_size": 128,
    "contrast": "modified",
    "pixel_spacing": 1.0,
    "attenuation_scale": 1.0,
    "incident_photons": 50_000.0,
    "phantom_seed": 0,
}
TRAIN = {
    **GEOMETRY,
    "atom_count": 64,
    "atom_side": 8,
    "target_sparsity": 48.0,
    "adjust_constant": 0.0,        # 0 -> derived default
    "crop_size": 128,
    "steps": 5000,
    "learning_rate": 1e-3,
    "validation_interval": 50,
    "fista_iters": 50,
    "initial_lambda": 0.0,         # 0 -> derived default
    "lowpass_cutoff": 0.10,
    "remove_low_frequency": True,
}
RECONSTRUCT = {
    "angular_range": math.pi,
    "grid_size": 128,
    "pixel_spacing": 1.0,
    "lambda1": 50.0,
    "lambda2": 0.0016,
    "iters": 300,
    "lowpass_cutoff": 0.10,
    "huber_lambda": 5e-4,
    "huber_gamma": 4e-4,
    "huber_iters": 70,
    "fbp_window": "hann",
    "fbp_cutoff": 0.75,
}
SWEEP = {
    "angular_range": math.pi,
    "grid_size": 128,
    "pixel_spacing": 1.0,
    "iters": 300,
    "lowpass_cutoff": 0.10,
    "lambda1_grid": (10.0, 50.0),   # comma-separated floats
    "lambda2_grid": (0.0012, 0.0016, 0.0024),
}
CHOICES = {
    "phantom": ("shepp-logan", "random"),
    "contrast": ("standard", "modified"),
    "fbp_window": ("ramp", "hann"),
}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse(key: str, raw: str, default):
    try:
        if isinstance(default, bool):
            value = _BOOLS[raw.strip().lower()]
        elif isinstance(default, tuple):
            value = tuple(float(v) for v in raw.split(",") if v.strip())
            if not value:
                raise ValueError("empty grid")
        else:
            value = type(default)(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
    if key in CHOICES and value not in CHOICES[key]:
        raise ConfigError(f"{key!r} must be one of {', '.join(CHOICES[key])}, not {raw!r}")
    return value


def _options(args) -> dict:
    """Defaults, overridden by the config file, overridden by flags; all parsed."""
    raw = fileio.read_config(args.config) if args.config else {}
    unknown = sorted(set(raw) - set(args.table))
    if unknown:
        raise ConfigError(f"unknown config key(s) for {args.command!r}: {', '.join(unknown)}")
    raw.update((key, getattr(args, key)) for key in args.table if getattr(args, key) is not None)
    return {key: _parse(key, raw[key], default) if key in raw else default
            for key, default in args.table.items()}


def _geometry(opt: dict):
    return tomo.AcquisitionGeometry(**{key: opt[key] for key in GEOMETRY})


def _read_sinogram(opt: dict, path) -> tomo.Sinogram:
    """The file sets the angle count, bin count and detector spacing."""
    values, det_spacing = fileio.read_grid(path)
    return tomo.Sinogram(values, tomo.AcquisitionGeometry(
        *values.shape, det_spacing, angular_range=opt["angular_range"]))


def cmd_simulate(args, opt):
    geom = _geometry(opt)
    n, spacing = opt["phantom_size"], opt["pixel_spacing"]
    if opt["attenuation_scale"] < 0:
        raise ContractError("attenuation_scale must be >= 0")
    if opt["phantom"] == "shepp-logan":
        phantom = analytics.shepp_logan(n, opt["contrast"], spacing)
    else:
        phantom = analytics.random_ellipse_phantom(n, opt["phantom_seed"], spacing)
    phantom = ImageGrid(phantom.values * opt["attenuation_scale"], spacing)
    noise = tomo.NoiseModel(opt["incident_photons"], _substream(args.seed, "simulate"))

    clean = tomo.forward_project(phantom, geom)
    counts = tomo.simulate_counts(phantom, geom, noise)
    noisy = tomo.linearize(counts, noise.incident_photons, geom)

    det = geom.detector_spacing
    outputs = {
        "phantom.dlgrid": lambda path: fileio.write_grid(path, phantom.values, spacing),
        "clean_sinogram.dlgrid": lambda path: fileio.write_grid(path, clean.values, det),
        "counts.dlgrid": lambda path: fileio.write_grid(path, counts, det),
        "sinogram.dlgrid": lambda path: fileio.write_grid(path, noisy.values, det),
    }
    print(f"simulate: wrote {len(outputs)} files to {args.out}")
    return EXIT_OK, [], outputs


def _load_dataset(data_dir: Path):
    paths = sorted(data_dir.glob("*.dlgrid"))
    if not paths:
        raise ConfigError(f"no .dlgrid files in {data_dir}")
    return paths, [fileio.load_image(p) for p in paths]


def cmd_train(args, opt):
    paths, dataset = _load_dataset(Path(args.data))
    c, lam0 = opt["adjust_constant"], opt["initial_lambda"]
    cfg = learn.TrainConfig(
        **{key: opt[key] for key in (
            "atom_count", "atom_side", "target_sparsity", "crop_size", "steps",
            "learning_rate", "validation_interval", "fista_iters")},
        adjust_constant=c if c != 0 else None,
        initial_lambda=lam0 if lam0 != 0 else None,
        seed=_substream(args.seed, "train"),
    )
    # Only the low-pass split uses the geometry and cutoff, but every run
    # refuses them out of range.
    geom = _geometry(opt)
    tomo.check_cutoff(opt["lowpass_cutoff"], "lowpass_cutoff")
    split = geom if opt["remove_low_frequency"] else None

    dictionary, log = learn.train_dictionary(dataset, cfg, split, opt["lowpass_cutoff"])
    header = ("step", "lambda", "sparsity", "objective", "dead_atoms", "duality_gap")
    rows = [astuple(record) for record in log.records]
    print(f"train: {cfg.steps} steps on {len(dataset)} images "
          f"-> {Path(args.out) / 'dictionary.dldict'}")
    return EXIT_OK, paths, {
        "dictionary.dldict": lambda path: fileio.write_dictionary(path, dictionary),
        "train_log.csv": lambda path: fileio.write_csv(path, header, rows),
    }


def cmd_reconstruct(args, opt):
    if args.method not in ("dict", "dict-patch") and (args.save_coefficients or args.dictionary):
        raise ConfigError(f"method {args.method!r} takes neither --dictionary nor --save-coefficients")
    y = _read_sinogram(opt, args.sinogram)
    n, spacing, method = opt["grid_size"], opt["pixel_spacing"], args.method

    inputs = [args.sinogram]
    header = ("iter", "objective")
    coeffs = []
    if method in ("dict", "dict-patch"):
        if not args.dictionary:
            raise ConfigError(f"method {method!r} requires --dictionary")
        inputs.append(args.dictionary)
        dictionary = fileio.read_dictionary(args.dictionary)
        cfg = recon.ReconConfig(lambda1=opt["lambda1"], lambda2=opt["lambda2"],
                                iters=opt["iters"], lowpass_cutoff=opt["lowpass_cutoff"])
        solver = recon.reconstruct_dict if method == "dict" else recon.reconstruct_dict_patch
        image, trace, *coeffs = solver(y, dictionary, cfg, (n, n), spacing,
                                       return_coefficients=args.save_coefficients)
        header += ("data_term", "coupling_term", "l1_term")
        rows = [(i, f, *parts) for i, (f, parts) in enumerate(zip(trace.objective, trace.parts))]
    elif method == "fbp":
        image = tomo.fbp(y, (n, n), spacing, window=opt["fbp_window"], cutoff=opt["fbp_cutoff"])
        loss, _ = tomo.data_loss_and_gradient(image, y)
        rows = [(0, loss)]
    else:
        hcfg = recon.HuberConfig(lam=opt["huber_lambda"], gamma=opt["huber_gamma"],
                                 iters=opt["huber_iters"])
        image, objective = recon.reconstruct_huber(y, hcfg, (n, n), spacing, return_trace=True)
        rows = list(enumerate(objective))

    outputs = {"recon.dlgrid": lambda path: fileio.save_image(path, image),
               "trace.csv": lambda path: fileio.write_csv(path, header, rows)}
    if coeffs:
        # Channel-first stack: (m, rows, cols) -> (m * rows, cols).
        stack = coeffs[0].reshape(-1, coeffs[0].shape[-1])
        outputs["coefficients.dlgrid"] = lambda path: fileio.write_grid(path, stack, spacing)
    print(f"reconstruct[{method}]: wrote {Path(args.out) / 'recon.dlgrid'}")
    return EXIT_OK, inputs, outputs


def _metrics(recon_img: ImageGrid, truth: ImageGrid, data_range=None):
    if data_range is None:
        data_range = float(truth.values.max() - truth.values.min())
        if data_range <= 0:
            data_range = 1.0
    return (analytics.psnr(recon_img, truth, data_range),
            analytics.ssim(recon_img, truth, data_range))


def cmd_evaluate(args, opt):
    psnr, ssim = _metrics(fileio.load_image(args.recon), fileio.load_image(args.truth),
                          args.data_range)
    print(f"psnr={psnr} ssim={ssim}")
    return EXIT_OK, [args.recon, args.truth], {
        "metrics.csv": lambda path: fileio.write_csv(path, ("psnr", "ssim"), [(psnr, ssim)])}


def cmd_sweep(args, opt):
    y = _read_sinogram(opt, args.sinogram)
    truth = fileio.load_image(args.truth)
    dictionary = fileio.read_dictionary(args.dictionary)
    n, spacing = opt["grid_size"], opt["pixel_spacing"]
    if truth.shape != (n, n):
        raise ContractError(f"truth shape {truth.shape} != grid {(n, n)}")
    grid = [recon.ReconConfig(lambda1=lam1, lambda2=lam2, iters=opt["iters"],
                              lowpass_cutoff=opt["lowpass_cutoff"])
            for lam1 in opt["lambda1_grid"] for lam2 in opt["lambda2_grid"]]

    rows = []
    for cfg in grid:
        image, _ = recon.reconstruct_dict(y, dictionary, cfg, (n, n), spacing)
        psnr, ssim = _metrics(image, truth)
        rows.append((cfg.lambda1, cfg.lambda2, psnr, ssim))
        print(f"sweep lambda1={cfg.lambda1} lambda2={cfg.lambda2} "
              f"psnr={psnr:.3f} ssim={ssim:.4f}")
    header = ("lambda1", "lambda2", "psnr", "ssim")
    return EXIT_OK, [args.sinogram, args.truth, args.dictionary], {
        "sweep.csv": lambda path: fileio.write_csv(path, header, rows)}


def cmd_verify_elbo(args, opt):
    if args.mc_samples != 0 and args.mc_samples < elbo.MC_MIN_SAMPLES:
        raise ContractError(f"--mc-samples must be 0 or at least {elbo.MC_MIN_SAMPLES}")
    if not args.samples_dir and args.count < 1:
        raise ConfigError("--count must be at least 1 without --samples-dir")
    dictionary = fileio.read_dictionary(args.dictionary)
    k = dictionary.atom_side
    params = elbo.ModelParams(sigma=args.sigma, b=args.b, b_star=args.b_star,
                              n=k * k, m=dictionary.atom_count)
    inputs = [args.dictionary]
    samples = []
    if args.samples_dir:
        paths, images = _load_dataset(Path(args.samples_dir))
        inputs.extend(paths)
        for img in images:
            if img.shape != (k, k):
                raise ConfigError(f"sample shape {img.shape} != atom size {(k, k)}")
            samples.append(img.values.ravel())
    else:
        # Draw signals from the generative model itself.
        rng = np.random.default_rng(_substream(args.seed, "verify-elbo"))
        d = elbo.dense_matrix(dictionary)
        for _ in range(args.count):
            z = rng.laplace(0.0, params.b, size=params.m)
            x = d @ z + rng.normal(0.0, params.sigma, size=params.n)
            samples.append(x)

    rows = []
    for i, x in enumerate(samples):
        report, mc, se, _, found = elbo.evidence_chain(
            x, dictionary, params, args.mc_samples, _substream(args.seed, f"mc-{i}"))
        if found:
            print(f"verify-elbo: sample {i}: {'; '.join(found)}")
        rows.append((i, *report.as_dict().values(), mc, se, int(bool(found))))
    violations = sum(row[-1] for row in rows)
    print(f"verify-elbo: {len(samples)} samples, {violations} violations")
    header = ("sample", *elbo.ElboReport.COLUMNS, "mc_estimate", "mc_stderr", "violation")
    return EXIT_OK if violations == 0 else EXIT_VERIFY, inputs, {
        "elbo_report.csv": lambda path: fileio.write_csv(path, header, rows)}


def cmd_atoms(args, opt):
    dictionary = fileio.read_dictionary(args.dictionary)
    m = dictionary.atom_count
    sets = []
    for path in args.coefficients:
        values, _ = fileio.read_grid(path)
        if values.shape[0] % m:
            raise ConfigError(f"{path}: rows not divisible by atom count {m}")
        if not np.all(np.isfinite(values)):
            raise ContractError(f"{path}: coefficient entries must be finite")
        sets.append(values.reshape(m, -1, values.shape[1]))
    if sets:
        order, scores = analytics.atom_significance(dictionary, sets)
    else:
        order, scores = np.arange(m), np.zeros(m)
    montage = analytics.atom_montage(dictionary, order)
    print(f"atoms: montage of {m} atoms -> {Path(args.out) / 'atoms.pgm'}")
    header = ("rank", "atom_index", "score")
    rows = list(zip(range(m), order, scores))
    return EXIT_OK, [args.dictionary, *args.coefficients], {
        "atoms.pgm": lambda path: fileio.write_pgm16(path, montage),
        "significance.csv": lambda path: fileio.write_csv(path, header, rows),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dictolearn",
                                     description="Dictionary learning for low-dose CT.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key=value configuration file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", required=True, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, table, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        for key in table:
            p.add_argument("--" + key.replace("_", "-"))
        p.set_defaults(func=func, table=table)
        return p

    command("simulate", cmd_simulate, SIMULATE, "phantom -> noisy sinogram")

    p = command("train", cmd_train, TRAIN, "learn a dictionary from images")
    p.add_argument("--data", required=True, help="directory of DLGRID1 images")

    p = command("reconstruct", cmd_reconstruct, RECONSTRUCT, "sinogram -> image")
    p.add_argument("--sinogram", required=True)
    p.add_argument("--dictionary", default=None)
    p.add_argument("--method", required=True, choices=["dict", "dict-patch", "fbp", "huber"])
    p.add_argument("--save-coefficients", action="store_true")

    p = command("evaluate", cmd_evaluate, {}, "PSNR/SSIM of a reconstruction")
    p.add_argument("--recon", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--data-range", dest="data_range", type=float, default=None)

    p = command("sweep", cmd_sweep, SWEEP, "grid over lambda1 x lambda2")
    p.add_argument("--sinogram", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--dictionary", required=True)

    p = command("verify-elbo", cmd_verify_elbo, {}, "evidence-bound checks")
    p.add_argument("--dictionary", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--b-star", dest="b_star", type=float, required=True)
    p.add_argument("--samples-dir", dest="samples_dir", default=None)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=0)

    p = command("atoms", cmd_atoms, {}, "significance-ordered atom montage")
    p.add_argument("--dictionary", required=True)
    p.add_argument("--coefficients", nargs="*", default=[])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opt = _options(args)
        code, inputs, outputs = args.func(args, opt)
        # Hash the inputs before an output can overwrite one of them.
        inputs = {str(p): _blob_hash(Path(p)) for p in inputs}
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, write in outputs.items():
            write(out_dir / name)
        _write_manifest(args, opt, inputs, outputs)
        return code
    except ConfigError as exc:
        print(f"error:config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (fileio.FormatError, OSError) as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ContractError, DivergenceError) as exc:
        print(f"error:contract: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
