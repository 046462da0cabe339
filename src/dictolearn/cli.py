"""Command-line pipeline driver.

Subcommands wire the library end to end: ``simulate`` (phantom to noisy
sinogram), ``train`` (dictionary from an image directory), ``reconstruct``
(dict / dict-patch / fbp / huber), ``evaluate`` (PSNR/SSIM), ``sweep``
(regularization grid), ``verify-elbo`` (bound checks), and ``atoms``
(significance-ordered montage).

Every command records a run manifest (inputs with content hashes, output
paths, seed) before doing any work. Option precedence is flags over the
``--config`` key=value file over built-in defaults. All randomness
derives from one ``--seed`` through named sub-streams. Exit codes:
0 success, 2 configuration, 3 file I/O or format, 4 numeric contract
violation, 5 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from . import analytics, elbo, fileio, learn, recon, tomo
from .operators import CoefficientMaps, ContractError, Dictionary, ImageGrid
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


def _write_manifest(out_dir: Path, command: str, args, inputs, outputs, params):
    manifest = {
        "command": command,
        "config": str(args.config) if args.config else None,
        "inputs": {str(p): _blob_hash(Path(p)) for p in inputs},
        "outputs": [str(out_dir / o) for o in outputs],
        "seed": args.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "parameters": params,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


class Options:
    """Merged view of defaults, config file, and command-line flags."""

    def __init__(self, args, defaults: dict):
        self.defaults = defaults
        self.file = fileio.read_config(args.config) if args.config else {}
        self.args = args
        unknown = sorted(set(self.file) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config key(s) for {args.command!r}: {', '.join(unknown)}")

    def get(self, key: str, cast=float):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.file:
            raw = self.file[key]
            try:
                if cast is bool:
                    return raw.strip().lower() in ("1", "true", "yes")
                return cast(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        if key not in self.defaults:
            raise ConfigError(f"missing required option {key!r}")
        return self.defaults[key]


_GEOMETRY_DEFAULTS = {
    "num_angles": 180,
    "num_bins": 192,
    "detector_spacing": 1.0,
    "angular_range": math.pi,
}


def _geometry(opt: Options):
    return tomo.AcquisitionGeometry(
        **{key: opt.get(key, type(default)) for key, default in _GEOMETRY_DEFAULTS.items()})


def _read_sinogram(opt: Options, path) -> tomo.Sinogram:
    """The file sets the angle count, bin count and detector spacing."""
    values, det_spacing = fileio.read_grid(path)
    return tomo.Sinogram(values, tomo.AcquisitionGeometry(
        *values.shape, det_spacing, angular_range=opt.get("angular_range", float)))


def cmd_simulate(args) -> int:
    opt = Options(args, {
        **_GEOMETRY_DEFAULTS,
        "phantom": "shepp-logan",
        "phantom_size": 128,
        "contrast": "modified",
        "pixel_spacing": 1.0,
        "attenuation_scale": 1.0,
        "incident_photons": 50_000.0,
        "phantom_seed": 0,
    })
    out = Path(args.out)
    geom = _geometry(opt)
    n = opt.get("phantom_size", int)
    spacing = opt.get("pixel_spacing", float)
    kind = opt.get("phantom", str)
    if kind == "shepp-logan":
        phantom = analytics.shepp_logan(n, opt.get("contrast", str), spacing)
    elif kind == "random":
        phantom = analytics.random_ellipse_phantom(n, opt.get("phantom_seed", int), spacing)
    else:
        raise ConfigError(f"unknown phantom {kind!r}")
    phantom = ImageGrid(phantom.values * opt.get("attenuation_scale", float), spacing)
    n0 = opt.get("incident_photons", float)

    outputs = ["phantom.dlgrid", "clean_sinogram.dlgrid", "counts.dlgrid", "sinogram.dlgrid"]
    _write_manifest(out, "simulate", args, [], outputs,
                    {"phantom": kind, "size": n, "incident_photons": n0})

    clean = tomo.forward_project(phantom, geom)
    counts = tomo.simulate_counts(phantom, geom, tomo.NoiseModel(n0, _substream(args.seed, "simulate")))
    noisy = tomo.linearize(counts, n0, geom)

    fileio.write_grid(out / "phantom.dlgrid", phantom.values, spacing)
    fileio.write_grid(out / "clean_sinogram.dlgrid", clean.values, geom.detector_spacing)
    fileio.write_grid(out / "counts.dlgrid", counts, geom.detector_spacing)
    fileio.write_grid(out / "sinogram.dlgrid", noisy.values, geom.detector_spacing)
    print(f"simulate: wrote {len(outputs)} files to {out}")
    return EXIT_OK


def _load_dataset(data_dir: Path):
    paths = sorted(data_dir.glob("*.dlgrid"))
    if not paths:
        raise ConfigError(f"no .dlgrid files in {data_dir}")
    return paths, [fileio.load_image(p) for p in paths]


def cmd_train(args) -> int:
    opt = Options(args, {
        **_GEOMETRY_DEFAULTS,
        "atom_count": 64,
        "atom_side": 8,
        "target_sparsity": 48.0,
        "adjust_constant": 0.0,        # 0 -> derived default
        "crop_size": 128,
        "steps": 5000,
        "learning_rate": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-8,
        "validation_interval": 50,
        "fista_iters": 50,
        "initial_lambda": 0.0,         # 0 -> derived default
        "lowpass_cutoff": 0.10,
        "remove_low_frequency": True,
    })
    out = Path(args.out)
    data_dir = Path(args.data)
    paths, dataset = _load_dataset(data_dir)

    c = opt.get("adjust_constant", float)
    lam0 = opt.get("initial_lambda", float)
    cfg = learn.TrainConfig(
        atom_count=opt.get("atom_count", int),
        atom_side=opt.get("atom_side", int),
        target_sparsity=opt.get("target_sparsity", float),
        adjust_constant=c if c > 0 else None,
        crop_size=opt.get("crop_size", int),
        steps=opt.get("steps", int),
        learning_rate=opt.get("learning_rate", float),
        beta1=opt.get("beta1", float),
        beta2=opt.get("beta2", float),
        epsilon=opt.get("epsilon", float),
        validation_interval=opt.get("validation_interval", int),
        fista_iters=opt.get("fista_iters", int),
        seed=_substream(args.seed, "train"),
        initial_lambda=lam0 if lam0 > 0 else None,
    )
    geom = _geometry(opt) if opt.get("remove_low_frequency", bool) else None

    outputs = ["dictionary.dldict", "train_log.csv"]
    _write_manifest(out, "train", args, paths, outputs,
                    {"atom_count": cfg.atom_count, "atom_side": cfg.atom_side,
                     "steps": cfg.steps, "images": len(dataset)})

    dictionary, log = learn.train_dictionary(dataset, cfg, geom, opt.get("lowpass_cutoff", float))
    fileio.write_dictionary(out / "dictionary.dldict", dictionary)
    log.write_csv(out / "train_log.csv")
    print(f"train: {cfg.steps} steps on {len(dataset)} images -> {out / 'dictionary.dldict'}")
    return EXIT_OK


def _stack_coefficients(maps: np.ndarray) -> np.ndarray:
    """Channel-first coefficient stack: (m, H, W) -> (m*H, W)."""
    return maps.reshape(-1, maps.shape[-1])


def cmd_reconstruct(args) -> int:
    opt = Options(args, {
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
    })
    out = Path(args.out)
    y = _read_sinogram(opt, args.sinogram)
    n = opt.get("grid_size", int)
    spacing = opt.get("pixel_spacing", float)
    method = args.method

    inputs = [args.sinogram]
    needs_dict = method in ("dict", "dict-patch")
    if needs_dict:
        if not args.dictionary:
            raise ConfigError(f"method {method!r} requires --dictionary")
        inputs.append(args.dictionary)

    outputs = ["recon.dlgrid", "trace.csv"]
    if args.save_coefficients and needs_dict:
        outputs.append("coefficients.dlgrid")
    _write_manifest(out, "reconstruct", args, inputs, outputs,
                    {"method": method, "grid_size": n})

    trace_rows = None
    coeffs = None
    if needs_dict:
        dictionary = fileio.read_dictionary(args.dictionary)
        cfg = recon.ReconConfig(
            lambda1=opt.get("lambda1", float),
            lambda2=opt.get("lambda2", float),
            iters=opt.get("iters", int),
            lowpass_cutoff=opt.get("lowpass_cutoff", float),
        )
        solver = recon.reconstruct_dict if method == "dict" else recon.reconstruct_dict_patch
        result = solver(y, dictionary, cfg, (n, n), spacing,
                        return_coefficients=args.save_coefficients)
        if args.save_coefficients:
            image, trace, coeffs = result
        else:
            image, trace = result
        trace.write_csv(out / "trace.csv")
    elif method == "fbp":
        image = tomo.fbp(y, (n, n), spacing, window=opt.get("fbp_window", str),
                         cutoff=opt.get("fbp_cutoff", float))
        loss, _ = tomo.data_loss_and_gradient(image, y)
        trace_rows = [(0, loss)]
    elif method == "huber":
        hcfg = recon.HuberConfig(lam=opt.get("huber_lambda", float),
                                 gamma=opt.get("huber_gamma", float),
                                 iters=opt.get("huber_iters", int))
        image, huber_trace = recon.reconstruct_huber(y, hcfg, (n, n), spacing, return_trace=True)
        trace_rows = list(enumerate(huber_trace))
    else:
        raise ConfigError(f"unknown method {method!r}")

    if trace_rows is not None:
        with open(out / "trace.csv", "w") as fh:
            fh.write("iter,objective\n")
            for i, v in trace_rows:
                fh.write(f"{i},{v!r}\n")
    if coeffs is not None:
        fileio.write_grid(out / "coefficients.dlgrid", _stack_coefficients(coeffs), spacing)
    fileio.save_image(out / "recon.dlgrid", image)
    print(f"reconstruct[{method}]: wrote {out / 'recon.dlgrid'}")
    return EXIT_OK


def _metrics(recon_img: ImageGrid, truth: ImageGrid, data_range=None):
    if data_range is None:
        data_range = float(truth.values.max() - truth.values.min())
        if data_range <= 0:
            data_range = 1.0
    return analytics.MetricReport(
        psnr=analytics.psnr(recon_img, truth, data_range),
        ssim=analytics.ssim(recon_img, truth, data_range),
    )


def cmd_evaluate(args) -> int:
    Options(args, {})
    out = Path(args.out)
    _write_manifest(out, "evaluate", args, [args.recon, args.truth], ["metrics.csv"], {})
    recon_img = fileio.load_image(args.recon)
    truth = fileio.load_image(args.truth)
    report = _metrics(recon_img, truth, args.data_range)
    with open(out / "metrics.csv", "w") as fh:
        fh.write("psnr,ssim\n")
        fh.write(f"{report.psnr!r},{report.ssim!r}\n")
    print(f"psnr={report.psnr} ssim={report.ssim}")
    return EXIT_OK


def _parse_grid(text: str):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc


def cmd_sweep(args) -> int:
    opt = Options(args, {
        "angular_range": math.pi,
        "grid_size": 128,
        "pixel_spacing": 1.0,
        "iters": 300,
        "lowpass_cutoff": 0.10,
        "lambda1_grid": "10,50",
        "lambda2_grid": "0.0012,0.0016,0.0024",
    })
    out = Path(args.out)
    lam1s = _parse_grid(opt.get("lambda1_grid", str))
    lam2s = _parse_grid(opt.get("lambda2_grid", str))

    y = _read_sinogram(opt, args.sinogram)
    truth = fileio.load_image(args.truth)
    dictionary = fileio.read_dictionary(args.dictionary)
    n = opt.get("grid_size", int)
    spacing = opt.get("pixel_spacing", float)

    _write_manifest(out, "sweep", args, [args.sinogram, args.truth, args.dictionary],
                    ["sweep.csv"], {"lambda1": lam1s, "lambda2": lam2s})

    rows = []
    for lam1 in lam1s:
        for lam2 in lam2s:
            cfg = recon.ReconConfig(lambda1=lam1, lambda2=lam2,
                                    iters=opt.get("iters", int),
                                    lowpass_cutoff=opt.get("lowpass_cutoff", float))
            image, _ = recon.reconstruct_dict(y, dictionary, cfg, (n, n), spacing)
            report = _metrics(image, truth)
            rows.append((lam1, lam2, report.psnr, report.ssim))
            print(f"sweep lambda1={lam1} lambda2={lam2} psnr={report.psnr:.3f} ssim={report.ssim:.4f}")
    with open(out / "sweep.csv", "w") as fh:
        fh.write("lambda1,lambda2,psnr,ssim\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    return EXIT_OK


def cmd_verify_elbo(args) -> int:
    Options(args, {})
    out = Path(args.out)
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

    _write_manifest(out, "verify-elbo", args, inputs, ["elbo_report.csv"],
                    {"sigma": args.sigma, "b": args.b, "b_star": args.b_star,
                     "samples": len(samples)})

    fields = ["sample", "f_at_mode", "penalty_quad", "penalty_lin", "constant_c",
              "expected_f", "elbo_exact", "lower_bound", "gap", "gap_bound",
              "support_size", "mc_estimate", "mc_stderr", "violation"]
    violations = 0
    with open(out / "elbo_report.csv", "w") as fh:
        fh.write(",".join(fields) + "\n")
        for i, x in enumerate(samples):
            z_star = elbo.posterior_mode(x, dictionary, params)
            report = elbo.elbo_lower_bound(x, dictionary, params, z_star)
            if args.mc_samples > 0:
                mc, se = elbo.elbo_monte_carlo(x, dictionary, params, z_star,
                                               args.mc_samples,
                                               _substream(args.seed, f"mc-{i}"))
            else:
                mc, se = math.nan, math.nan
            bad = (report.elbo_exact < report.lower_bound - 1e-10
                   or report.gap > report.gap_bound + 1e-10)
            violations += bad
            row = report.as_dict()
            fh.write(",".join(repr(v) for v in (
                i, row["f_at_mode"], row["penalty_quad"], row["penalty_lin"],
                row["constant_c"], row["expected_f"], row["elbo_exact"],
                row["lower_bound"], row["gap"], row["gap_bound"],
                row["support_size"], mc, se, int(bad))) + "\n")
    print(f"verify-elbo: {len(samples)} samples, {violations} violations")
    return EXIT_OK if violations == 0 else EXIT_VERIFY


def cmd_atoms(args) -> int:
    Options(args, {})
    out = Path(args.out)
    dictionary = fileio.read_dictionary(args.dictionary)
    m = dictionary.atom_count
    inputs = [args.dictionary] + list(args.coefficients)
    _write_manifest(out, "atoms", args, inputs, ["atoms.pgm", "significance.csv"],
                    {"atom_count": m})

    sets = []
    for path in args.coefficients:
        values, _ = fileio.read_grid(path)
        if values.shape[0] % m:
            raise ConfigError(f"{path}: rows not divisible by atom count {m}")
        h = values.shape[0] // m
        sets.append(CoefficientMaps("convolutional", values.reshape(m, h, values.shape[1]),
                                    (h, values.shape[1])))
    if sets:
        order, scores = analytics.atom_significance(dictionary, sets)
    else:
        order, scores = np.arange(m), np.zeros(m)

    fileio.write_pgm16(out / "atoms.pgm", analytics.atom_montage(dictionary, order))
    with open(out / "significance.csv", "w") as fh:
        fh.write("rank,atom_index,score\n")
        for rank, (idx, score) in enumerate(zip(order, scores)):
            fh.write(f"{rank},{int(idx)},{float(score)!r}\n")
    print(f"atoms: montage of {m} atoms -> {out / 'atoms.pgm'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dictolearn",
                                     description="Dictionary learning for low-dose CT.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key=value configuration file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", required=True, help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="phantom -> noisy sinogram")
    p.add_argument("--phantom", default=None, choices=["shepp-logan", "random"])
    p.add_argument("--phantom-size", dest="phantom_size", type=int, default=None)
    p.add_argument("--phantom-seed", dest="phantom_seed", type=int, default=None)
    p.add_argument("--contrast", default=None, choices=["standard", "modified"])
    p.add_argument("--pixel-spacing", dest="pixel_spacing", type=float, default=None)
    p.add_argument("--attenuation-scale", dest="attenuation_scale", type=float, default=None)
    p.add_argument("--incident-photons", dest="incident_photons", type=float, default=None)
    _add_geometry_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", parents=[common], help="learn a dictionary from images")
    p.add_argument("--data", required=True, help="directory of DLGRID1 images")
    p.add_argument("--atom-count", dest="atom_count", type=int, default=None)
    p.add_argument("--atom-side", dest="atom_side", type=int, default=None)
    p.add_argument("--target-sparsity", dest="target_sparsity", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--crop-size", dest="crop_size", type=int, default=None)
    p.add_argument("--fista-iters", dest="fista_iters", type=int, default=None)
    p.add_argument("--validation-interval", dest="validation_interval", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--lowpass-cutoff", dest="lowpass_cutoff", type=float, default=None)
    _add_geometry_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", parents=[common], help="sinogram -> image")
    p.add_argument("--sinogram", required=True)
    p.add_argument("--dictionary", default=None)
    p.add_argument("--method", required=True, choices=["dict", "dict-patch", "fbp", "huber"])
    p.add_argument("--grid-size", dest="grid_size", type=int, default=None)
    p.add_argument("--pixel-spacing", dest="pixel_spacing", type=float, default=None)
    p.add_argument("--lambda1", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--lowpass-cutoff", dest="lowpass_cutoff", type=float, default=None)
    p.add_argument("--huber-lambda", dest="huber_lambda", type=float, default=None)
    p.add_argument("--huber-gamma", dest="huber_gamma", type=float, default=None)
    p.add_argument("--huber-iters", dest="huber_iters", type=int, default=None)
    p.add_argument("--fbp-window", dest="fbp_window", default=None, choices=["ramp", "hann"])
    p.add_argument("--fbp-cutoff", dest="fbp_cutoff", type=float, default=None)
    p.add_argument("--save-coefficients", action="store_true")
    p.add_argument("--angular-range", dest="angular_range", type=float, default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", parents=[common], help="PSNR/SSIM of a reconstruction")
    p.add_argument("--recon", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--data-range", dest="data_range", type=float, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[common], help="grid over lambda1 x lambda2")
    p.add_argument("--sinogram", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--dictionary", required=True)
    p.add_argument("--lambda1-grid", dest="lambda1_grid", default=None)
    p.add_argument("--lambda2-grid", dest="lambda2_grid", default=None)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=None)
    p.add_argument("--pixel-spacing", dest="pixel_spacing", type=float, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--lowpass-cutoff", dest="lowpass_cutoff", type=float, default=None)
    p.add_argument("--angular-range", dest="angular_range", type=float, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify-elbo", parents=[common], help="evidence-bound checks")
    p.add_argument("--dictionary", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--b-star", dest="b_star", type=float, required=True)
    p.add_argument("--samples-dir", dest="samples_dir", default=None)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=0)
    p.set_defaults(func=cmd_verify_elbo)

    p = sub.add_parser("atoms", parents=[common], help="significance-ordered atom montage")
    p.add_argument("--dictionary", required=True)
    p.add_argument("--coefficients", nargs="*", default=[])
    p.set_defaults(func=cmd_atoms)

    return parser


def _add_geometry_flags(p):
    p.add_argument("--num-angles", dest="num_angles", type=int, default=None)
    p.add_argument("--num-bins", dest="num_bins", type=int, default=None)
    p.add_argument("--detector-spacing", dest="detector_spacing", type=float, default=None)
    p.add_argument("--angular-range", dest="angular_range", type=float, default=None)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
