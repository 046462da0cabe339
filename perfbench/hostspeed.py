"""How fast the host ran during a benchmark run.

The benchmark gets a few cores of a shared host. Other guests slow it by
a third or more, for seconds or for many minutes at a time, so two runs
of the same code can differ by more than any bound worth setting. While a
run sets up and runs its ops, a timer signal runs a small fixed numpy
kernel every half second. The median time of the kernel says how fast
the host was, and ``scale()`` takes the run's times to the speed at which
the kernel takes its nominal time. ``clock()`` leaves the kernel's own
time out of every timing.

Other guests slow memory-bound and interpreter-bound code by different
amounts, so each workload gets the kind of kernel that tracked its own
slowdowns best when tried on this benchmark's first machine:

* ``stream``: elementwise passes over arrays far larger than the cache,
  as the projector's sparse products are (recon-*);
* ``patch``: a loop of proximal steps on 64x64 matrices, as patch-mode
  FISTA is (train);
* ``mixed``: the same on 16-vectors, a few such steps on 64x64
  matrices, and FFTs and elementwise passes over a stack of 128x128 maps
  (elbo, whose time splits between a tiny FISTA loop and large vectorized
  integrals).

The kernels use numpy only, so no change to dictolearn changes them.
"""

import signal
import statistics
import time

import numpy as np

# Round figures. On the machine of the first results (2 vCPUs of a shared
# Intel Xeon 2.1 GHz host) the kernels' medians were about 9.7, 2.8 and
# 7.3 ms, so scaled times there read 17-30% below wall times.
NOMINAL_S = {"stream": 8.0e-3, "patch": 2.0e-3, "mixed": 6.0e-3}
PERIOD_S = 0.5
STREAM_LEN = 2_000_000  # three float64 arrays of 16 MB


def _proximal_loop(a: np.ndarray, y: np.ndarray, iters: int) -> np.ndarray:
    z = w = np.zeros_like(a.T @ y)
    for _ in range(iters):
        g = w - 1e-3 * (a.T @ (a @ w - y))
        zn = np.sign(g) * np.maximum(np.abs(g) - 1e-3, 0.0)
        w, z = zn + 0.5 * (zn - z), zn
    return z


class HostSpeed:
    """Samples one kind of reference kernel from SIGALRM inside a ``with`` block."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        if kind == "stream":
            self.arrays = [rng.standard_normal(STREAM_LEN), rng.standard_normal(STREAM_LEN),
                           np.empty(STREAM_LEN)]
        elif kind == "patch":
            self.arrays = [rng.standard_normal((64, 64)), rng.standard_normal((64, 64))]
        elif kind == "mixed":
            self.arrays = [rng.standard_normal((16, 8)), rng.standard_normal(16),
                           rng.standard_normal((64, 64)), rng.standard_normal((64, 64)),
                           rng.standard_normal((8, 128, 128)),
                           np.fft.rfft2(rng.standard_normal((8, 128, 128)))]
        else:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self.samples: list[float] = []
        self.spent = 0.0

    def reference(self):
        if self.kind == "stream":
            x, y, out = self.arrays
            np.multiply(x, y, out=out)
            np.add(out, x, out=out)
        elif self.kind == "patch":
            _proximal_loop(*self.arrays, 40)
        else:
            a, y, a64, y64, maps, kernel = self.arrays
            _proximal_loop(a, y, 100)
            _proximal_loop(a64, y64, 10)
            f = np.fft.irfft2(np.fft.rfft2(maps) * kernel, s=maps.shape[1:])
            np.sign(f) * np.maximum(np.abs(f) - 0.1, 0.0)

    def resident_mb(self) -> float:
        """Memory the kernel keeps resident, to leave out of the peak RSS."""
        return sum(a.nbytes for a in self.arrays) / 2 ** 20

    def sample(self, *_):
        t0 = time.perf_counter()
        self.reference()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in the kernel."""
        return time.perf_counter() - self.spent

    def scale(self) -> float:
        """Factor that takes a time measured in this run to nominal host speed."""
        return NOMINAL_S[self.kind] / statistics.median(self.samples)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
