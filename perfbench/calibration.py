"""The calibration kernels that pass_cost divides by, in a process of its own.

run.py starts this script once per run. Between operations of a pass it
writes a kernel name, one per line, to the script's stdin; the script runs
that kernel once and answers with the seconds it took. Its own process
keeps the kernels' arrays out of the benchmark process's peak_rss_mb. It
exits when its stdin closes.

The speed a shared host gives one core drifts by about 20% within seconds,
and not equally for every kind of work, so each workload is divided by the
kernel of its own kind. Neither kernel calls aecomm.

- steps: 300 steps of a small dense autoencoder in plain numpy, forward,
  backward and update, batch 45, as in training: many calls on small
  arrays, bound by per-call overhead. About 25 ms.
- arrays: a row-wise sort, and a gemm with an exp, over 16 MB arrays, well
  past the per-core caches, as in decoding and receiving large batches.
  About 0.13 s.
"""

import sys
from time import perf_counter

import numpy as np

rng = np.random.default_rng(0)


def _glorot(n_in: int, n_out: int):
    return rng.standard_normal((n_in, n_out)) * np.sqrt(2.0 / (n_in + n_out))


# message (8) -> 16 -> channel (7), noise, -> 16 -> softmax (8)
SIZES = ((8, 16), (16, 7), (7, 16), (16, 8))
BATCH = 45
W = [_glorot(*s) for s in SIZES]
MESSAGES = np.eye(8)[rng.integers(0, 8, BATCH)]
NOISE = 0.1 * rng.standard_normal((BATCH, 7))
ROWS = rng.standard_normal((1 << 15, 64))
GAINS = rng.standard_normal((64, 64)) / 8.0


def steps() -> None:
    w1, w2, w3, w4 = (w.copy() for w in W)  # every call does the same work
    x = MESSAGES
    for _ in range(300):
        h1 = np.maximum(x @ w1, 0.0)
        z = h1 @ w2
        z = z / np.sqrt((z * z).sum(axis=1, keepdims=True))
        y = z + NOISE
        h3 = np.maximum(y @ w3, 0.0)
        o = h3 @ w4
        e = np.exp(o - o.max(axis=1, keepdims=True))
        g = (e / e.sum(axis=1, keepdims=True) - x) / BATCH
        g3 = (g @ w4.T) * (h3 > 0.0)
        gz = g3 @ w3.T
        g1 = (gz @ w2.T) * (h1 > 0.0)
        for w, grad in ((w4, h3.T @ g), (w3, y.T @ g3), (w2, h1.T @ gz), (w1, x.T @ g1)):
            w -= 1e-3 * grad


def arrays() -> None:
    np.argsort(-ROWS, axis=1, kind="stable")
    np.exp(ROWS @ GAINS).sum(axis=1)


KERNELS = {"steps": steps, "arrays": arrays}


def main() -> None:
    print("ready", flush=True)
    for line in sys.stdin:
        kernel = KERNELS[line.strip()]
        start = perf_counter()
        kernel()
        print(perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
