"""Bare-numpy Euler-Maruyama loop: the floor for ``engine.ns_per_path_step``.

    python3 perfbench/floor.py

Advances dX = X dB for N_PATHS paths over N_STEPS fixed steps of size H with
one shared generator, one normal per path-step and no barriers, and prints
the median over REPEATS runs in nanoseconds per path-step.  sdelab's sweep
does more per step (per-path streams, crossings, retirement), so this is a
floor, not a target.
"""

import statistics
from time import perf_counter

import numpy as np

N_PATHS = 8192
N_STEPS = 1000
H = 1e-4
REPEATS = 5


def em_loop() -> float:
    rng = np.random.default_rng(0)
    x = np.ones(N_PATHS)
    sqrt_h = np.sqrt(H)
    t0 = perf_counter()
    for _ in range(N_STEPS):
        x += x * (sqrt_h * rng.standard_normal(N_PATHS))
    return perf_counter() - t0


def main() -> None:
    times = [em_loop() for _ in range(REPEATS)]
    ns = 1e9 * statistics.median(times) / (N_PATHS * N_STEPS)
    print(f"{ns:.1f} ns per path-step ({N_PATHS} paths x {N_STEPS} steps, "
          f"median of {REPEATS})")


if __name__ == "__main__":
    main()
