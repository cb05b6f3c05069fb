"""Reference figure: jordan_mul at matrix:12 next to the plain product.

Times ``jordan_mul(x, y)`` through the structure tensor against the
single-threaded matrix computation 1/2 (XY + YX) of the same product, and
prints both in microseconds. Run from the root of the repository:

    python3 perfbench/reference.py
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import jordannum as jn  # noqa: E402


def median_time(fn, repeats=7, number=20):
    """Median over repeats of the mean time of ``number`` calls, in us."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(number):
            fn()
        times.append((perf_counter() - start) / number * 1e6)
    return statistics.median(times)


def main():
    n = 12
    algebra = jn.from_descriptor(f"matrix:{n}")
    rng = np.random.default_rng(0)
    x, y = (algebra.element(rng.standard_normal(n * n)
                            + 1j * rng.standard_normal(n * n))
            for _ in range(2))
    a, b = x.coeffs.reshape(n, n), y.coeffs.reshape(n, n)
    plain = 0.5 * (a @ b + b @ a)
    if not np.allclose(jn.jordan_mul(x, y).coeffs, plain.reshape(n * n)):
        raise SystemExit("jordan_mul disagrees with 1/2(XY+YX)")
    print(f"jordan_mul matrix:{n}: {median_time(lambda: jn.jordan_mul(x, y)):.1f} us")
    print(f"1/2(XY+YX) {n}x{n}: {median_time(lambda: 0.5 * (a @ b + b @ a)):.1f} us")


if __name__ == "__main__":
    main()
