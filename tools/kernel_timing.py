"""Per-call times of the algebra kernels, layer by layer, on one thread.

For each family it prints one line: the dimension d, the number of stored
structure entries where the tree keeps them (``-`` where it does not), and
the best-of-N time per call, in microseconds, of

- ``product``: ``algebra._product`` of two coefficient vectors;
- ``stack65``: ``_product`` of two stacks of 65 rows (a ψ path's size);
- ``L_x``: ``algebra._mult_matrix``, the d x d matrix of y -> x o y;
- ``jordan_mul``, ``exp``, ``U_operator``, ``spectrum``
  (``jordan_spectrum``), ``inverse`` and ``is_invertible`` (of 2 + x) and
  ``resolvent`` (of x at 3);
- ``contour``: ``holomorphic_calculus(cmath.exp, x, Contour(0, 2R + 1))``,
  R the spectral radius of x;
- ``log``: ``log(exp(x))``, with exp(x) taken once before the timing;
- ``build``: ``from_descriptor`` with its cache cleared first.

Each time is the least over 9 repeats of the mean over a batch of calls
sized to take at least 20 ms. BLAS is pinned to one thread before numpy is
imported. At ``matrix:16`` a dense tree holds a 268 MB tensor. Two trees
give comparable tables when run one after the other on the same machine:

    python tools/kernel_timing.py > change.txt
    python tools/kernel_timing.py --src ../other/src > other.txt

``--src`` names the source directory to import ``jordannum`` from; the
default is the ``src`` directory next to this script's parent. The kernels
take the algebra where the tree stores entries and its dense tensor where
it does not; the tool passes whichever the tree's ``_product`` names.
"""

from __future__ import annotations

import argparse
import cmath
import inspect
import os
import sys
import timeit
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

FAMILIES = ["fn:5", "spin:4", "matrix:2", "matrix:3", "matrix:4",
            "matrix:8", "matrix:10", "matrix:12", "matrix:16"]
COLUMNS = ["product", "stack65", "L_x", "jordan_mul", "exp", "U_operator",
           "spectrum", "inverse", "is_invertible", "resolvent", "contour",
           "log", "build"]
REPEAT = 9
MIN_BATCH_S = 0.02


def best_us(fn):
    """Least mean time per call, in microseconds, over ``REPEAT`` batches."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < MIN_BATCH_S:
        number *= 2
    return 1e6 * min(timer.repeat(repeat=REPEAT, number=number)) / number


def kernels(jn, desc):
    """(column, zero-argument call) for each column of ``COLUMNS``."""
    from jordannum import algebra

    a = jn.from_descriptor(desc)
    rng = np.random.default_rng(5)
    x, y = (jn.random_element(a, rng) for _ in range(2))
    xs, ys = (np.array([jn.random_element(a, rng).coeffs for _ in range(65)])
              for _ in range(2))
    w = x + 2.0 * a.one()
    contour = jn.Contour(0, 2 * jn.jordan_spectrum(x).spectral_radius + 1)
    ex = jn.exp(x)
    dense = "structure" in inspect.signature(algebra._product).parameters
    arg = a.structure if dense else a

    def build():
        jn.from_descriptor.cache_clear()
        return jn.from_descriptor(desc)

    return [
        ("product", lambda: algebra._product(x.coeffs, y.coeffs, arg)),
        ("stack65", lambda: algebra._product(xs, ys, arg)),
        ("L_x", lambda: algebra._mult_matrix(x.coeffs, arg)),
        ("jordan_mul", lambda: jn.jordan_mul(x, y)),
        ("exp", lambda: jn.exp(x)),
        ("U_operator", lambda: jn.U_operator(x)),
        ("spectrum", lambda: jn.jordan_spectrum(x)),
        ("inverse", lambda: jn.inverse(w)),
        ("is_invertible", lambda: jn.is_invertible(w)),
        ("resolvent", lambda: jn.resolvent(x, 3.0)),
        ("contour", lambda: jn.holomorphic_calculus(cmath.exp, x, contour)),
        ("log", lambda: jn.log(ex)),
        ("build", build),
    ], a


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parent.parent / "src"),
        help="directory to import jordannum from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import jordannum as jn

    print("family d entries " + " ".join(COLUMNS) + "  (us per call)")
    for desc in FAMILIES:
        calls, a = kernels(jn, desc)
        entries = getattr(a, "_values", None)
        times = [best_us(fn) for _, fn in calls]
        nnz = "-" if entries is None else str(entries.size)
        print(f"{desc} {a.dim} {nnz} "
              + " ".join(f"{t:.4g}" for t in times), flush=True)
        del calls, a
        jn.from_descriptor.cache_clear()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
