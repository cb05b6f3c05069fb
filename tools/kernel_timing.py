"""Per-call times of the algebra kernels, layer by layer, on one thread.

For each family it prints one line: the dimension d, the number of stored
structure entries, and the best-of-N time per call, in microseconds, of

- ``product``: ``algebra._product`` of two coefficient vectors;
- ``stack65``: ``_product`` of two stacks of 65 rows (a ψ path's size);
- ``L_x``: ``algebra._mult_matrix``, the d x d matrix of y -> x o y;
- ``norm``: ``x.norm``, the Euclidean norm of x's coefficients;
- ``curve``: one call of the benchmark's pointwise curve form,
  exp(a z) o (1 + b z + d^3 z^3) o cos(c z), at the Cauchy node
  z = e^{2 pi i / 64} on |z| = 1: one ``exp``, one ``cos``, two
  ``jordan_mul`` and six ``Element`` operations;
- ``jordan_mul``, ``exp``, ``cos`` (its two exponentials as one stacked
  call, the largest kernel of a curve call), ``U_operator``, ``spectrum``
  (``jordan_spectrum``), ``inverse`` and ``is_invertible`` (of 2 + x) and
  ``resolvent`` (of x at 3);
- ``spectra20``: ``is_spectral_valued`` of the coordinate functional
  x -> x_0 over 20 ``random_element``s, the vetting's spectra;
- ``vetting``: ``verify_character_theorem`` of the same functional, seed 0,
  20 samples: the whole vetting on ``fn``, where x -> x_0 is a character,
  and up to the failed spectral-valued check on the other families;
- ``contour``: ``holomorphic_calculus(cmath.exp, x, Contour(0, 2R + 1))``,
  R the spectral radius of x;
- ``log``: ``log(exp(x))``, with exp(x) taken once before the timing;
- ``cauchy``: ``derivative_at_zero`` of the curve z -> exp(x z), given
  with radius_r = 2, at rho = 1;
- ``limit``: ``general_trotter`` of the same curve with the plan
  lambda_n = 1/n, mu_n = n on ``geometric_grid()``: that derivative, nine
  curve points and their powers;
- ``report``: ``convergence_report("U_pair", ...)`` of x, y and a third
  element on ``geometric_grid()``, 16 to 4096;
- ``principal``: ``principal_component_sample(a, 2, seed)``, two stacked
  U_{exp(a_j)} levels and one invertibility check;
- ``build``: ``from_descriptor`` with its cache cleared first.

Each time is the least over 9 repeats of the mean over a batch of calls
sized to take at least 20 ms, at reference speed: the batch's wall time is
scaled by the ``small`` calibration loop of ``perfbench/speed.py``, run
right before and right after it (and inside it every 0.1 s), as the
benchmark scales its experiments. BLAS is pinned to one thread before numpy
is imported. Two trees give comparable tables when run one after the other
on the same machine:

    python tools/kernel_timing.py > change.txt
    python tools/kernel_timing.py --src ../other/src > other.txt

``--src`` names the source directory to import ``jordannum`` from; the
default is the ``src`` directory next to this script's parent.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys
import timeit
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from speed import Speed  # noqa: E402

FAMILIES = ["fn:5", "spin:4", "matrix:2", "matrix:3", "matrix:4",
            "matrix:8", "matrix:10", "matrix:12", "matrix:16"]
COLUMNS = ["product", "stack65", "L_x", "norm", "curve", "jordan_mul",
           "exp", "cos", "U_operator", "spectrum", "spectra20", "vetting",
           "inverse", "is_invertible", "resolvent", "contour", "log",
           "cauchy", "limit", "report", "principal", "build"]
REPEAT = 9
MIN_BATCH_S = 0.02


def best_us(fn, speed):
    """Least mean time per call at reference speed, in microseconds, over
    ``REPEAT`` batches."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < MIN_BATCH_S:
        number *= 2
    return 1e6 * min(speed.timed(lambda: timer.timeit(number))[2]
                     for _ in range(REPEAT)) / number


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
    curve = jn.HolomorphicCurve(lambda z: jn.exp(x * z), radius_r=2.0)
    ex = jn.exp(x)
    params = {"a": x, "b": y, "c": jn.random_element(a, rng)}
    samples = [jn.random_element(a, rng) for _ in range(20)]
    c, d = (jn.random_element(a, rng) for _ in range(2))  # the curve's
    d3 = jn.jordan_mul(d, jn.jordan_mul(d, d))
    node, one = cmath.exp(2j * cmath.pi / 64), a.one()
    coordinate = jn.FunctionalHandle(lambda v: complex(v.coeffs[0]))
    grid = jn.geometric_grid()
    plan = jn.SequencePlan(lambda n: 1.0 / n, lambda n: float(n), 1.0)

    def build():
        jn.from_descriptor.cache_clear()
        return jn.from_descriptor(desc)

    return [
        ("product", lambda: algebra._product(x.coeffs, y.coeffs, a)),
        ("stack65", lambda: algebra._product(xs, ys, a)),
        ("L_x", lambda: algebra._mult_matrix(x.coeffs, a)),
        ("norm", lambda: x.norm),
        ("curve", lambda: jn.jordan_mul(
            jn.jordan_mul(jn.exp(x * node),
                          one + y * node + d3 * node ** 3),
            jn.cos(c * node))),
        ("jordan_mul", lambda: jn.jordan_mul(x, y)),
        ("exp", lambda: jn.exp(x)),
        ("cos", lambda: jn.cos(x)),
        ("U_operator", lambda: jn.U_operator(x)),
        ("spectrum", lambda: jn.jordan_spectrum(x)),
        ("spectra20", lambda: jn.is_spectral_valued(coordinate, samples)),
        ("vetting", lambda: jn.verify_character_theorem(coordinate, a, 0, 20)),
        ("inverse", lambda: jn.inverse(w)),
        ("is_invertible", lambda: jn.is_invertible(w)),
        ("resolvent", lambda: jn.resolvent(x, 3.0)),
        ("contour", lambda: jn.holomorphic_calculus(cmath.exp, x, contour)),
        ("log", lambda: jn.log(ex)),
        ("cauchy", lambda: jn.derivative_at_zero(curve, 1.0)),
        ("limit", lambda: jn.general_trotter(curve, plan, grid)),
        ("report", lambda: jn.convergence_report("U_pair", params, grid)),
        ("principal", lambda: jn.principal_component_sample(a, 2, 11)),
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

    speed = Speed("small")
    print("family d entries " + " ".join(COLUMNS)
          + "  (us per call at reference speed)")
    for desc in FAMILIES:
        calls, a = kernels(jn, desc)
        times = [best_us(fn, speed) for _, fn in calls]
        print(f"{desc} {a.dim} {a._values.size} "
              + " ".join(f"{t:.4g}" for t in times), flush=True)
        del calls, a
        jn.from_descriptor.cache_clear()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
