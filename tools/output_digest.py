"""Digest of the library's results over a fixed set of calls.

The library-level twin of ``tools/cli_digest.py``. It calls the public API
of ``jordannum`` on ``fn:2``, ``fn:5``, ``spin:3``, ``spin:4``,
``matrix:2``-``matrix:4`` and ``sum:fn:2+matrix:2``, at seeds 0-3, with
random elements at scales 1, 1e200 and 1e-200, and prints one line per
group of results: the sha256 over every call's label and its result's
bytes (coefficients, points, errors and residuals, exactly), the number of
results, and the group's name. The ``stacked spectra`` group runs
``spectral._spectra`` over one stack a family and seed, whose rows mix H
sizes and merged points. A call that raises counts in an ``error``
line instead, one per exception type, hashed over each such call's label
and message. Two trees give the same lines exactly when
every call returned the same bits or raised the same error, so a bitwise
comparison is one ``diff``:

    python tools/output_digest.py > change.txt
    python tools/output_digest.py --src ../other/src > other.txt
    diff other.txt change.txt

``--src`` names the source directory to import ``jordannum`` from; the
default is the ``src`` directory next to this script's parent. Add
``-W error::RuntimeWarning`` to the interpreter's flags to count numpy's
warnings as errors. A run takes about 10-20 s on one core.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import hashlib
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

FAMILIES = ("fn:2", "fn:5", "spin:3", "spin:4", "matrix:2", "matrix:3",
            "matrix:4", "sum:fn:2+matrix:2")
SEEDS = range(4)
SCALES = (1.0, 1e200, 1e-200)
GROUPS = ("exp/cos", "log/power_mu", "inverse/resolvent", "spectra",
          "contour/Cauchy", "reports", "single products",
          "curve limit, integer mu", "curve limit, non-integer mu",
          "vettings", "psi tracking", "principal samples", "stacked spectra")
# steps 1 + delta e_i whose pair of eigenvalues lies just inside or just
# outside dedupe_tol = 1e-6 (1 + max |eigenvalue|): idempotents (tol about
# 2e-6) and the spin factor's +-1 (gap 2 delta, tol about 2e-6)
NEAR_TOL = (0.95e-6, 1.05e-6, 1.9e-6, 2.1e-6)


def _bytes(value) -> bytes:
    """The exact bytes of a result: arrays and Elements by their raw
    coefficients, floats by their round-trip repr, containers and
    dataclasses field by field."""
    if isinstance(value, np.ndarray):
        return repr(value.shape).encode() + value.tobytes()
    if hasattr(value, "coeffs"):  # an Element
        return b"E" + _bytes(np.asarray(value.coeffs))
    if hasattr(value, "entries"):  # an OperatorMatrix
        return b"M" + _bytes(np.asarray(value.entries))
    if dataclasses.is_dataclass(value):
        return b"D" + b"|".join(_bytes(getattr(value, f.name))
                                for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return b"(" + b",".join(_bytes(v) for v in value) + b")"
    return repr(value).encode()


class Digest:
    """Running sha256 and count per group, and per exception type."""

    def __init__(self):
        self.groups = {g: [hashlib.sha256(), 0] for g in GROUPS}
        self.errors = defaultdict(lambda: [hashlib.sha256(), 0])

    def call(self, group: str, label: str, fn, *args):
        try:
            value = fn(*args)
        except Exception as exc:  # noqa: BLE001 - every error is recorded
            entry = self.errors[f"error {type(exc).__name__}"]
            entry[0].update(f"{group}/{label}: {exc}\n".encode())
            entry[1] += 1
            return None
        entry = self.groups[group]
        entry[0].update(label.encode() + b"=" + _bytes(value) + b"\n")
        entry[1] += 1
        return value

    def lines(self):
        for name, (h, count) in [*self.groups.items(),
                                 *sorted(self.errors.items())]:
            yield f"{h.hexdigest()} {count} {name}"


def _functional(jn, spec):
    """A character where the family has one (coordinate 0 of fn and of the
    sum's fn part), the normalised trace on matrix, the scalar part on spin."""
    if spec.label.startswith("matrix:"):
        n = int(spec.label.partition(":")[2])
        diag = np.arange(n) * (n + 1)
        return jn.FunctionalHandle(lambda x: complex(x.coeffs[diag].sum() / n),
                                   label="trace")
    return jn.FunctionalHandle(lambda x: complex(x.coeffs[0]), label="x0")


def _curve(jn, x, y):
    """The entire curve f(z) = exp(x z) o (1 + y z), with f(0) = 1."""
    one = x.algebra.one()
    return jn.HolomorphicCurve(
        lambda z: jn.jordan_mul(jn.exp(x * z), one + y * z), np.inf)


def _stacked_rows(jn, spec, rng) -> np.ndarray:
    """A stack of rows whose H's differ in size and whose spectra have
    merged points: random elements and their real parts (with imaginary
    parts -0.0), the unit and zero (m = 1), the basis elements, steps
    1 + delta e_i about dedupe_tol (``NEAR_TOL``), and on matrix:n the
    Jordan block 1 + N, whose n eigenvalues are one point."""
    one = spec.one().coeffs
    rows = [jn.random_element(spec, rng).coeffs for _ in range(3)]
    for x in rows[:]:
        real = np.empty_like(x)
        real.real, real.imag = x.real, -0.0
        rows.append(real)
    rows += [one, 0.0 * one]
    rows += [spec.basis_element(i).coeffs for i in range(min(spec.dim, 9))]
    rows += [one + delta * spec.basis_element(i).coeffs
             for delta in NEAR_TOL for i in range(2)]
    if spec.label.startswith("matrix:"):
        n = int(spec.label.partition(":")[2])
        rows.append(one + sum(spec.basis_element(i * (n + 1) + 1).coeffs
                              for i in range(n - 1)))
    return np.array(rows)


def run_family(jn, d: Digest, desc: str, seed: int):
    spec = jn.from_descriptor(desc)
    other = jn.from_descriptor("spin:1" if spec.dim == 2 else "fn:2")
    f = _functional(jn, spec)
    grid = jn.geometric_grid(16, 1024)
    tag = f"{desc} s{seed}"

    # scale-free: vettings, principal samples, psi on the basis
    d.call("vettings", tag, jn.verify_character_theorem, f, spec, seed, 8)
    d.call("vettings", tag + " unit_sign", jn.unit_sign, f, spec)
    d.call("psi tracking", tag + " basis", jn.linear_extension, f, spec)
    for depth in (1, 2, 3):
        d.call("principal samples", f"{tag} depth{depth}",
               jn.principal_component_sample, spec, depth, 100 * seed)

    spectral = jn.spectral
    d.call("stacked spectra", tag, spectral._spectra,
           _stacked_rows(jn, spec, np.random.default_rng(1000 + seed)), spec)

    rng = np.random.default_rng(seed)
    base = [jn.random_element(spec, rng) for _ in range(3)]
    stranger = jn.random_element(other, rng)
    for scale in SCALES:
        x, y, z = (v * scale for v in base)
        at = f"{tag} c{scale:g}"
        d.call("exp/cos", at + " exp", jn.exp, x)
        d.call("exp/cos", at + " cos", jn.cos, y)
        ex = d.call("exp/cos", at + " exp(x/8)", jn.exp, x * 0.125)
        d.call("log/power_mu", at + " log", jn.log, x)
        if ex is not None:
            d.call("log/power_mu", at + " log exp", jn.log, ex)
            d.call("log/power_mu", at + " power_mu", jn.power_mu, ex,
                   0.5 + 0.25j)
        d.call("log/power_mu", at + " power_mu 3", jn.power_mu, y, 3)
        d.call("inverse/resolvent", at + " inverse", jn.inverse, x)
        d.call("inverse/resolvent", at + " is_invertible", jn.is_invertible, x)
        d.call("inverse/resolvent", at + " resolvent", jn.resolvent, x,
               (1.5 + 0.5j) * scale)
        sigma = d.call("spectra", at, jn.jordan_spectrum, x)
        if sigma is not None:
            contour = jn.Contour(0.0, 2.0 * sigma.spectral_radius + 1.0)
            d.call("contour/Cauchy", at + " exp", jn.holomorphic_calculus,
                   cmath.exp, x, contour)
            d.call("contour/Cauchy", at + " poly", jn.holomorphic_calculus,
                   lambda w: w * (w - 1.0), x, contour)
        d.call("contour/Cauchy", at + " cauchy", jn.derivative_at_zero,
               _curve(jn, x, y), 1.0)
        params = {"a": x, "b": y, "c": z}
        for formula in ("jordan_product", "U_single", "U_pair"):
            d.call("reports", f"{at} {formula}", jn.convergence_report,
                   formula, params, grid)
        for name, fn, args in (
                ("trotter_jordan", jn.trotter_jordan, (x, y, 64)),
                ("trotter_U", jn.trotter_U, (x, y, 48)),
                ("trotter_U_pair", jn.trotter_U_pair, (x, y, z, 80)),
                ("jordan_mul", jn.jordan_mul, (x, y)),
                ("jordan_power", jn.jordan_power, (y, 7)),
                ("U", lambda: jn.U_operator(x).apply(y), ()),
                ("U_pair", lambda: jn.U_pair_operator(x, z).apply(y), ()),
                ("L", lambda: jn.mult_operator(x), ())):
            d.call("single products", f"{at} {name}", fn, *args)
        curve = _curve(jn, x, y)
        for plan_name, plan in (
                ("1/n", jn.SequencePlan(lambda n: 1.0 / n, float, 1.0)),
                ("1/n^2", jn.SequencePlan(lambda n: 1.0 / n ** 2,
                                          lambda n: 3.0 * n ** 2, 3.0))):
            d.call("curve limit, integer mu", f"{at} {plan_name}",
                   jn.general_trotter, curve, plan, grid)
        d.call("curve limit, non-integer mu", at, jn.general_trotter, curve,
               jn.SequencePlan(lambda n: 1.0 / (n + 0.5), lambda n: n + 0.5,
                               1.0), grid)
        d.call("psi tracking", at, jn.reconstruct_psi, f, y)
        d.call("vettings", at + " spectral", jn.is_spectral_valued, f,
               [x, y, z])
        d.call("vettings", at + " U_mult", jn.is_U_multiplicative, f,
               [(x, y), (y, z)])

    # operands from two algebras
    x = base[0]
    for name, fn, args in (
            ("jordan_mul", jn.jordan_mul, (x, stranger)),
            ("add", lambda: x + stranger, ()),
            ("apply", lambda: jn.U_operator(x).apply(stranger), ()),
            ("spectral", jn.is_spectral_valued, (f, [x, stranger])),
            ("U_mult", jn.is_U_multiplicative, (f, [(x, x), (x, stranger)])),
            ("report", jn.convergence_report,
             ("jordan_product", {"a": x, "b": stranger}, grid))):
        d.call("single products", f"{tag} mixed {name}", fn, *args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parent.parent / "src"),
        help="directory to import jordannum from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import jordannum as jn

    d = Digest()
    for desc in FAMILIES:
        for seed in SEEDS:
            run_family(jn, d, desc, seed)
    for line in d.lines():
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
