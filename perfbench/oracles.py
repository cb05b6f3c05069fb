"""Reference computations for the benchmark, made apart from the program.

Every algebra family gets a model that works on raw coefficient vectors
with numpy, scipy and closed forms, and never reads a structure tensor:

- ``matrix:n``: ordinary matrix algebra on the row-major n x n reshape
  (Jordan product 1/2(XY + YX), U_X(Y) = XYX, ``scipy.linalg.expm``,
  ``numpy.linalg.eigvals`` and ``inv``);
- ``spin:k``: the spin product (a,u)(b,v) = (ab + u.v, av + bu), the
  closed-form exponential e^a (cosh s, sinh(s)/s u) with s^2 = u.u, the
  spectrum a +- s, the inverse (a, -u)/(a^2 - u.u), and powers through the
  2 x 2 matrix by which x acts on span{1, u};
- ``fn:k``: pointwise arithmetic;
- ``sum:A+B+...``: block by block.

The check helpers at the end turn a comparison into a pass/fail verdict.
"""

from __future__ import annotations

import cmath

import numpy as np
import scipy.linalg


class MatrixModel:
    def __init__(self, n: int):
        self.n = n
        self.dim = n * n

    def _m(self, x):
        return np.asarray(x, dtype=complex).reshape(self.n, self.n)

    def one(self):
        return np.eye(self.n, dtype=complex).reshape(self.dim)

    def mul(self, x, y):
        a, b = self._m(x), self._m(y)
        return (0.5 * (a @ b + b @ a)).reshape(self.dim)

    def U(self, x, y):
        a = self._m(x)
        return (a @ self._m(y) @ a).reshape(self.dim)

    def U_pair(self, x, z, y):
        a, b, c = self._m(x), self._m(y), self._m(z)
        return (0.5 * (a @ b @ c + c @ b @ a)).reshape(self.dim)

    def power(self, x, n):
        return np.linalg.matrix_power(self._m(x), n).reshape(self.dim)

    def exp(self, x):
        return scipy.linalg.expm(self._m(x)).reshape(self.dim)

    def inv(self, x):
        return np.linalg.inv(self._m(x)).reshape(self.dim)

    def spectrum(self, x):
        return np.linalg.eigvals(self._m(x))


class SpinModel:
    def __init__(self, k: int):
        self.dim = k + 1

    def one(self):
        out = np.zeros(self.dim, dtype=complex)
        out[0] = 1.0
        return out

    def mul(self, x, y):
        a, u = x[0], x[1:]
        b, v = y[0], y[1:]
        return np.concatenate([[a * b + u @ v], a * v + b * u])

    def U(self, x, y):
        return 2.0 * self.mul(x, self.mul(x, y)) - self.mul(self.mul(x, x), y)

    def U_pair(self, x, z, y):
        return (self.mul(x, self.mul(z, y)) + self.mul(z, self.mul(x, y))
                - self.mul(self.mul(x, z), y))

    def power(self, x, n):
        # x (p 1 + q u) = (a p + (u.u) q) 1 + (p + a q) u
        a, u = x[0], x[1:]
        m = np.array([[a, u @ u], [1.0, a]], dtype=complex)
        p, q = np.linalg.matrix_power(m, n)[:, 0]
        return np.concatenate([[p], q * u])

    def exp(self, x):
        a, u = x[0], x[1:]
        w = complex(u @ u)
        if abs(w) < 1e-12:
            ch, shc = 1.0 + w / 2.0, 1.0 + w / 6.0
        else:
            s = cmath.sqrt(w)
            ch, shc = cmath.cosh(s), cmath.sinh(s) / s
        ea = cmath.exp(a)
        return np.concatenate([[ea * ch], ea * shc * u])

    def inv(self, x):
        a, u = x[0], x[1:]
        return np.concatenate([[a], -u]) / (a * a - u @ u)

    def spectrum(self, x):
        s = cmath.sqrt(complex(x[1:] @ x[1:]))
        return np.array([x[0] + s, x[0] - s])


class FnModel:
    def __init__(self, k: int):
        self.dim = k

    def one(self):
        return np.ones(self.dim, dtype=complex)

    def mul(self, x, y):
        return x * y

    def U(self, x, y):
        return x * x * y

    def U_pair(self, x, z, y):
        return x * z * y

    def power(self, x, n):
        return x ** n

    def exp(self, x):
        return np.exp(x)

    def inv(self, x):
        return 1.0 / x

    def spectrum(self, x):
        return np.asarray(x, dtype=complex)


class SumModel:
    def __init__(self, parts):
        self.parts = parts
        self.dim = sum(p.dim for p in parts)
        bounds = np.cumsum([0] + [p.dim for p in parts])
        self.slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def _blocks(self, op, *xs):
        return np.concatenate([getattr(p, op)(*(x[s] for x in xs))
                               for p, s in zip(self.parts, self.slices)])

    def one(self):
        return np.concatenate([p.one() for p in self.parts])

    def mul(self, x, y):
        return self._blocks("mul", x, y)

    def U(self, x, y):
        return self._blocks("U", x, y)

    def U_pair(self, x, z, y):
        return self._blocks("U_pair", x, z, y)

    def power(self, x, n):
        return np.concatenate([p.power(x[s], n)
                               for p, s in zip(self.parts, self.slices)])

    def exp(self, x):
        return self._blocks("exp", x)

    def inv(self, x):
        return self._blocks("inv", x)

    def spectrum(self, x):
        return self._blocks("spectrum", x)


def model_for(descriptor: str):
    """The reference model of ``matrix:n``, ``spin:k``, ``fn:k`` or a sum."""
    family, _, rest = descriptor.partition(":")
    if family == "sum":
        return SumModel([model_for(part) for part in rest.split("+")])
    size = int(rest)
    return {"matrix": MatrixModel, "spin": SpinModel, "fn": FnModel}[family](size)


def norm(v) -> float:
    return float(np.linalg.norm(v))


# ---------------------------------------------------------------------------
# Product formulae


def trotter_errors(model, formula, a, b, c, n_grid):
    """Per-n errors and target norm of one product formula, from the model.

    Mirrors the three formulae term by term: the base built from
    exponentials of a/n, b/n (and c/n) is raised to the n-th power and
    compared with exp(a+b), exp(2a+b) or exp(a+b+c).
    """
    if formula == "jordan_product":
        target = model.exp(a + b)
    elif formula == "U_single":
        target = model.exp(2.0 * a + b)
    elif formula == "U_pair":
        target = model.exp(a + b + c)
    else:
        raise ValueError(f"unknown formula {formula!r}")
    errors = []
    for n in n_grid:
        ea, eb = model.exp(a / n), model.exp(b / n)
        if formula == "jordan_product":
            base = model.mul(ea, eb)
        elif formula == "U_single":
            base = model.U(ea, eb)
        else:
            base = model.U_pair(ea, model.exp(c / n), eb)
        errors.append(norm(model.power(base, n) - target))
    return errors, norm(target)


# ---------------------------------------------------------------------------
# Verdicts


def close(got, want, rtol: float) -> bool:
    """Vectors agree to rtol relative to max(1, |want|)."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(got.shape == want.shape
                and norm(got - want) <= rtol * max(1.0, norm(want)))


def hausdorff(points_a, points_b) -> float:
    a = np.asarray(points_a, dtype=complex).ravel()
    b = np.asarray(points_b, dtype=complex).ravel()
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def same_spectrum(points, want, tol: float) -> bool:
    """Point sets agree within tol (relative to 1 + spectral radius) and the
    program returned no more points than there are distinct eigenvalues."""
    points = list(points)
    if not points:
        return False
    want = np.asarray(want, dtype=complex)
    scale = 1.0 + float(np.max(np.abs(want)))
    distinct = []
    for w in want:
        if all(abs(w - v) > tol * scale for v in distinct):
            distinct.append(w)
    return (len(points) <= len(distinct)
            and hausdorff(points, want) <= tol * scale)


def errors_match(got, want, rtol: float = 1e-6, atol: float = 1e-10) -> bool:
    """Per-n errors agree; atol covers rounding at the largest n."""
    return (len(got) == len(want)
            and all(abs(g - w) <= atol + rtol * w for g, w in zip(got, want)))


def second_order(slope) -> bool:
    """Every formula is a symmetric splitting, so the fitted slope is -2."""
    return slope is not None and abs(slope + 2.0) <= 0.1
