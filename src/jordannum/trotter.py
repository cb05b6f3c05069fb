"""Lie-Trotter product formulae, the holomorphic-curve limit, and rate reports.

The three product formulae approximate exp(a+b), exp(2a+b), and exp(a+b+c)
by n-th Jordan powers of exponential products; ``general_trotter`` handles
the curve form f(lambda_n)^(mu_n) -> exp(lambda * f'(0)).

The product formulae converge at order two, with error O(n^-2). Each base
agrees with e^{s/n} through n^-2, in any Jordan algebra, where s is the
target's exponent: e^{a/n} o e^{b/n} = 1 + (a+b)/n + (a+b)^2/2n^2 +
O(n^-3), since (a+b)^2 = a^2 + 2 a o b + b^2; U_{1+x}(1+y) = 1 + y + 2x +
x^2 + 2 x o y + U_x(y) gives (2a+b)/n + (2a+b)^2/2n^2, and the pair form
(a+b+c)/n + (a+b+c)^2/2n^2. So log(base) = s/n + O(n^-3), and by power
associativity base^n = exp(s + O(n^-2)). The curve limit is first order by
contrast: f(lambda) = 1 + lambda f'(0) + O(lambda^2) leaves an O(lambda_n)
error, i.e. O(1/n) for the plan lambda_n = 1/n, mu_n = n.

The bases are evaluated in unit-offset form, by one grid routine
(``_step``); the second formula is the third at c = a, since U_{x,x} = U_x.
Each exponential is carried as e^{v/n} - 1, the base as base - 1, and the
power as (1+y)(1+z) - 1 = y + z + y o z; the unit is added once at the end.
A base 1 + O(1/n) rounded as a whole keeps only about eps absolute accuracy,
and n-th powering multiplies that to about n eps; carried as an offset, it
keeps eps relative accuracy, so on commuting inputs, where every formula is
exact, the error stays at rounding level for every n.

A report evaluates its whole grid in one stacked pass: the exponentials of
every operand at every n are the rows of one ``_expm1`` call, the bases one
evaluation over those rows, and the n-th powers one binary powering with an
exponent per row (``algebra._power``). Each row takes exactly the
operations of its own single-n call, so a report's errors are bitwise those
of ``trotter_jordan``, ``trotter_U`` and ``trotter_U_pair`` at each n, which
are the same routine on the one-point grid (n,).

The curve limit evaluates f(lambda_n) once per grid point. Where mu_n is an
integer, the principal power is the plain power, which needs no log and no
branch check: the offsets f(lambda_n) - 1 of those points are the rows of
one binary powering, each to its own mu_n, the pass the product formulae
use, with its sums in numpy's extended precision, so a row is rounded to
double once, after its powering. Every other mu_n goes through
``power_mu``, one point at a time.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (Element, _family_size, _finite, _norms, _power,
                      _product, _same_algebra)
from .calculus import (HolomorphicCurve, _expm1, _offset_mul,
                       derivative_at_zero, exp, power_mu)
from .errors import BranchCut, InsufficientData

ERROR_FLOOR = 1e-12
# the largest integer mu_n that takes the plain power (``_integer_mu``)
_MAX_INTEGER_MU = 2 ** 53


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-n errors of a Trotter experiment with a fitted log-log slope.

    ``fitted_slope`` is None when every error sits at the noise floor,
    i.e. the formula converged exactly on this input.
    """

    formula_id: str
    n_grid: tuple
    errors: tuple
    fitted_slope: float | None
    target_norm: float
    skipped: tuple = ()

    @property
    def exact(self) -> bool:
        return self.fitted_slope is None


@dataclass(frozen=True)
class SequencePlan:
    """Sequences (lambda_n), (mu_n) with lambda_n * mu_n -> limit_lambda."""

    lambda_seq: Callable[[int], complex]
    mu_seq: Callable[[int], complex]
    limit_lambda: complex

    def check_on_grid(self, n_grid: Sequence[int]):
        first = self.lambda_seq(n_grid[0]) * self.mu_seq(n_grid[0])
        last = self.lambda_seq(n_grid[-1]) * self.mu_seq(n_grid[-1])
        if (abs(last - self.limit_lambda)
                > abs(first - self.limit_lambda) + 1e-9):
            raise ValueError(
                "lambda_n * mu_n does not approach limit_lambda on this grid"
            )


def _pair_offset(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                 algebra) -> np.ndarray:
    """U_{1+x, 1+w}(1 + y) - 1 = U_{1+x, 1+w}(y) + x + w + x o w.

    U_{1+x, 1+w}(y) = y + x o y + w o y + U_{x, w}(y) and
    U_{x, w}(y) = x o (w o y) + w o (x o y) - (x o w) o y. With w = x this is
    U_{1+x}(1 + y) - 1, term for term.
    """
    xy = _product(x, y, algebra)
    wy = _product(w, y, algebra)
    xw = _product(x, w, algebra)
    u = (y + xy + wy + _product(x, wy, algebra) + _product(w, xy, algebra)
         - _product(xw, y, algebra))
    return u + (x + w + xw)


def _step(operands: Sequence[Element], n_grid: Sequence[int],
          base) -> np.ndarray:
    """Row r is (1 + base(x, ..., algebra))^n for n = n_grid[r], ascending,
    with x = e^{v/n} - 1 for each operand v; each n must be an integer >= 1.

    The rows e^{v/n} - 1, for every v and n, come from one ``_expm1`` call
    (in chunks that bound its L_x stack, ``algebra._chunked``), ``base``
    runs once over the stack, and one binary powering raises row n to n.
    A power that overflows raises ``ExpOverflow`` (``algebra._power``).
    """
    for n in n_grid:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(
                f"step count n must be an integer >= 1, got {n!r}")
    _same_algebra(*operands)
    algebra = operands[0].algebra
    args = (np.stack([v.coeffs for v in operands])[:, None]
            / np.array(n_grid, dtype=complex)[:, None])
    rows = _expm1(args.reshape(-1, algebra.dim), algebra)
    y = _power(lambda y, z: _offset_mul(y, z, algebra),
               base(*rows.reshape(args.shape), algebra), n_grid)
    return algebra.unit + y


def trotter_jordan(a: Element, b: Element, n: int) -> Element:
    """(e^{a/n} o e^{b/n})^n, converging to e^{a+b} with error O(n^-2).

    With x = e^{a/n} - 1 and y = e^{b/n} - 1 the base is 1 + x + y + x o y.
    """
    return Element(a.algebra, _step((a, b), (n,), _offset_mul)[0])


def trotter_U(a: Element, b: Element, n: int) -> Element:
    """(U_{e^{a/n}}(e^{b/n}))^n, converging to e^{2a+b} with error O(n^-2).

    U_{x, x} = U_x, so this is ``trotter_U_pair`` at c = a.
    """
    return trotter_U_pair(a, b, a, n)


def trotter_U_pair(a: Element, b: Element, c: Element, n: int) -> Element:
    """(U_{e^{a/n}, e^{c/n}}(e^{b/n}))^n, converging to e^{a+b+c} with error
    O(n^-2).

    With x = e^{a/n} - 1, y = e^{b/n} - 1 and w = e^{c/n} - 1 the base is
    1 + U_{1+x, 1+w}(y) + x + w + x o w (``_pair_offset``).
    """
    return Element(a.algebra, _step((a, b, c), (n,), _pair_offset)[0])


def _fit_slope(n_grid, errors):
    """Least-squares slope of log error vs log n above the noise floor."""
    xs, ys = [], []
    for n, e in zip(n_grid, errors):
        if e > ERROR_FLOOR:
            xs.append(np.log(float(n)))
            ys.append(np.log(e))
    if len(xs) < 2:
        return None
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def _integer_mu(mu) -> int | None:
    """mu as an int if it is an integer in [1, 2^53], else None.

    An int or numpy integer counts, and so does a float or complex with zero
    imaginary part and an integral real part, such as float(n) or
    3.0 * n ** 2. 0, negative values and values above 2^53 do not.
    """
    if isinstance(mu, (int, np.integer)):
        k = int(mu)
    elif isinstance(mu, numbers.Complex):
        z = complex(mu)
        if z.imag or not z.real.is_integer():
            return None
        k = int(z.real)
    else:
        return None
    return k if 1 <= k <= _MAX_INTEGER_MU else None


def _errors(rows: np.ndarray, target: Element) -> tuple:
    """The norm of each row minus the target's coefficients, one stacked
    ``algebra._norms`` call (so a row above 1.3e154 keeps a finite norm),
    after one ``algebra._finite`` check of the differences."""
    diffs = rows - target.coeffs
    _finite(diffs)
    return tuple(_norms(diffs).tolist())


def general_trotter(f: HolomorphicCurve, plan: SequencePlan,
                    n_grid: Sequence[int]) -> ConvergenceReport:
    """Evaluate f(lambda_n)^(mu_n) along the grid against exp(lambda f'(0)).

    The grid must pass ``check_grid``. f(lambda_n) is evaluated once per
    point. Points whose mu_n is an integer (``_integer_mu``) take the plain
    power: their offsets f(lambda_n) - 1 are raised, each to its own mu_n,
    in one binary powering (``algebra._power``) whose sums run in
    ``np.clongdouble`` (``calculus._offset_mul``). Where that is wider than
    double (a 64-bit significand on x86-64), the powering's up to 53
    squarings round well below double, and each row is rounded to double
    once; a power that overflows raises ``ExpOverflow``. The others take
    the principal power ``power_mu``; where its log precondition fails
    (``BranchCut``) the point is skipped and recorded.
    The limit statement only holds for sufficiently large n, and fewer than
    four usable points raise ``InsufficientData``. f'(0) is sampled at
    rho = R / 2, or at rho = 1 for an entire curve (``radius_r`` R = inf).
    """
    n_grid = check_grid(n_grid)
    plan.check_on_grid(n_grid)
    f0 = f.eval(0.0)
    algebra = f0.algebra
    if (f0 - algebra.one()).norm > 1e-12:
        raise ValueError("curve must satisfy f(0) = 1")
    rho = 0.5 * f.radius_r if np.isfinite(f.radius_r) else 1.0
    deriv = derivative_at_zero(f, rho=rho)
    target = exp(deriv * plan.limit_lambda)
    rows = np.empty((len(n_grid), algebra.dim), dtype=complex)
    powers, skipped = {}, []  # powers: row -> its integer mu_n
    for r, n in enumerate(n_grid):
        base = f.eval(plan.lambda_seq(n))
        _same_algebra(target, base)
        mu = plan.mu_seq(n)
        k = _integer_mu(mu)
        if k is not None:
            powers[r] = k
            rows[r] = base.coeffs - algebra.unit
            continue
        try:
            rows[r] = power_mu(base, mu).coeffs
        except BranchCut:
            skipped.append(n)
    if powers:  # _power takes its exponents ascending
        order = sorted(powers, key=powers.get)
        wide = _power(lambda y, z: _offset_mul(y, z, algebra),
                      rows[order].astype(np.clongdouble),
                      [powers[r] for r in order])
        rows[order] = algebra.unit + wide
    used = [r for r, n in enumerate(n_grid) if n not in skipped]
    if len(used) < 4:
        raise InsufficientData(
            f"only {len(used)} usable grid points after skipping {skipped}"
        )
    n_used = tuple(n_grid[r] for r in used)
    errors = _errors(rows[used], target)
    return ConvergenceReport("general", n_used, errors,
                             _fit_slope(n_used, errors), target.norm,
                             tuple(skipped))


def associative_identity_check(a: Element, b: Element, n: int) -> float:
    """Relative residual of the exact associative rearrangement identity.

    Both sides of (e^{a/n} e^{b/n} e^{a/n})^n =
    e^{-a/n} (e^{2a/n} e^{b/n})^n e^{a/n} are evaluated with ordinary
    matrix products of the kernel's exponentials (``exp``, which on
    ``matrix:k`` is the matrix exponential, since C[a] is associative). The
    identity is algebraic, so the residual is rounding-level for every n; it
    checks exp's group law at that level too: e^{-a/n} e^{a/n} = 1 and
    e^{2a/n} = (e^{a/n})^2.
    """
    _same_algebra(a, b)
    k = _family_size(a.algebra, "matrix", "associative identity")
    ean, ebn, ean_inv, e2an = (exp(v / n).coeffs.reshape(k, k)
                               for v in (a, b, -a, 2.0 * a))
    lhs = np.linalg.matrix_power(ean @ ebn @ ean, n)
    rhs = ean_inv @ np.linalg.matrix_power(e2an @ ebn, n) @ ean
    denom = max(np.linalg.norm(lhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / denom)


def geometric_grid(n_min: int = 16, n_max: int = 4096, ratio: int = 2):
    """The default grid {n_min, n_min*ratio, ..., <= n_max}."""
    if n_min < 2 or ratio < 2 or n_max < n_min:
        raise ValueError("grid requires min >= 2, ratio >= 2, max >= min")
    grid = []
    n = n_min
    while n <= n_max:
        grid.append(n)
        n *= ratio
    return tuple(grid)


def check_grid(n_grid: Sequence[int]) -> tuple:
    """The grid as ints: at least six integers >= 1, each >= twice the last.

    Integer types such as numpy's pass; a float, even 16.0, is refused.
    """
    try:
        n_grid = tuple(operator.index(n) for n in n_grid)
    except TypeError:
        raise ValueError(
            f"grid points must be integers, got {list(n_grid)}") from None
    if len(n_grid) < 6:
        raise ValueError("need a geometric grid with at least 6 points")
    if min(n_grid) < 1:
        raise ValueError("grid points must be at least 1")
    if any(hi < 2 * lo for lo, hi in zip(n_grid, n_grid[1:])):
        raise ValueError("grid must be geometric with ratio >= 2")
    return n_grid


# formula id: (parameter keys, exponent s of the limit e^s, operand order,
# base of the n-th power, as for ``_step``)
FORMULAE = {
    "jordan_product": ("ab", lambda p: p["a"] + p["b"], "ab", _offset_mul),
    "U_single": ("ab", lambda p: 2.0 * p["a"] + p["b"], "aba", _pair_offset),
    "U_pair": ("abc", lambda p: p["a"] + p["b"] + p["c"], "abc",
               _pair_offset),
}


def convergence_report(formula_id: str, params: dict,
                       n_grid: Sequence[int]) -> ConvergenceReport:
    """Errors of one product formula of ``FORMULAE`` against its exp target.

    ``params`` maps the formula's parameter keys to elements (more keys are
    ignored; a missing one raises ``ValueError``); the grid must pass
    ``check_grid``. The target comes first, so one that overflows
    raises exp's ``ExpOverflow``; then one ``_step`` pass gives every n's
    row, and one finiteness check covers the rows minus the target
    (``_errors``).
    """
    n_grid = check_grid(n_grid)
    if formula_id not in FORMULAE:
        raise ValueError(f"unknown formula id {formula_id!r}")
    keys, exponent, order, base = FORMULAE[formula_id]
    missing = [k for k in keys if k not in params]
    if missing:
        raise ValueError(f"formula {formula_id!r} needs parameters "
                         f"{', '.join(keys)}; missing {', '.join(missing)}")
    target = exp(exponent(params))
    errors = _errors(_step([params[k] for k in order], n_grid, base), target)
    return ConvergenceReport(formula_id, n_grid, errors,
                             _fit_slope(n_grid, errors), target.norm)
