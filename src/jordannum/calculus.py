"""Exponential, principal logarithm, powers, and contour functional calculus.

All single-element functions operate inside the closed subalgebra generated
by the element, which is associative and commutative, so scalar algorithms
(scaling-and-squaring, the incremental Newton square root, series)
carry over verbatim. There each term of a power series in x is the last
one times x, so the exp, expm1 and log series form the d x d operator L_x
once (``algebra._mult_matrix``) and take each term as one matrix-vector
product; exp's is Horner's rule, its degree set before it runs from a
bound on |L_x| (``_series``; as in Al-Mohy & Higham, SIAM J. Matrix Anal.
Appl. 2009), so no term is tested.

exp and e^x - 1 also run on a stack of arguments, one per row: the paths
exp(t x) of the character vetting, e^{+-ix} in ``cos``, e^{v/n} - 1 for
every operand v of a Trotter report at every n of its grid. Each row keeps
its scaling, series degree and squaring count, so it is bitwise its single
call; the series and each squaring run once per chunk (``algebra._chunked``).

The two contour integrals, ``holomorphic_calculus`` and ``derivative_at_zero``,
share one nested trapezoid rule on the circle (``_nested_trapezoid``): when
the node count doubles, the old nodes are kept and only the midpoints are
added, so each node is evaluated once (Trefethen & Weideman, SIAM Rev.
2014). ``holomorphic_calculus`` solves the resolvents at each new set of
nodes on the m x m compression H of L_a to C[a] (``algebra._generated``).
``derivative_at_zero`` starts at the coarsest level whose aliasing bound
(rho / R)^N, for a curve analytic on |z| < R, is within the rule's stop
tolerance, from 16 nodes up to a cap of 64: 32 at rho = R / 2, so the
first doubling that can stop it is 32 -> 64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (Element, _chunked, _generated, _mult_matrix, _norm,
                      _product, _same_algebra, jordan_mul)
from .errors import (BranchCut, ContourViolation, ExpOverflow, JordanNumError,
                     QuadratureError)
from .spectral import _clustered, _solve_checked, inverse, jordan_spectrum

_SERIES_TOL = 1e-18
_ELL_LIMIT = 2.0  # bound on ell = |L_x| after the scaling (``_scaled``)
# degree m = 1..40 of exp's series suffices while ell <= _THETA[m - 1]
_DEGREES = np.arange(1.0, 41.0)
_THETA = (_SERIES_TOL * np.cumprod(_DEGREES + 1.0)
          * (1.0 - _ELL_LIMIT / (_DEGREES + 2.0))) ** (1.0 / _DEGREES)
_BRANCH_CLEARANCE = 1e-8
_CONTOUR_NODES = 256  # holomorphic_calculus's first rule
_MAX_CONTOUR_NODES = 8192
# a doubling that moves the nested rule by at most this much, relative, ends it
_QUADRATURE_TOL = 1e-9
_CAUCHY_NODES = 64
_MAX_SQRT_STEPS = 64


@dataclass(frozen=True)
class Contour:
    """The circle |zeta - center| = radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if not np.isfinite([self.center, self.radius]).all():
            raise ValueError("contour center and radius must be finite")
        if self.radius <= 0:
            raise ValueError("contour radius must be positive")


@dataclass(frozen=True)
class HolomorphicCurve:
    """A caller-supplied analytic map from a disk of radius ``radius_r``."""

    eval: Callable[[complex], Element]
    radius_r: float

    def __post_init__(self):
        if not self.radius_r > 0:  # inf is allowed: an entire curve
            raise ValueError("curve radius_r must be positive and not NaN")


def _scaled(arg: np.ndarray, algebra):
    """Squaring counts s, and x = arg / 2^s with L_x and ell >= |L_x|_2.

    s is the least count >= 0 that brings the coefficient norm of x to 0.5
    and ell = sqrt(|L_x|_1 |L_x|_inf) to ``_ELL_LIMIT`` or below: a norm
    does not bound L_x (scaling the structure tensor by c scales L_x by c).
    On the standard families ell <= 2.23 |x| <= 1.12, so the norm alone
    sets s. arg may carry leading batch axes; then each row has its own s,
    from its norm (``_norms``).
    """
    s = np.ceil(np.log2(np.maximum(2.0 * _norms(arg), 1.0)))
    x = arg / (2.0 ** s)[..., None]
    lx = _mult_matrix(x, algebra)
    ell = _ell(lx)
    if (ell > _ELL_LIMIT).any():  # halving is exact: as if scaled once
        more = np.ceil(np.log2(np.maximum(ell / _ELL_LIMIT, 1.0)))
        half = 0.5 ** more
        x, lx = x * half[..., None], lx * half[..., None, None]
        ell, s = ell * half, s + more
    return s, x, lx, ell


def _ell(lx: np.ndarray) -> np.ndarray:
    """sqrt(|L|_1 |L|_inf) >= |L|_2, per matrix of a stack."""
    mag = np.abs(lx)
    return np.sqrt(mag.sum(-2).max(-1) * mag.sum(-1).max(-1))


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of complex coefficients, per row."""
    return np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag)


@np.errstate(over="ignore")  # half the cost of a with block per call
def _norms(arg: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of arg: the square root of
    ``_sq_norm``, and ``algebra._norm``, which scales, on a row whose sum of
    squares overflows (norms above about 1.3e154)."""
    norm = np.sqrt(_sq_norm(arg))
    if np.count_nonzero(np.isfinite(norm)) == norm.size:
        return norm
    return np.where(np.isfinite(norm), norm,
                    np.vectorize(_norm, signature="(d)->()")(arg))


def _series(x: np.ndarray, lx: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """e^x - 1 = sum_{k=1}^m x^k / k! by Horner's rule, degree m set up front.

    From v = x, each step k = m, ..., 2 sets v <- x + L_x v / k (Horner for
    (e^x - 1) / x, applied to x), summing from the smallest term up. m is
    the least degree whose tail bound |x| ell^m / (m+1)! / (1 - ell / (m+2))
    is within ``_SERIES_TOL`` |x| (``_THETA``). On a stack each row has its
    own m: a row divides by inf until its own first step, so it keeps its
    start value x and ends bitwise as it would alone.
    """
    m = np.searchsorted(_THETA, ell) + 1
    ks = np.arange(float(m.max()), 1.0, -1.0)
    div = np.where(m[..., None] >= ks, ks, np.inf)
    v = x
    for i in range(ks.size):
        v = x + np.matvec(lx, v) / div[..., i, None]
    return v


def _square_repeatedly(square, acc, s, arg: np.ndarray) -> np.ndarray:
    """Apply ``square`` s times; raise ExpOverflow if the result is not finite.

    On a stack, row r is squared s[r] times, and each step squares only the
    rows that still need it. No norm bound is checked up front: exp(800 N)
    of a nilpotent N is finite although N's norm is large. With s = 0 the
    series alone, of an argument of norm <= 0.5, cannot overflow.
    """
    top = int(s.max())
    if not top:
        return acc
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(top):
            rows = s > j if s.ndim else ...  # no row axis: all of acc
            acc[rows] = square(acc[rows])
    if not np.isfinite(acc).all():
        raise ExpOverflow(
            f"exponential overflows double precision (argument norm "
            f"{_norms(arg).max():.3e})"
        )
    return acc


@_chunked
def _exp_rows(arg: np.ndarray, algebra) -> np.ndarray:
    """Coefficients of exp(arg), or of exp of each row of a stack.

    Scaling-and-squaring: the series of arg / 2^s, then s squarings, with
    s per row (``_scaled``).
    """
    s, x, lx, ell = _scaled(arg, algebra)
    acc = algebra.unit + _series(x, lx, ell)
    return _square_repeatedly(lambda v: _product(v, v, algebra), acc, s, arg)


def exp(a: Element) -> Element:
    """Exponential by scaling-and-squaring with a truncated power series."""
    return Element(a.algebra, _exp_rows(a.coeffs, a.algebra))


def _offset_mul(y: np.ndarray, z: np.ndarray, algebra) -> np.ndarray:
    """(1 + y) o (1 + z) - 1 = y + z + y o z."""
    return y + z + _product(y, z, algebra)


@_chunked
def _expm1(arg: np.ndarray, algebra) -> np.ndarray:
    """e^arg - 1 for arg or each of its rows, accurate relative to |e^arg - 1|.

    The same scaling and series as ``exp`` without the unit term, so no
    digits of a small result are lost against 1; each squaring
    (1 + x)^2 - 1 becomes 2x + x^2 (``_offset_mul``).
    """
    s, x, lx, ell = _scaled(arg, algebra)
    acc = _series(x, lx, ell)
    return _square_repeatedly(
        lambda v: _offset_mul(v, v, algebra), acc, s, arg)


def _sqrt(a: Element) -> Element:
    """Principal square root inside the subalgebra of a.

    The incremental Newton iteration (Higham, *Functions of Matrices*,
    sec. 6.4): from x = a and e = (1 - a) / 2, each step sets x <- x + e
    and then e <- -e x^-1 e / 2, written e o (e o x^-1) because the
    subalgebra of a is associative. It stops once |e| <= 1e-15 max(|x|, 1),
    or after ``_MAX_SQRT_STEPS`` steps. In exact arithmetic its iterates are
    Newton's, but it updates by the small correction e, so rounding errors
    are not amplified where Newton's X <- (X + X^-1 o a) / 2 is unstable
    (non-normal elements). A root is accepted only if its residual
    |x o x - a| is at most 1e-9 max(|a|, 1).
    """
    x, e = a, 0.5 * (a.algebra.one() - a)
    for _ in range(_MAX_SQRT_STEPS):
        x = x + e
        if e.norm <= 1e-15 * max(x.norm, 1.0):
            break
        e = -0.5 * jordan_mul(e, jordan_mul(e, inverse(x)))
    resid = (jordan_mul(x, x) - a).norm
    if resid > 1e-9 * max(a.norm, 1.0):
        raise JordanNumError(
            f"square root inaccurate (residual {resid:.3e})"
        )
    return x


def log(a: Element) -> Element:
    """Principal logarithm by inverse scaling-and-squaring.

    Repeated square roots (``_sqrt``, incremental Newton) of a, after a
    branch check on its spectrum, bring z = root - 1 to norm 0.25 and
    ell(L_z) = sqrt(|L_z|_1 |L_z|_inf) to 0.6 or below: the norm of z
    alone does not bound L_z (``_scaled``). Then the Mercator series of
    log(1 + z) runs on coefficient arrays, each term one product by the
    operator L_z, and one Element is built at the end and scaled by
    2^roots. A series that has not met its stop test after 200 terms
    raises JordanNumError.

    Newton's first iterate (1 + a) / 2 is singular if -1 is in the spectrum,
    and digits are lost near the negative axis. So a spectrum reaching into
    the left half-plane is turned by the quarter turn i^-k that most lowers
    its largest |argument|, if one does: log a = log(i^-k a) + i k pi / 2.
    """
    spec = jordan_spectrum(a)
    for p in spec.points:
        dist = abs(p) if p.real > 0 else abs(p.imag)
        if dist <= _BRANCH_CLEARANCE:
            raise BranchCut(
                f"spectrum point {p} is within {_BRANCH_CLEARANCE} of the "
                "closed negative real axis"
            )
    worst = [np.abs(np.angle(spec.points) - 0.5 * np.pi * k).max()
             for k in (0, 1, -1)]
    turn = (0, 1, -1)[np.argmin(worst)] if worst[0] > 0.5 * np.pi else 0
    one = a.algebra.one()
    cur = a * (-1j if turn == 1 else 1j) if turn else a
    roots = 0
    lz = _mult_matrix((cur - one).coeffs, a.algebra)
    while (cur - one).norm > 0.25 or _ell(lz) > 0.6:
        if roots == 64:
            raise JordanNumError("square-root staging did not contract to 1")
        cur = _sqrt(cur)
        roots += 1
        lz = _mult_matrix((cur - one).coeffs, a.algebra)
    term = one.coeffs
    acc = np.zeros_like(term)
    for k in range(1, 200):
        term = lz @ term
        acc = acc + term * ((-1.0) ** (k + 1) / k)
        if _sq_norm(term) / k ** 2 < _SERIES_TOL ** 2 * max(_sq_norm(acc),
                                                            1e-60):
            break
    else:
        raise JordanNumError("log series did not converge in 200 terms")
    out = acc * float(2 ** roots)
    if turn:
        out += (0.5j * np.pi * turn) * a.algebra.unit
    return Element(a.algebra, out)


def power_mu(a: Element, mu: complex) -> Element:
    """Principal power a^mu = exp(mu * log a)."""
    return exp(log(a) * mu)


def _nested_trapezoid(sample: Callable[[np.ndarray], np.ndarray],
                      nodes: int, name: str) -> np.ndarray:
    """The mean of ``sample`` over the unit circle, by the trapezoid rule.

    ``sample(w)`` returns one row per point w_k = e^{i theta_k}. The first
    rule takes ``nodes`` equispaced points; each doubling adds only the
    midpoints theta = 2 pi (k + 1/2) / n to the running sum, so every point
    is sampled once. The rule is accepted when a doubling moves it by at
    most ``_QUADRATURE_TOL`` relative; ``name`` names it in the
    QuadratureError raised when that does not happen below
    ``_MAX_CONTOUR_NODES`` points.
    """
    n = nodes
    total = sample(np.exp(2j * np.pi * np.arange(n) / n)).sum(axis=0)
    prev = total / n
    while n < _MAX_CONTOUR_NODES:
        total = total + sample(
            np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)).sum(axis=0)
        n *= 2
        cur = total / n
        if (np.linalg.norm(cur - prev)
                <= _QUADRATURE_TOL * max(np.linalg.norm(cur), 1.0)):
            return cur
        prev = cur
    raise QuadratureError(
        f"{name} quadrature did not stabilize below {_MAX_CONTOUR_NODES} nodes"
    )


def holomorphic_calculus(h: Callable[[complex], complex], a: Element,
                         contour: Contour) -> Element:
    """(1/2 pi i) * integral of h(z) (z*1 - a)^{-1} dz over the contour.

    Each resolvent lies in C[a]: with L_a Q = Q H (``algebra._generated``),
    (z*1 - a)^{-1} = Q (zI - H)^{-1} |1| e_1; the ContourViolation check
    takes the spectrum from the same H. The nested trapezoid rule
    (``_nested_trapezoid``), from ``_CONTOUR_NODES`` points and doubled until
    stable, calls h once at each point of the accepted rule and solves the
    m x m systems of each new set of points in one chunked call: each chunk
    (``algebra._chunked``) forms its own operators zeta I - H, so a level
    holds at most ``_STACK_ENTRIES`` of them at once, and solves them with
    ``spectral._solve_checked``, which refuses a singular one.
    """
    q, hmat = _generated(a)
    margin = 0.05 * contour.radius
    for p in _clustered(np.linalg.eigvals(hmat)).points:  # jordan_spectrum
        if abs(p - contour.center) >= contour.radius - margin:
            raise ContourViolation(
                f"spectrum point {p} is not strictly inside the contour"
            )
    m = hmat.shape[0]
    rhs = np.linalg.norm(a.algebra.unit) * np.eye(m)[0]  # Q^H 1 = |1| e_1

    @_chunked
    def solve(rhs_rows, zetas):
        ops = zetas[:, None, None] * np.eye(m)
        ops -= hmat  # in place: one chunk's operator stack, not two
        return _solve_checked(ops, rhs_rows)

    def sample(w):
        # dz / (2 pi i) = offset * dtheta / (2 pi)
        offs = contour.radius * w
        zetas = contour.center + offs
        hz = np.array([h(z) for z in zetas], dtype=complex)
        ys = solve(np.broadcast_to(rhs, (zetas.size, m)), zetas)
        return (hz * offs)[:, None] * ys

    y = _nested_trapezoid(sample, _CONTOUR_NODES, "contour")
    return Element(a.algebra, q @ y)


def derivative_at_zero(f: HolomorphicCurve, rho: float) -> Element:
    """f'(0) by the Cauchy coefficient formula on the circle of radius rho.

    f'(0) = (1/2 pi i) * integral of f(z) / z^2 dz, by the nested trapezoid
    rule (``_nested_trapezoid``); ``f.eval`` is called once at each point of
    the accepted rule. For f analytic on |z| < R = ``f.radius_r``, the
    N-point rule errs by O((rho / R)^N) (Trefethen & Weideman, SIAM Rev.
    2014), so the first level is the least power of two N_0 >= 16 with
    (rho / R)^N_0 <= ``_QUADRATURE_TOL``, capped at ``_CAUCHY_NODES``: 32
    at rho = R / 2, and 64 once rho / R > 1e-9^(1/32) = 0.523. The first
    rule that can be accepted has 2 N_0 points, so below the cap its
    aliasing bound (rho / R)^(2 N_0) <= 1e-18 is at rounding level. Where
    the bound asks for more, the rule starts at 64 and doubles as before:
    a larger first level sums in fewer, larger batches and rounds worse.
    """
    if not (0 < rho < f.radius_r) or not np.isfinite(rho):
        raise ValueError("sampling radius must be finite and in (0, radius_r)")
    ratio = rho / f.radius_r
    nodes = 16
    while ratio ** nodes > _QUADRATURE_TOL and nodes < _CAUCHY_NODES:
        nodes *= 2
    first = None

    def sample(w):
        nonlocal first
        values = [f.eval(rho * z) for z in w]
        if first is None:
            first = values[0]
        for v in values:
            _same_algebra(first, v)
        return np.array([v.coeffs for v in values]) / (rho * w)[:, None]

    coeffs = _nested_trapezoid(sample, nodes, "Cauchy")
    return Element(first.algebra, coeffs)


def cos(a: Element) -> Element:
    """Cosine (e^{ia} + e^{-ia}) / 2, its exponentials as one stacked call."""
    rows = _exp_rows(a.coeffs * np.array([[1j], [-1j]]), a.algebra)
    return 0.5 * Element(a.algebra, rows[0] + rows[1])
