"""Exponential, principal logarithm, powers, and contour functional calculus.

All single-element functions operate inside the closed subalgebra generated
by the element, which is associative and commutative, so scalar algorithms
(scaling-and-squaring, Newton square roots, series) carry over verbatim.

The two contour integrals, ``holomorphic_calculus`` and ``derivative_at_zero``,
share one nested trapezoid rule on the circle (``_nested_trapezoid``): when
the node count doubles, the old nodes are kept and only the midpoints are
added, so each node is evaluated once (Trefethen & Weideman, SIAM Rev.
2014). ``holomorphic_calculus`` solves the resolvents at each new set of
nodes as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Element, _product, _same_algebra, jordan_mul
from .errors import (BranchCut, ContourViolation, ExpOverflow, JordanNumError,
                     QuadratureError)
from .spectral import _resolvents, inverse, jordan_spectrum

_SERIES_TOL = 1e-18
_BRANCH_CLEARANCE = 1e-8
_MAX_CONTOUR_NODES = 8192


@dataclass(frozen=True)
class Contour:
    """A circle |zeta - center| = radius discretized with ``nodes`` points."""

    center: complex
    radius: float
    nodes: int = 256

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("contour radius must be positive")
        if self.nodes < 32 or self.nodes % 2:
            raise ValueError("contour node count must be even and >= 32")


@dataclass(frozen=True)
class HolomorphicCurve:
    """A caller-supplied analytic map from a disk of radius ``radius_r``."""

    eval: Callable[[complex], Element]
    radius_r: float


def _scaled(a: Element):
    """The squaring count s and the coefficients of a / 2^s, of norm <= 0.5."""
    nrm = a.norm
    s = 0 if nrm <= 0.5 else max(0, math.ceil(math.log2(nrm / 0.5)))
    return s, a.coeffs / complex(float(2 ** s))


def _series(x, structure, acc, term):
    """acc + sum_{k>=1} term x^k / k!, stopped once a term is negligible."""
    for k in range(1, 200):
        term = _product(term, x, structure) / complex(k)
        acc = acc + term
        if np.linalg.norm(term) <= _SERIES_TOL * np.linalg.norm(acc):
            break
    return acc


def _square_repeatedly(square, acc, s: int, a: Element) -> np.ndarray:
    """Apply ``square`` s times; raise ExpOverflow if the result is not finite.

    No norm bound is checked up front: exp(800 N) of a nilpotent N is finite
    although N's norm is large. With s = 0 the series alone, of an argument
    of norm <= 0.5, cannot overflow.
    """
    if not s:
        return acc
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            acc = square(acc)
    if not np.isfinite(acc).all():
        raise ExpOverflow(
            f"exponential overflows double precision (argument norm "
            f"{a.norm:.3e})"
        )
    return acc


def exp(a: Element) -> Element:
    """Exponential by scaling-and-squaring with a truncated power series."""
    s, x = _scaled(a)
    structure, unit = a.algebra.structure, a.algebra.unit
    acc = _series(x, structure, unit, unit)
    acc = _square_repeatedly(lambda v: _product(v, v, structure), acc, s, a)
    return Element(a.algebra, acc)


def _expm1(a: Element) -> np.ndarray:
    """Coefficients of e^a - 1, accurate relative to |e^a - 1| for small a.

    The same scaling and series as ``exp`` without the unit term, so no
    digits of a small result are lost against 1; each squaring
    (1 + x)^2 - 1 becomes 2x + x^2.
    """
    s, x = _scaled(a)
    structure = a.algebra.structure
    acc = _series(x, structure, np.zeros_like(x), a.algebra.unit)
    return _square_repeatedly(
        lambda v: v + v + _product(v, v, structure), acc, s, a)


def _sqrt_newton(a: Element, max_iter: int = 64) -> Element:
    """Principal square root by Newton iteration inside the subalgebra of a.

    Newton is unstable for non-normal elements (Higham, *Functions of
    Matrices*, sec. 6.4): the relative step can fall to a few 1e-15, above
    the 1e-15 stop, and grow again; then the smallest-step iterate is used.
    """
    x, tried = a, []
    for _ in range(max_iter):
        nxt = 0.5 * (x + jordan_mul(inverse(x), a))
        step, scale = (nxt - x).norm, max(nxt.norm, 1.0)
        x = nxt
        if step <= 1e-15 * scale:
            break
        tried.append((step / scale, x))
    else:
        x = min(tried, key=lambda t: t[0])[1]
    resid = (jordan_mul(x, x) - a).norm
    if resid > 1e-9 * max(a.norm, 1.0):
        raise JordanNumError(
            f"Newton square root inaccurate (residual {resid:.3e})"
        )
    return x


def log(a: Element) -> Element:
    """Principal logarithm by inverse scaling-and-squaring."""
    spec = jordan_spectrum(a)
    for p in spec.points:
        dist = abs(p) if p.real > 0 else abs(p.imag)
        if dist <= _BRANCH_CLEARANCE:
            raise BranchCut(
                f"spectrum point {p} is within {_BRANCH_CLEARANCE} of the "
                "closed negative real axis"
            )
    one = a.algebra.one()
    cur = a
    roots = 0
    while (cur - one).norm > 0.25:
        cur = _sqrt_newton(cur)
        roots += 1
        if roots > 64:
            raise JordanNumError("square-root staging did not contract to 1")
    z = cur - one
    term = one
    acc = a.algebra.zero()
    for k in range(1, 200):
        term = jordan_mul(term, z)
        acc = acc + term * ((-1.0) ** (k + 1) / k)
        if term.norm / k < _SERIES_TOL * max(acc.norm, 1e-30):
            break
    return acc * float(2 ** roots)


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
    most 1e-9 relative; ``name`` names it in the QuadratureError raised when
    that does not happen below ``_MAX_CONTOUR_NODES`` points.
    """
    n = nodes
    total = sample(np.exp(2j * np.pi * np.arange(n) / n)).sum(axis=0)
    prev = total / n
    while n < _MAX_CONTOUR_NODES:
        total = total + sample(
            np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)).sum(axis=0)
        n *= 2
        cur = total / n
        if np.linalg.norm(cur - prev) <= 1e-9 * max(np.linalg.norm(cur), 1.0):
            return cur
        prev = cur
    raise QuadratureError(
        f"{name} quadrature did not stabilize below {_MAX_CONTOUR_NODES} nodes"
    )


def holomorphic_calculus(h: Callable[[complex], complex], a: Element,
                         contour: Contour) -> Element:
    """(1/2 pi i) * integral of h(z) (z*1 - a)^{-1} dz over the contour.

    Nested trapezoid rule from ``contour.nodes`` points, doubled until
    stable (``_nested_trapezoid``): h is called once at each point of the
    accepted rule, and the resolvents at each new set of points are solved
    as one batch (``spectral._resolvents``), each checked for conditioning
    as ``inverse`` checks it.
    """
    spec = jordan_spectrum(a)
    margin = 0.05 * contour.radius
    for p in spec.points:
        if abs(p - contour.center) >= contour.radius - margin:
            raise ContourViolation(
                f"spectrum point {p} is not strictly inside the contour"
            )

    def sample(w):
        # dz / (2 pi i) = offset * dtheta / (2 pi)
        offs = contour.radius * w
        zetas = contour.center + offs
        hz = np.array([h(z) for z in zetas], dtype=complex)
        return (hz * offs)[:, None] * _resolvents(a, zetas)

    return Element(a.algebra,
                   _nested_trapezoid(sample, contour.nodes, "contour"))


def derivative_at_zero(f: HolomorphicCurve, rho: float, nodes: int = 64) -> Element:
    """f'(0) by the Cauchy coefficient formula on the circle of radius rho.

    f'(0) = (1/2 pi i) * integral of f(z) / z^2 dz, by the nested trapezoid
    rule from ``nodes`` points (``_nested_trapezoid``); ``f.eval`` is called
    once at each point of the accepted rule.
    """
    if rho <= 0 or rho >= f.radius_r:
        raise ValueError("sampling radius must lie in (0, radius_r)")
    if nodes < 32:
        raise ValueError("need at least 32 quadrature nodes")
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
    """Cosine via the exponential: (e^{ia} + e^{-ia}) / 2."""
    return 0.5 * (exp(a * 1j) + exp(a * (-1j)))
