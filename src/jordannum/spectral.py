"""Jordan invertibility, inverses, resolvents, and the spectrum.

All stand on one compression, of L_a to the associative subalgebra
C[a] = span{1, a, a^2, ...} (Faraut-Koranyi, Analysis on Symmetric Cones,
ch. II): L_a Q = Q H, H m x m (``algebra._generated``). sigma(a) is H's;
a is invertible iff H is, as a^{-1} lies in C[a] (McCrimmon, A Taste of
Jordan Algebras, 2004), and then a^{-1} = Q H^{-1} |1| e_1. The resolvent
and the contour calculus solve (zeta I - H) y = |1| e_1. Each solve refuses
a system whose smallest singular value is at most ``DEFAULT_COND_TOL`` of
its largest; the SVD runs only on systems that |A|_F |A^-1|_F, an upper
bound on the condition number, does not clear (``_solve_checked``). A finite
spectrum has a connected complement, so ``in_unbounded_component`` is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Element, U_operator, _generated
from .errors import NotInvertible, OnSpectrum

DEFAULT_COND_TOL = 1e-10


@dataclass(frozen=True)
class SpectrumSet:
    """Spectrum points, the tolerance used to merge them, and their radius.

    Each point is the mean of a cluster of eigenvalues that are linked by
    steps of at most ``dedupe_tol``; a query within ``dedupe_tol`` of a point
    counts as on the spectrum.
    """

    points: tuple
    dedupe_tol: float
    spectral_radius: float

    def distance(self, z: complex) -> float:
        """Distance from z to the nearest spectrum point."""
        return min(abs(z - p) for p in self.points)


def is_invertible(a: Element, cond_tol: float = DEFAULT_COND_TOL) -> bool:
    """True iff the smallest singular value of H clears cond_tol relatively."""
    s = np.linalg.svd(_generated(a)[1], compute_uv=False)
    return bool(s[-1] > cond_tol * s[0])


def _solve_checked(ops: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ops[k] x_k = rhs[k] for a stack of square operators.

    Refuses the stack when any operator's smallest singular value is at most
    ``DEFAULT_COND_TOL`` times its largest, naming the first such operator's.
    kappa_2 <= |A|_F |A^-1|_F, so an operator whose bound is below
    0.1 / ``DEFAULT_COND_TOL`` cannot be refused. Only the others (non-finite
    ones, or all when ``inv`` meets an exactly singular one) have their
    singular values taken, by the same rule.
    """
    try:
        inv = np.linalg.inv(ops)
    except np.linalg.LinAlgError:
        doubt = np.ones(len(ops), dtype=bool)
    else:
        with np.errstate(invalid="ignore", over="ignore"):  # inf, nan: doubt
            kappa2 = (np.square(np.abs(ops)).sum(axis=(1, 2))
                      * np.square(np.abs(inv)).sum(axis=(1, 2)))
        doubt = ~(kappa2 < (0.1 / DEFAULT_COND_TOL) ** 2)
    if doubt.any():
        s = np.linalg.svd(ops[doubt], compute_uv=False)
        singular = s[:, -1] <= DEFAULT_COND_TOL * s[:, 0]
        if singular.any():
            smin = s[singular.argmax(), -1]
            raise NotInvertible(
                f"operator is numerically singular (smallest singular value "
                f"{smin:.3e})",
                smallest_singular_value=float(smin),
            )
    return np.linalg.solve(ops, rhs[:, :, None])[:, :, 0]


def inverse(a: Element) -> Element:
    """Jordan inverse a^{-1} = Q y in C[a], where H y = |1| e_1 = Q^H 1."""
    q, h = _generated(a)
    rhs = np.linalg.norm(a.algebra.unit) * np.eye(h.shape[0])[:1]
    return Element(a.algebra, q @ _solve_checked(h[None], rhs)[0])


def jordan_spectrum(a: Element) -> SpectrumSet:
    """Spectrum of a: the eigenvalues of L_a compressed to C[a], clustered."""
    return _clustered_eigenvalues(_generated(a)[1])


def _clustered_eigenvalues(hmat: np.ndarray) -> SpectrumSet:
    """The eigenvalues of hmat, merged into clusters, as a SpectrumSet.

    Eigenvalues within ``dedupe_tol`` = 1e-6 (1 + max |eigenvalue|) are
    linked, and each single-linkage cluster is reported as its mean.
    """
    raw = np.sort(np.linalg.eigvals(hmat))
    tol = 1e-6 * (1.0 + float(np.max(np.abs(raw))))
    linked = np.abs(raw[:, None] - raw[None, :]) <= tol
    for _ in range(raw.size.bit_length()):  # closure: row i is i's cluster
        linked = linked @ linked
    # one row per cluster: the row of its first member
    clusters = linked[linked.argmax(axis=1) == np.arange(raw.size)]
    points = tuple((clusters @ raw / clusters.sum(axis=1)).tolist())
    radius = max(abs(p) for p in points)
    return SpectrumSet(points=points, dedupe_tol=tol, spectral_radius=radius)


def resolvent(a: Element, zeta: complex) -> Element:
    """(zeta*1 - a)^{-1} by ``inverse``; NotInvertible on the spectrum."""
    return inverse(a.algebra.one() * zeta - a)


def in_unbounded_component(s: SpectrumSet, lam: complex) -> bool:
    """True: lam off the finite spectrum s is in the unbounded component.

    A finite set has a connected complement. OnSpectrum is raised for lam
    within ``s.dedupe_tol`` of a spectrum point.
    """
    if s.distance(lam) <= s.dedupe_tol:
        raise OnSpectrum(f"{lam} lies on the spectrum")
    return True


def u_inverse_residual(x: Element, y: Element) -> float:
    """Relative residual of (U_x(y))^{-1} = U_x^{-1}(y^{-1})."""
    ux = U_operator(x)
    lhs = inverse(ux.apply(y))
    rhs = Element(x.algebra, np.linalg.solve(ux.entries, inverse(y).coeffs))
    return (lhs - rhs).norm / max(lhs.norm, 1e-300)
