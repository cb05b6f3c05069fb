"""Jordan invertibility, inverses, resolvents, and the spectrum.

All stand on one compression, of L_a to the associative subalgebra
C[a] = span{1, a, a^2, ...} (Faraut-Koranyi, Analysis on Symmetric Cones,
ch. II): L_a Q = Q H, H m x m (``algebra._generated``). sigma(a) is H's;
a is invertible iff H is, as a^{-1} lies in C[a] (McCrimmon, A Taste of
Jordan Algebras, 2004), and then a^{-1} = Q H^{-1} |1| e_1. The resolvent
and the contour calculus solve (zeta I - H) y = |1| e_1, the calculus a
level's nodes in one chunked call. A solve refuses a system whose smallest
singular value is at most ``DEFAULT_COND_TOL`` of its largest; the SVD runs
only where |A|_F |A^-1|_F >= kappa_2 does not clear it (``_solve_checked``).

The character vetting asks for the spectra of its samples, and for the
invertibility of its principal samples, a stack at a time: ``_spectra`` and
``_invertible_rows`` take every H from one stacked Arnoldi pass
(``algebra._generated_rows``) and send the H's of one size to one stacked
``eigvals`` or SVD call, each row bitwise the single call. A single element
keeps the 2-D loop of ``algebra._generated``, which is about twice as fast
as a one-row stack. One clustering routine (``_clustered``) merges the
eigenvalues of a stack of rows, or of one row, into spectrum points. An H
beyond the double range is refused (``algebra._scaled_back``), and so is an
eigenvalue.
Finite spectra have connected complements: ``in_unbounded_component`` is exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .algebra import (Element, _chunked, _generated, _generated_rows, _ldexp,
                      _norms)
from .errors import JordanNumError, NotInvertible, OnSpectrum

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


def is_invertible(a: Element) -> bool:
    """True iff H's least singular value clears DEFAULT_COND_TOL relatively."""
    h = _generated(a.coeffs, a.algebra)[1]
    return bool(_clears(np.linalg.svd(h, compute_uv=False)))


def _clears(s: np.ndarray):
    """The invertibility rule on singular values s, largest first, per row."""
    return s[..., -1] > DEFAULT_COND_TOL * s[..., 0]


def _per_compression(x: np.ndarray, algebra, lapack) -> list:
    """``lapack`` of each row's H, from one ``_generated_rows`` pass over the
    stack x: the H's of one size m go to one stacked call, whose results are
    bitwise the single calls', and come back in row order."""
    hs = _generated_rows(x, algebra)
    out = [None] * len(hs)
    for m in {h.shape[0] for h in hs}:
        rows = [r for r, h in enumerate(hs) if h.shape[0] == m]
        for r, value in zip(rows, lapack(np.array([hs[r] for r in rows]))):
            out[r] = value
    return out


def _invertible_rows(x: np.ndarray, algebra) -> list[bool]:
    """``is_invertible`` of each row of the stack x, in one pass."""
    return [bool(_clears(s)) for s in _per_compression(
        x, algebra, lambda h: np.linalg.svd(h, compute_uv=False))]


def _spectra(x: np.ndarray, algebra) -> list[SpectrumSet]:
    """``jordan_spectrum`` of each row of the stack x, in one pass: the
    eigenvalues of each size group are clustered in one ``_clustered`` call."""
    return _per_compression(x, algebra,
                            lambda h: _clustered(np.linalg.eigvals(h)))


@_chunked
def _solve_checked(ops: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ops[k] x_k = rhs[k] for a stack of square operators.

    Refuses the stack when any operator fails ``_clears``, naming the first
    such operator's smallest singular value. kappa_2 <= |A|_F |A^-1|_F, so an
    operator whose bound is below 0.1 / ``DEFAULT_COND_TOL`` cannot be
    refused. Only the others (non-finite ones, or all of a chunk when ``inv``
    meets an exactly singular one) have their singular values taken. A
    non-finite operator's are NaN, without an SVD, which raises on NaN
    entries, and it is refused. Each operator is its own LU, inverse and
    SVD, so the chunks (``algebra._chunked``) change nothing.
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
        doubted = ops[doubt]
        finite = np.isfinite(doubted).all(axis=(1, 2))
        s = np.full(doubted.shape[:2], np.nan)
        s[finite] = np.linalg.svd(doubted[finite], compute_uv=False)
        singular = ~_clears(s)
        if singular.any():
            smin = s[singular.argmax(), -1]
            raise NotInvertible(
                f"operator is numerically singular (smallest singular value "
                f"{smin:.3e})",
                smallest_singular_value=float(smin),
            )
    return np.linalg.solve(ops, rhs[:, :, None])[:, :, 0]


def _inverse(x: np.ndarray, algebra) -> np.ndarray:
    """The row x^{-1} = Q y in C[x], where H y = |1| e_1 = Q^H 1."""
    q, h = _generated(x, algebra)
    rhs = _norms(algebra.unit) * np.eye(h.shape[0])[:1]
    return q @ _solve_checked(h[None], rhs)[0]


def inverse(a: Element) -> Element:
    """Jordan inverse a^{-1} in C[a] (``_inverse``)."""
    return Element(a.algebra, _inverse(a.coeffs, a.algebra))


def jordan_spectrum(a: Element) -> SpectrumSet:
    """Spectrum of a: the eigenvalues of L_a compressed to C[a], clustered."""
    return _spectrum(_generated(a.coeffs, a.algebra)[1])


def _spectrum(h: np.ndarray) -> SpectrumSet:
    """The clustered eigenvalues of one H (``_clustered``)."""
    return _clustered(np.linalg.eigvals(h)[None])[0]


def _clustered(eigenvalues: np.ndarray) -> list[SpectrumSet]:
    """The eigenvalues of each row of an (n, m) stack, merged into clusters,
    as one SpectrumSet a row.

    In each row, eigenvalues within ``dedupe_tol`` = 1e-6 (1 + max
    |eigenvalue|) are linked, and each single-linkage cluster is reported as
    its mean. The stack is sorted and linked at once, and each run of rows
    with k clusters (``_runs``) sums them in one stacked k x m by m
    product, the product of each row's one-row call, so a row's bits do not
    depend on the other rows. A stack without links, the common case, is
    one run whose clusters are its linkage, the identity, as they are after
    the closure: it skips the closure and the gather.
    A non-finite eigenvalue, or a modulus past the double range, is
    refused; a row whose cluster sums pass the range is averaged again
    (``_scaled_means``).
    """
    raw = np.sort(eigenvalues, axis=-1)
    spectra = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        tols = [1e-6 * (1.0 + top)
                for top in np.abs(raw).max(axis=-1).tolist()]
        if not all(map(math.isfinite, tols)):
            raise JordanNumError(
                "the spectrum is beyond the double-precision range")
        linked = np.abs(raw[:, :, None] - raw[:, None, :]) \
            <= np.array(tols)[:, None, None]
        runs = ([(0, linked)] if np.count_nonzero(linked) == raw.size
                else _runs(linked))
        for a, clusters in runs:
            means = (clusters @ raw[a:a + len(clusters), :, None])[..., 0] \
                / clusters.sum(axis=-1)
            for r, points in enumerate(means.tolist(), start=a):
                if not all(map(cmath.isfinite, points)):  # a sum overflowed
                    points = _scaled_means(clusters[r - a], raw[r]).tolist()
                radius = max(map(abs, points))
                spectra.append(SpectrumSet(points=tuple(points),
                                           dedupe_tol=tols[r],
                                           spectral_radius=radius))
    return spectra


def _runs(linked: np.ndarray):
    """(a, clusters) for each run of rows a, a + 1, ... of a stack of
    linkages that have the same number k of clusters: clusters is the
    run's (rows, k, m) stack of each cluster's members, in order of their
    first members."""
    m = linked.shape[-1]
    for _ in range(m.bit_length()):  # closure: row i is i's cluster
        linked = linked @ linked
    heads = linked.argmax(axis=-1) == np.arange(m)  # first members
    flat = linked[heads]  # every row's clusters, row by row
    a = start = 0
    for k, run in groupby(sum(row) for row in heads.tolist()):
        rows = len(list(run))
        yield a, flat[start:start + rows * k].reshape(rows, k, m)
        a, start = a + rows, start + rows * k


def _scaled_means(clusters: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """The means of the clusters of one row, summed from raw 2^-b, 2^b > m,
    and scaled back: the eigenvalues are finite, so the means are, where the
    sums of raw itself pass the double range."""
    b = raw.size.bit_length()
    return _ldexp(clusters @ _ldexp(raw, -b) / clusters.sum(axis=-1), b)


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

