"""Finite-dimensional complex Jordan algebras given by structure constants.

An algebra is a structure tensor c with (e_i o e_j) = sum_k c[i,j,k] e_k,
a unit vector, and a descriptor label. The tensor is kept as its nonzero
entries, which at ``matrix:n`` are 2n^3 - n of the n^6: the product and the
operator L_x are gathers over the entries followed by one segment sum per
output (``np.add.reduceat``), and no step builds or scans the dense d^3
tensor unless a caller hands one in or asks for ``.structure``. Elements
are coefficient vectors against the basis; every family (matrix, spin
factor, function algebra, direct sums) goes through the same generic
product path. The ``family:n`` format is known only here: ``_FAMILIES``
builds each family, and ``_family_size`` checks entries, not just labels.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Sequence

import numpy as np

from .errors import (AlgebraMismatch, ExpOverflow, JordanNumError,
                     ParseError, StructureError, UnsupportedAlgebra)

_JORDAN_ID_TOL = 1e-12
_UNIT_TOL = 1e-12
# Arnoldi in _generated stops once h_{j+1,j} <= this times ||L_x||_F
_KRYLOV_TOL = 1e-12
# ||L_x||_F outside this range could over- or underflow the squared norms
_ARNOLDI_RANGE = (1e-100, 1e100)
# a plain norm below this sums subnormal squares (``_norms``)
_NORM_FLOOR = 1.5e-154
# rows * w^2 of one chunk of a ``_chunked`` kernel's stacks (w = d or m)
_STACK_ENTRIES = 1 << 16


class AlgebraSpec:
    """A complex Jordan algebra of dimension ``dim`` with explicit basis.

    ``structure`` is the dense tensor c[i, j, k], symmetric in (i, j). It is
    read once: the algebra keeps its nonzero entries, and ``.structure``
    rebuilds the dense tensor on demand.
    """

    def __init__(self, dim: int, structure, unit, label: str):
        c = np.asarray(structure, dtype=complex)
        if dim >= 1 and c.shape != (dim, dim, dim):
            raise StructureError(f"structure tensor must be {dim}x{dim}x{dim}")
        flat = np.flatnonzero(c)
        self._setup(dim, flat, c.reshape(-1)[flat], unit, label)

    def _setup(self, dim, flat, values, unit, label):
        """Check and store the entries ``values`` at the ascending flat
        indices (i d + j) d + k, then build the two kernels' index arrays.

        L_x (``_mult_matrix``): every entry, sorted by (k, j, i), with the
        flat position j d + k of each (k, j) segment in L^T. Product
        (``_product``): of those, the pairs i <= j, with weight c[i, j, k],
        and c[i, i, k] / 2 on the diagonal, since the kernel adds the pair
        in both orders; each output k starts a segment. The unit check makes
        sure that every k has an entry, so no segment is empty.
        """
        d = dim
        if d < 1:
            raise StructureError("algebra dimension must be positive")
        u = np.array(unit, dtype=complex, ndmin=1)
        for name, v in (("structure tensor", values), ("unit vector", u)):
            if not np.isfinite(v).all():
                raise StructureError(f"{name} must be finite")
        if u.shape != (d,):
            raise StructureError(f"unit vector must have length {d}")
        i, j, k = np.unravel_index(flat, (d, d, d))
        mirror = (j * d + i) * d + k
        order = np.argsort(mirror)
        if not ((mirror[order] == flat).all()
                and (values[order] == values).all()):
            raise StructureError("structure tensor is not symmetric in (i, j)")
        for a in (flat, values, u):
            a.setflags(write=False)
        by_kj = np.lexsort((i, j, k))
        li, lj, lk, lv = i[by_kj], j[by_kj], k[by_kj], values[by_kj]
        starts = _segment_starts(lk * d + lj)
        upper = li <= lj
        # frozen like Element: attributes are set here only
        self.__dict__.update(
            dim=d, unit=u, label=label, _flat=flat, _values=values,
            _lx=(li, lv, starts, lj[starts] * d + lk[starts]),
            _pairs=(li[upper], lj[upper],
                    np.where(li == lj, 0.5, 1.0)[upper] * lv[upper],
                    np.searchsorted(lk[upper], np.arange(d))))

        # L_unit must be the identity operator.
        l_unit = _mult_matrix(u, self)
        if np.max(np.abs(l_unit - np.eye(d))) > _UNIT_TOL:
            raise StructureError("unit vector does not act as the identity")
        self._check_jordan_identity()

    def _check_jordan_identity(self):
        """Check the linearised Jordan identity on two random triples.

        [L_a, L_{b o c}] + [L_b, L_{c o a}] + [L_c, L_{a o b}] = 0 is the
        identity [L_a, L_{a^2}] = 0 polarised (a = b = c gives back three
        times it), so it holds for all triples iff the algebra is Jordan, and
        a nonzero polynomial identity is nonzero at generic points. Each
        triple's sum is applied to a random vector v through products only,
        a o ((b o c) o v) - (b o c) o (a o v), and the residual is taken
        relative to max |v| and the product of the max-abs entries of L_a,
        L_b and L_c, so rescaling the structure does not change it. Each
        product and each of the three is scaled by 2^-e, e the exponent of
        the largest stored modulus: exactly, so the cubes of the scale stay
        in range beyond 1e+-100 and the ratio is bitwise as it was.
        """
        d = self.dim
        rng = np.random.default_rng(0)
        t, v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in ((2, 3, d), (2, 1, d)))
        e = -int(np.frexp(np.abs(self._values).max())[1])

        def mul(a, b):
            return _ldexp(_product(a, b, self), e)

        bc = mul(t[:, [1, 2, 0]], t[:, [2, 0, 1]])
        # [a o ((b o c) o v), (b o c) o (a o v)] as one stacked product
        pair = np.stack([t, bc])
        outer = mul(pair, mul(pair[::-1], v))
        resid = (outer[0] - outer[1]).sum(axis=1)
        # the max-abs entries among _mult_matrix's sums, before the d x d fill
        i, values, starts, _ = self._lx
        scale = np.ldexp(np.abs(np.add.reduceat(
            t.take(i, axis=-1) * values, starts, axis=-1)).max(axis=-1),
            e).prod(axis=1)
        rel = np.max(np.abs(resid).max(axis=1)
                     / (scale * np.abs(v).max(axis=(1, 2))))
        if rel > _JORDAN_ID_TOL:
            raise StructureError(
                f"Jordan identity fails (relative residual {rel:.3e})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to AlgebraSpec.{name}")

    @property
    def structure(self) -> np.ndarray:
        """The dense d x d x d tensor, built from the entries at each call."""
        d = self.dim
        c = np.zeros(d ** 3, dtype=complex)
        c[self._flat] = self._values
        c.setflags(write=False)
        return c.reshape(d, d, d)

    def element(self, coeffs) -> "Element":
        return Element(self, coeffs)

    def one(self) -> "Element":
        return Element(self, self.unit)

    def zero(self) -> "Element":
        return Element(self, np.zeros(self.dim, dtype=complex))

    def basis_element(self, i: int) -> "Element":
        coeffs = np.zeros(self.dim, dtype=complex)
        coeffs[i] = 1.0
        return Element(self, coeffs)

    def __eq__(self, other):
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.label == other.label
            and np.array_equal(self._flat, other._flat)
            and np.array_equal(self._values, other._values)
            and np.array_equal(self.unit, other.unit)
        )

    def __hash__(self):
        return hash((self.dim, self.label))

    def __repr__(self):
        return (f"AlgebraSpec({self.label!r}, dim={self.dim}, "
                f"entries={self._values.size})")


class _Valued:
    """Value equality of a frozen (algebra, array) pair, as ``AlgebraSpec``
    has: equal when the algebras are the same (``_same_algebra``'s rule)
    and the arrays hold equal values. The hash agrees with it, so -0.0 and
    0.0 hash alike; the classes are dataclasses with ``eq=False``."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        try:
            _same_algebra(self, other)
        except AlgebraMismatch:
            return False
        return np.array_equal(self._array, other._array)

    def __hash__(self):
        return hash((self.algebra, (self._array + 0j).tobytes()))


@dataclass(frozen=True, eq=False)
class Element(_Valued):
    """A coefficient vector over the algebra's basis."""

    algebra: AlgebraSpec
    coeffs: np.ndarray
    _array = property(lambda self: self.coeffs)

    def __post_init__(self):
        v = np.array(self.coeffs, dtype=complex, ndmin=1)
        if v.shape != (self.algebra.dim,):
            raise StructureError(
                f"coefficient vector must have length {self.algebra.dim}"
            )
        _finite(v)
        v.setflags(write=False)
        object.__setattr__(self, "coeffs", v)

    @property
    def norm(self) -> float:
        return _norms(self.coeffs)

    def __add__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return _wrap(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return _wrap(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self) -> "Element":
        return _wrap(self.algebra, -self.coeffs)

    def __mul__(self, scalar) -> "Element":
        return _wrap(self.algebra, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Element":
        return _wrap(self.algebra, self.coeffs / complex(scalar))


@dataclass(frozen=True, eq=False)
class OperatorMatrix(_Valued):
    """A d x d complex matrix representing a linear map on the algebra."""

    algebra: AlgebraSpec
    entries: np.ndarray
    _array = property(lambda self: self.entries)

    def __post_init__(self):
        # a C-ordered copy: ``_mult_matrix`` hands L_x over transposed
        m = np.array(self.entries, dtype=complex, order="C")
        d = self.algebra.dim
        if m.shape != (d, d):
            raise StructureError(f"operator matrix must be {d}x{d}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def apply(self, x: Element) -> Element:
        _same_algebra(self, x)
        return Element(self.algebra, self.entries @ x.coeffs)


def _finite(stack: np.ndarray) -> np.ndarray:
    """The stack; ``Element``'s error if any entry is not finite."""
    if np.count_nonzero(np.isfinite(stack)) < stack.size:
        raise StructureError("coefficients must be finite")
    return stack


def _wrap(algebra: AlgebraSpec, row: np.ndarray,
          checked: bool = False) -> Element:
    """The Element over a coefficient row that the library has just made,
    bound as it is, without ``Element``'s shape check and copy: the row is
    checked finite (``_finite``, Element's error) and made read-only, unless
    the caller has ``checked`` it so already (``_rows``). Arrays from a
    caller go through ``Element``, whose copy keeps them from changing."""
    if not checked:
        _finite(row).setflags(write=False)
    x = object.__new__(Element)
    fields = x.__dict__  # set item by item: a call's kwargs dict costs more
    fields["algebra"], fields["coeffs"] = algebra, row
    return x


def _rows(algebra: AlgebraSpec, stack: np.ndarray) -> list[Element]:
    """Elements over the rows of a stack that a kernel made: one finiteness
    check for the whole stack, which is made read-only, so its rows, views
    of it, are too; then each row is bound by ``_wrap``."""
    _finite(stack).setflags(write=False)
    return [_wrap(algebra, row, checked=True) for row in stack]


@np.errstate(over="ignore")  # half the cost of a with block per call
def _norms(v: np.ndarray):
    """The Euclidean norm of a complex row (a float) or of each row of a
    stack, summed as ``np.linalg.norm`` sums it and so bitwise its result,
    except where that plain sum of squares overflows (norms above about
    1.3e154) or is subnormal (below about 1.5e-154): there the row is
    scaled by 2^-e, e the exponent of its largest modulus, exactly. A row
    takes two dots, as cheap as ``np.linalg.norm``; a stack two
    ``vecdot``s, each row bitwise its one-row call."""
    re, im = v.real, v.imag
    if v.ndim == 1:
        norm = math.sqrt(re.dot(re) + im.dot(im))
        if _NORM_FLOOR <= norm < math.inf:
            return norm
        return float(_norms(v[None])[0])
    norms = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    inside = (_NORM_FLOOR <= norms) & (norms < math.inf)
    if np.count_nonzero(inside) < inside.size:
        out = ~inside  # frexp gives e = 0 for a zero, inf or NaN top
        e = np.frexp(np.abs(v[out]).max(axis=-1))[1]
        re, im = (np.ldexp(part[out], -e[..., None]) for part in (re, im))
        norms[out] = np.ldexp(np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)),
                              e)
    return norms


def _same_algebra(a, *others):
    """The one same-algebra check: ``AlgebraMismatch`` unless each of
    ``others`` (Elements or operators, like a) has a's algebra or an equal."""
    for b in others:
        if b.algebra is not a.algebra and b.algebra != a.algebra:
            raise AlgebraMismatch("elements belong to different algebras")


def jordan_mul(a: Element, b: Element) -> Element:
    """Jordan product a o b through the stored structure entries.

    a o b and b o a are the bitwise-identical computation (``_product``).
    """
    _same_algebra(a, b)
    return _wrap(a.algebra, _product(a.coeffs, b.coeffs, a.algebra))


def _segment_starts(key: np.ndarray) -> np.ndarray:
    """The first position of each run of equal values in the sorted ``key``."""
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return np.flatnonzero(first)


def _product(a: np.ndarray, b: np.ndarray, algebra: AlgebraSpec) -> np.ndarray:
    """The coefficients of a o b, without building or checking Elements.

    a and b may carry leading batch axes, one product per row. Over the
    stored pairs i <= j, sorted by output k, it forms
    a_i b_j + b_i a_j, weights it, and sums each k's segment. Both
    products keep their operands in index order, so swapping a and b only
    swaps the two addends and a o b is bitwise b o a; every row of a stack
    takes the same elementwise operations as that pair alone, so it is
    bitwise the single product.
    """
    i, j, weight, starts = algebra._pairs
    # take keeps the gathers C-contiguous, and the in-place steps spare two
    # temporaries: on a 65-row stack at matrix:12 that is 3x faster than
    # fancy indexing and fresh arrays
    terms = a.take(i, axis=-1) * b.take(j, axis=-1)
    terms += b.take(i, axis=-1) * a.take(j, axis=-1)
    terms *= weight
    return np.add.reduceat(terms, starts, axis=-1)


def _mult_matrix(x: np.ndarray, algebra: AlgebraSpec) -> np.ndarray:
    """The matrix of L_x : y -> x o y, L[k, j] = sum_i x_i c[i, j, k].

    Gathers x_i c[i, j, k] over the stored entries sorted by (k, j), sums
    each (k, j) segment and writes the sums into a zero matrix; x may carry
    leading batch axes, giving one matrix per row.
    """
    i, values, starts, pos = algebra._lx
    d = algebra.dim
    lx = np.zeros((*x.shape[:-1], d * d), dtype=complex)
    lx[..., pos] = np.add.reduceat(x.take(i, axis=-1) * values, starts,
                                   axis=-1)
    # filled as L^T and returned transposed: the column-major layout makes
    # BLAS sum L_x v in the same order as for the dense contraction
    return lx.reshape(*x.shape[:-1], d, d).swapaxes(-1, -2)


def _krylov_scale(lx: np.ndarray):
    """(lx, e, tol) for each matrix of lx: Arnoldi's operator, its exponent e
    and its stop tolerance ``_KRYLOV_TOL`` ||lx||_F. A matrix whose norm is
    outside ``_ARNOLDI_RANGE`` is scaled to 2^-e L_x, e the exponent of its
    largest entry, so its entries lie below 1 in modulus; the others keep
    e = 0, and e is None when no matrix is scaled. Each norm is one dot
    product over the real and imaginary parts of its matrix's entries, so a
    stack's rows are bitwise the single matrices'.
    """
    def norm(lx):  # the parts in memory order of a ``_mult_matrix`` output
        flat = lx.swapaxes(-1, -2).reshape(lx.shape[:-2] + (-1,)).view(float)
        return np.sqrt(np.vecdot(flat, flat))

    with np.errstate(over="ignore"):
        fro = norm(lx)
    inside = (_ARNOLDI_RANGE[0] <= fro) & (fro <= _ARNOLDI_RANGE[1])
    if inside.all():
        return lx, None, _KRYLOV_TOL * fro
    # frexp(0) gives e = 0; e >= -1022 keeps 2^-e finite
    top = np.frexp(np.abs(lx).max(axis=(-2, -1)))[1]
    e = np.where(inside, 0, np.maximum(top, -1022))
    lx = lx * np.ldexp(1.0, -e)[..., None, None]
    return lx, e, _KRYLOV_TOL * norm(lx)


def _ldexp(z: np.ndarray, e) -> np.ndarray:
    """z 2^e, z complex, as ldexp of its real and imaginary parts: exact down
    to subnormals, and an entry whose scaled value is finite stays finite
    where 2^e itself is not (e = 1024)."""
    return np.ldexp(z.view(float), e).view(complex)


def _generated(x: np.ndarray, algebra: AlgebraSpec) -> tuple:
    """Orthonormal Q (d x m) spanning C[x] = span{1, x, x^2, ...}, and H.

    Arnoldi on L_x, x a coefficient row, from the normalised unit, with
    classical Gram-Schmidt twice per step, stopping once h_{j+1,j} <=
    ``_KRYLOV_TOL`` ||L_x||_F: then L_x Q = Q H, H is upper Hessenberg and m,
    at most d, is the degree of x's minimal polynomial. Outside
    ``_ARNOLDI_RANGE`` it runs on 2^-e L_x, with entries below 1 in modulus,
    and scales H back: exactly, as e is an int (``_krylov_scale``).
    ``_generated_rows`` runs this loop over a stack, row for row bitwise. A
    single element keeps the 2-D loop: the stacked one's 3-D matvecs and
    live-row bookkeeping made a one-row stack about twice as slow a call
    (d = 3 to 144), and the calculus and the dense families make single calls.
    """
    lx, e, tol = _krylov_scale(_mult_matrix(x, algebra))
    d = algebra.dim
    q = np.zeros((d, d), dtype=complex)  # basis vectors as rows
    h = np.zeros((d, d), dtype=complex)
    q[0] = algebra.unit / _norms(algebra.unit)
    for j in range(d):
        w = lx @ q[j]
        for _ in range(2):
            c = q[:j + 1].conj() @ w
            w = w - c @ q[:j + 1]
            h[:j + 1, j] += c
        beta = np.sqrt(np.vdot(w, w).real)
        if j + 1 == d or beta <= tol:
            break
        h[j + 1, j] = beta
        q[j + 1] = w / beta
    return q[:j + 1].T, _scaled_back(h[:j + 1, :j + 1], e)


def _chunked(kernel):
    """``kernel(*args)`` in chunks of at most ``_STACK_ENTRIES`` / w^2 rows,
    w the first array's last axis: d for a kernel's L_x stacks, m for a
    stack of m x m systems. Arrays are cut, the algebra passed whole, and
    the chunks' arrays, or lists, are joined; a 1-D row runs as it is. Each
    row is bitwise its single call."""
    @wraps(kernel)
    def chunked(*args):
        rows = args[0]
        if rows.ndim < 2 or len(rows) * rows.shape[-1] ** 2 <= _STACK_ENTRIES:
            return kernel(*args)
        step = max(1, _STACK_ENTRIES // rows.shape[-1] ** 2)
        parts = [kernel(*(s[lo:lo + step] if isinstance(s, np.ndarray) else s
                          for s in args))
                 for lo in range(0, len(rows), step)]
        if isinstance(parts[0], list):
            return [row for part in parts for row in part]
        return np.concatenate(parts)
    return chunked


@_chunked
def _generated_rows(x: np.ndarray, algebra: AlgebraSpec) -> list:
    """The H of ``_generated`` for each row of the stack x, each bitwise
    ``_generated``'s, copied out of the stack's d x d arrays.

    Each row has its own tolerance and exponent (``_krylov_scale``), and
    each step runs the same products, as ``np.matvec`` over the rows still
    running. A row stops (m = j + 1) at the step where h_{j+1,j} falls to
    its tolerance. Until a row stops before the others, the steps work on
    views: a copy of the L_x stack per step would cost more than its matvec
    at d >= 64. One row (a whole chunk from d = 182 up) runs ``_generated``,
    whose 2-D loop is about twice as fast.
    """
    if len(x) == 1:
        return [_generated(x[0], algebra)[1].copy()]
    lx, e, tol = _krylov_scale(_mult_matrix(x, algebra))
    rows, d = x.shape
    q = np.zeros((rows, d, d), dtype=complex)  # basis vectors as rows
    h = np.zeros((rows, d, d), dtype=complex)
    m = np.zeros(rows, dtype=int)
    q[:, 0] = algebra.unit / _norms(algebra.unit)
    live = slice(None)  # the rows still running: all, or their indices
    for j in range(d):
        w = np.matvec(lx[live], q[live, j])
        basis = q[live, :j + 1]
        for _ in range(2):
            c = np.matvec(basis.conj(), w)
            w = w - np.matvec(basis.swapaxes(-1, -2), c)
            h[live, :j + 1, j] += c
        beta = np.sqrt(np.vecdot(w, w).real)
        stop = beta <= tol[live]
        if j + 1 == d or stop.all():
            m[live] = j + 1
            break
        if stop.any():
            live = np.arange(rows)[live]
            m[live[stop]] = j + 1
            live, w, beta = live[~stop], w[~stop], beta[~stop]
        h[live, j + 1, j] = beta
        q[live, j + 1] = w / beta[:, None]
    h = _scaled_back(h, None if e is None else e[:, None, None])
    return [h[r, :k, :k].copy() for r, k in enumerate(m.tolist())]


def _scaled_back(h: np.ndarray, e) -> np.ndarray:
    """H of 2^-e L_x scaled back to L_x's, exactly. An H with an entry past
    the double range is refused: the spectrum, the invertibility and the
    inverse of x all read their answer from H. An unscaled H is finite."""
    if e is None:
        return h
    with np.errstate(over="ignore"):  # an entry past the range: refused
        h = _ldexp(h, e)
    if not np.isfinite(h).all():
        raise JordanNumError(
            "the compression of L_x to C[x] is beyond the double-precision "
            "range")
    return h


def mult_operator(a: Element) -> OperatorMatrix:
    """Matrix of the multiplication map L_a : b -> a o b."""
    m = _mult_matrix(a.coeffs, a.algebra)
    return OperatorMatrix(a.algebra, m)


def _U_matrix(a: np.ndarray, algebra: AlgebraSpec) -> np.ndarray:
    """U_a = 2 L_a^2 - L_{a^2}, one matrix per row of a."""
    la = _mult_matrix(a, algebra)
    return 2.0 * (la @ la) - _mult_matrix(_product(a, a, algebra), algebra)


def U_operator(a: Element) -> OperatorMatrix:
    """Quadratic representation U_a = 2 L_a^2 - L_{a^2}."""
    return OperatorMatrix(a.algebra, _U_matrix(a.coeffs, a.algebra))


def U_pair_operator(a: Element, c: Element) -> OperatorMatrix:
    """Polarized quadratic map U_{a,c} = L_a L_c + L_c L_a - L_{a o c}."""
    _same_algebra(a, c)
    algebra = a.algebra
    la, lc, lac = _mult_matrix(np.array(
        [a.coeffs, c.coeffs, _product(a.coeffs, c.coeffs, algebra)]), algebra)
    return OperatorMatrix(algebra, la @ lc + lc @ la - lac)


@_chunked
def _U_apply(a: np.ndarray, y: np.ndarray, algebra) -> np.ndarray:
    """U_a(y) for each row of the stacks a and y, applied by ``np.matvec``:
    each row is bitwise ``U_operator(a).apply(y)``."""
    return np.matvec(_U_matrix(a, algebra), y)


def _power(mul, base: np.ndarray, n: Sequence[int]) -> np.ndarray:
    """Row r of ``base`` to the power n[r] >= 1, by binary powering under a
    power-associative ``mul`` of stacks of rows; n must be ascending.

    A row's result starts as the power of its lowest set bit, not as a
    unit, and its base is not squared past its highest bit. So every row
    takes the operations of its own powering, while each step runs ``mul``
    once, on the rows that need it: a product on those with the step's bit
    and a lower one set, a squaring on those with a higher bit, a suffix.
    A power that overflows raises ``ExpOverflow``, as exp's squaring does.
    """
    result = np.empty_like(base)
    base = base.copy()
    bit, lo = 1, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            rows = [r for r in range(lo, len(n)) if n[r] & bit]
            first = [r for r in rows if not n[r] & (bit - 1)]
            again = [r for r in rows if n[r] & (bit - 1)]
            result[first] = base[first]
            if again:
                result[again] = mul(result[again], base[again])
            bit <<= 1
            lo = bisect_left(n, bit)
            if lo == len(n):
                break
            base[lo:] = mul(base[lo:], base[lo:])
    if not np.isfinite(result).all():
        raise ExpOverflow(
            f"power overflows double precision (exponent up to {n[-1]})")
    return result


def jordan_power(a: Element, n: int) -> Element:
    """Integer power a^n by binary powering (valid by power associativity);
    one that overflows raises ``ExpOverflow``. Integer types such as numpy's
    pass; a float, even 2.0, is refused."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(
            f"jordan_power requires an integer exponent, got {n!r}") from None
    if n < 0:
        raise ValueError("jordan_power requires a nonnegative exponent")
    if n == 0:
        return a.algebra.one()
    algebra = a.algebra
    return Element(algebra, _power(lambda y, z: _product(y, z, algebra),
                                   a.coeffs[None], (n,))[0])


# ---------------------------------------------------------------------------
# Standard families


def _from_entries(i, j, k, value, unit, label) -> AlgebraSpec:
    """An AlgebraSpec whose tensor is the sum of ``value`` at each (i, j, k).

    Entries at the same position add up, and sums of zero are dropped, so
    the spec equals the one built from the same tensor in dense form.
    """
    d = len(unit)
    flat = (np.asarray(i) * d + j) * d + k
    order = np.argsort(flat, kind="stable")
    first = _segment_starts(flat[order])
    flat = flat[order[first]]
    values = np.add.reduceat(
        np.broadcast_to(np.asarray(value, dtype=complex), order.shape)[order],
        first)
    keep = values != 0
    spec = AlgebraSpec.__new__(AlgebraSpec)
    spec._setup(d, flat[keep], values[keep], unit, label)
    return spec


def make_matrix_jordan(n: int) -> AlgebraSpec:
    """M_n(C) as a Jordan algebra under the symmetrized product.

    Basis: matrix units E_{pq} flattened row-major, so coefficient index
    i = p*n + q. E_pq o E_qr has 1/2 on E_pr, entered in both orders.
    """
    if n < 1:
        raise ValueError("matrix algebra size must be at least 1")
    p, q, r = np.indices((n, n, n)).reshape(3, -1)
    pq, qr, pr = p * n + q, q * n + r, p * n + r
    unit = np.eye(n, dtype=complex).reshape(n * n)
    return _from_entries(np.r_[pq, qr], np.r_[qr, pq], np.r_[pr, pr], 0.5,
                         unit, f"matrix:{n}")


def make_spin_factor(k: int) -> AlgebraSpec:
    """Spin factor C1 + C^k with (alpha,u) o (beta,v) = (ab + <u,v>, av + bu).

    The pairing is the bilinear form sum_i u_i v_i (no conjugation).
    """
    if k < 1:
        raise ValueError("spin factor size must be at least 1")
    j = np.arange(1, k + 1)
    zero = np.zeros_like(j)
    # e0 o e0 = e0, e0 o ej = ej o e0 = ej, ej o ej = e0
    unit = np.zeros(k + 1, dtype=complex)
    unit[0] = 1.0
    return _from_entries(np.r_[0, zero, j, j], np.r_[0, j, zero, j],
                         np.r_[0, j, j, zero], 1.0, unit, f"spin:{k}")


def make_function_algebra(k: int) -> AlgebraSpec:
    """C^k with the pointwise product; unit is the all-ones vector."""
    if k < 1:
        raise ValueError("function algebra size must be at least 1")
    i = np.arange(k)
    return _from_entries(i, i, i, 1.0, np.ones(k, dtype=complex), f"fn:{k}")


def make_direct_sum(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """Block-diagonal direct sum of two algebras."""
    ia = np.unravel_index(a._flat, (a.dim,) * 3)
    ib = [n + a.dim for n in np.unravel_index(b._flat, (b.dim,) * 3)]
    i, j, k = (np.r_[m, n] for m, n in zip(ia, ib))
    return _from_entries(i, j, k, np.r_[a._values, b._values],
                         np.concatenate([a.unit, b.unit]),
                         f"sum:{a.label}+{b.label}")


# ---------------------------------------------------------------------------
# Descriptor grammar: matrix:<n> | spin:<k> | fn:<k> | sum:<desc>+<desc>

_FAMILIES = {"matrix": make_matrix_jordan, "spin": make_spin_factor,
             "fn": make_function_algebra}


def _parse_size(text, offset):
    # isdecimal, not isdigit: int() refuses digits such as "²"
    if not text or not text.isdecimal():
        raise ParseError(f"expected a positive integer, got {text!r}", offset)
    try:
        n = int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"size too big ({len(text)} digits)", offset) from None
    if n < 1:
        raise ParseError(f"size must be positive, got {n}", offset)
    return n


@lru_cache(maxsize=128)
def from_descriptor(descriptor: str) -> AlgebraSpec:
    """Construct the algebra named by a descriptor string."""
    return _parse_descriptor(descriptor, 0)


def _parse_descriptor(descriptor: str, base: int) -> AlgebraSpec:
    kind, colon, rest = descriptor.partition(":")
    if colon and kind in _FAMILIES:
        offset = base + len(kind) + 1
        n = _parse_size(rest, offset)
        try:
            return _FAMILIES[kind](n)
        except ValueError as exc:  # numpy refuses arrays this large
            raise ParseError(f"size too big ({exc})", offset) from None
    if colon and kind == "sum":
        parts = rest.split("+")
        if len(parts) < 2:
            raise ParseError("sum needs at least two summands", base + 4)
        offset = base + 4
        algebras = []
        for part in parts:
            algebras.append(_parse_descriptor(part, offset))
            offset += len(part) + 1
        out = algebras[0]
        for nxt in algebras[1:]:
            out = make_direct_sum(out, nxt)
        return out
    raise ParseError(f"unknown algebra family in {descriptor!r}", base)


def _family_size(algebra: AlgebraSpec, family: str, what: str) -> int:
    """n if ``algebra`` equals ``family:n`` entry by entry, as a relabelled or
    rescaled tensor does not. n <= dim in every family, so no longer size is
    parsed and no larger algebra is built."""
    label = algebra.label
    kind, _, size = label.partition(":")
    if (kind == family and size.isdecimal()
            and len(size) <= len(str(algebra.dim))
            and 0 < int(size) <= algebra.dim
            and algebra == from_descriptor(label)):
        return int(size)
    raise UnsupportedAlgebra(
        f"{what} requires a {family} algebra, got {label!r}")


def _random_rows(algebra: AlgebraSpec, rng: np.random.Generator, n: int,
                 norm_cap: float = 1.0) -> np.ndarray:
    """n rows of standard complex Gaussian coefficients, (re + i im) / sqrt 2,
    each scaled to norm <= norm_cap. The one (n, 2, d) draw reads the stream
    as n draws of a row's re and then its im do, and a row's norm is summed
    as ``np.linalg.norm`` sums it, so row i is bitwise the i-th of n one-row
    calls (``random_element``). The norms and the scalings run row by row:
    a stacked norm and a masked scaling made a one-row call a third slower.
    A draw never leaves the squares' range, so its rows skip ``_norms``,
    which costs about 0.8 us more per row (x86-64, numpy 2.4). A norm_cap
    that is not >= 0 (negative, NaN) raises ``ValueError``.
    """
    if not norm_cap >= 0:
        raise ValueError(f"norm_cap must be >= 0, got {norm_cap!r}")
    g = rng.standard_normal((n, 2, algebra.dim))
    z = 1j * g[:, 1]
    z += g[:, 0]
    z /= math.sqrt(2.0)
    for row in z:
        re, im = row.real, row.imag
        nrm = math.sqrt(re.dot(re) + im.dot(im))
        if nrm > norm_cap:
            row *= norm_cap / nrm
    return z


def random_element(algebra: AlgebraSpec, rng: np.random.Generator,
                   norm_cap: float = 1.0) -> Element:
    """Standard complex Gaussian coefficients scaled to norm <= norm_cap:
    a one-row ``_random_rows``."""
    return _rows(algebra, _random_rows(algebra, rng, 1, norm_cap))[0]
