"""Covariance under a change of basis: a test-side oracle for the kernels.

Every standard family has entries 0, 1/2 and 1 in its own basis. With the
new basis vectors the columns of an invertible P, the structure tensor
becomes c'[i,j,k] = sum P[a,i] P[b,j] c[a,b,l] Pinv[k,l] and the unit
Pinv u, and an element x becomes Pinv x. exp and the spectrum must follow.
"""

import numpy as np
import pytest

from jordannum import (AlgebraSpec, FunctionalHandle, affine_resolvent_check,
                       exp, from_descriptor, jordan_spectrum, random_element)

FAMILIES = ["matrix:2", "matrix:3", "spin:3", "fn:4", "sum:fn:2+matrix:2"]
CAPS = (0.1, 1.0, 2.0)


def _change_of_basis(d, seed):
    """A complex d x d matrix P = 1 + E with ||E||_2 = 0.4: cond(P) < 2.4."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    p = np.eye(d) + 0.4 * e / np.linalg.norm(e, 2)
    assert np.linalg.cond(p) < 3
    return p, np.linalg.inv(p)


def _rebased(algebra, p, pinv):
    c = np.einsum("ai,bj,abl,kl->ijk", p, p, algebra.structure, pinv)
    return AlgebraSpec(algebra.dim, 0.5 * (c + c.transpose(1, 0, 2)),
                       pinv @ algebra.unit, algebra.label + "@P")


def algebra(desc):
    """``from_descriptor(desc)``; for ``"<desc>@P"``, that family in the
    basis of the seed-311 P, a user-supplied tensor with complex weights."""
    if not desc.endswith("@P"):
        return from_descriptor(desc)
    a = from_descriptor(desc[:-2])
    return _rebased(a, *_change_of_basis(a.dim, 311))


def _hausdorff(s, t):
    return max(max(min(abs(a - b) for b in t) for a in s),
               max(min(abs(a - b) for a in s) for b in t))


@pytest.mark.parametrize("desc", FAMILIES)
def test_exp_and_spectrum_are_covariant(desc):
    a = from_descriptor(desc)
    p, pinv = _change_of_basis(a.dim, 311)
    b = _rebased(a, p, pinv)
    rng = np.random.default_rng(313)
    for cap in CAPS:
        for _ in range(4):
            x = random_element(a, rng, norm_cap=cap)
            y = b.element(pinv @ x.coeffs)
            want = pinv @ exp(x).coeffs
            assert np.linalg.norm(exp(y).coeffs - want) <= \
                1e-13 * np.linalg.norm(want)
            sx, sy = jordan_spectrum(x), jordan_spectrum(y)
            assert len(sy.points) == len(sx.points)
            assert _hausdorff(sx.points, sy.points) <= \
                1e-12 * (1.0 + sx.spectral_radius)


def test_enclosed_point_checked_in_changed_basis():
    # the fn:3 centroid case, with psi the old basis's coordinate 1
    a = from_descriptor("fn:3")
    p, pinv = _change_of_basis(3, 317)
    b = _rebased(a, p, pinv)
    x = b.element(pinv @ np.array([1.0, -0.5 + 0.8j, -0.5 - 0.8j]))
    f = FunctionalHandle(lambda e: complex((p @ e.coeffs)[1]))
    residual, skipped = affine_resolvent_check(
        f, -0.5 + 0.8j, x, [0.0, 0.1 + 0.1j, 5.0, 1.0])
    assert skipped == [1.0]
    assert residual <= 1e-9
