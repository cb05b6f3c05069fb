import cmath

import numpy as np
import pytest

from jordannum import (
    AlgebraSpec,
    Element,
    U_operator,
    from_descriptor,
    in_unbounded_component,
    inverse,
    is_invertible,
    jordan_mul,
    jordan_spectrum,
    log,
    make_direct_sum,
    make_function_algebra,
    make_matrix_jordan,
    make_spin_factor,
    random_element,
    resolvent,
)
from jordannum.algebra import _generated
from jordannum.calculus import Contour, holomorphic_calculus
from jordannum.errors import JordanNumError, NotInvertible, OnSpectrum
from jordannum.spectral import (SpectrumSet, _clustered, _invertible_rows,
                                _spectra)

FAMILIES = ["matrix:2", "matrix:3", "spin:4", "fn:5", "sum:fn:2+matrix:2"]


def spin_nilpotent(algebra, rng):
    """alpha + u with u.u = 0: u = r (p + i q) for orthonormal real p, q."""
    q, _ = np.linalg.qr(rng.standard_normal((algebra.dim - 1, 2)))
    u = (q[:, 0] + 1j * q[:, 1]) * rng.uniform(0.2, 0.7)
    alpha = rng.uniform(0.5, 1.0) * cmath.exp(2j * np.pi * rng.random())
    return algebra.element(np.concatenate([[alpha], u]))


def jordan_block(n, eigenvalue):
    """eigenvalue*I + N on matrix:n, N the nilpotent shift."""
    m = eigenvalue * np.eye(n) + np.eye(n, k=1)
    return make_matrix_jordan(n).element(m.reshape(n * n))


# elements whose spectrum is one point of higher multiplicity
DEFECTIVE = {
    "block:3": lambda: jordan_block(3, 1.0),
    "block:4": lambda: jordan_block(4, 2.0),
    # [[1, 2], [0, 1]], also run through the CLI in test_cli.py
    "block:2": lambda: make_matrix_jordan(2).element([1, 2, 0, 1]),
    "spin_nilpotent": lambda: spin_nilpotent(make_spin_factor(4),
                                             np.random.default_rng(0)),
}


def spectrum_bytes(s):
    """A SpectrumSet's exact bits: each point's real and imaginary parts,
    with the sign of zero, its dedupe_tol and its radius."""
    return (np.array(s.points, dtype=complex).tobytes(),
            np.array([s.dedupe_tol, s.spectral_radius]).tobytes())


def reference_clustered(eigenvalues):
    """The clustering rule one row at a time: sort, link within 1e-6 (1 +
    max |eigenvalue|), close the links by repeated squaring, and report each
    cluster's mean from one k x m product with the sorted eigenvalues."""
    raw = np.sort(eigenvalues)
    tol = 1e-6 * (1.0 + float(np.max(np.abs(raw))))
    linked = np.abs(raw[:, None] - raw[None, :]) <= tol
    for _ in range(raw.size.bit_length()):
        linked = linked @ linked
    clusters = linked[linked.argmax(axis=1) == np.arange(raw.size)]
    points = tuple((clusters @ raw / clusters.sum(axis=1)).tolist())
    return SpectrumSet(points=points, dedupe_tol=tol,
                       spectral_radius=max(abs(p) for p in points))


def random_invertible(algebra, rng):
    while True:
        x = random_element(algebra, rng)
        s = np.linalg.svd(_generated(x.coeffs, x.algebra)[1],
                          compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return x


def u_inverse_residual(x, y):
    """Relative residual of (U_x(y))^{-1} = U_x^{-1}(y^{-1})."""
    ux = U_operator(x)
    lhs = inverse(ux.apply(y))
    rhs = Element(x.algebra, np.linalg.solve(ux.entries, inverse(y).coeffs))
    return (lhs - rhs).norm / max(lhs.norm, 1e-300)


def hausdorff(a, b):
    a, b = list(a), list(b)
    d1 = max(min(abs(x - y) for y in b) for x in a)
    d2 = max(min(abs(x - y) for y in a) for x in b)
    return max(d1, d2)


class TestInvertibility:
    def test_unit_invertible(self):
        for desc in FAMILIES:
            assert is_invertible(from_descriptor(desc).one())

    def test_zero_not_invertible(self):
        for desc in FAMILIES:
            assert not is_invertible(from_descriptor(desc).zero())

    def test_fn_zero_coordinate(self):
        f = make_function_algebra(3)
        assert not is_invertible(f.element([1, 0, 2]))

    @pytest.mark.parametrize("desc", FAMILIES)
    def test_singular_exactly_on_the_spectrum(self, desc):
        # p 1 - x is singular at each spectrum point p, and invertible
        # 1e-3 off it: invertibility and the spectrum read the same H
        x = random_element(from_descriptor(desc), np.random.default_rng(71))
        one = x.algebra.one()
        for p in jordan_spectrum(x).points:
            assert not is_invertible(one * p - x)
            assert is_invertible(one * (p + 1e-3) - x)


class TestInverse:
    def test_unit_is_self_inverse(self):
        a = make_spin_factor(3)
        assert (inverse(a.one()) - a.one()).norm < 1e-14

    def test_fn_pointwise_reciprocal(self):
        f = make_function_algebra(2)
        np.testing.assert_allclose(inverse(f.element([2, 4])).coeffs,
                                   [0.5, 0.25])

    def test_spin_closed_form(self):
        # (alpha, u)^{-1} = (alpha, -u) / (alpha^2 - <u,u>)
        s = make_spin_factor(3)
        x = s.element([1.2 + 0.3j, 0.4, -0.1j, 0.25])
        alpha = x.coeffs[0]
        u = x.coeffs[1:]
        denom = alpha ** 2 - np.sum(u * u)
        expected = np.concatenate([[alpha], -u]) / denom
        np.testing.assert_allclose(inverse(x).coeffs, expected, atol=1e-12)

    def test_inverse_contract(self):
        for desc in FAMILIES:
            a = from_descriptor(desc)
            rng = np.random.default_rng(31)
            for _ in range(10):
                x = random_invertible(a, rng)
                ux = U_operator(x).entries
                cond = np.linalg.cond(ux)
                b = inverse(x)
                assert (jordan_mul(x, b) - a.one()).norm <= 1e-8 * cond
                sq = jordan_mul(x, x)
                assert (jordan_mul(sq, b) - x).norm <= \
                    1e-8 * cond * max(x.norm, 1.0)

    @pytest.mark.parametrize("small", [1e-6, 1e-9])
    def test_ill_conditioned_fn(self, small):
        # H is refused only when its own condition number 1 / small is 1e10
        # or more; a rule on U_a = L_a^2 refused 1e6 already. H's entries
        # carry rounding errors of eps, so the inverse errs by up to about
        # eps / small (measured: 5.6e-12 and 4.7e-10)
        x = make_function_algebra(2).element([1.0, small])
        want = np.array([1.0, 1.0 / small])
        assert is_invertible(x)
        assert np.linalg.norm(inverse(x).coeffs - want) <= \
            1e-16 / small * np.linalg.norm(want)

    @staticmethod
    def similar_diagonal(diag):
        """P diag P^-1 on matrix:3 and its inverse, P complex Gaussian."""
        rng = np.random.default_rng(0)
        p = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pinv = np.linalg.inv(p)
        x = make_matrix_jordan(3).element((p @ np.diag(diag) @ pinv).ravel())
        return x, (p @ np.diag(1.0 / np.asarray(diag)) @ pinv).ravel()

    def test_ill_conditioned_matrix(self):
        # condition number about 1.4e7
        x, want = self.similar_diagonal([1.0, 1e-6, 2.0])
        assert np.linalg.norm(inverse(x).coeffs - want) <= \
            1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("delta", [1e-9, 1e-12, 1e-14])
    def test_nearly_repeated_eigenvalue(self, delta):
        # Arnoldi stops once h_{j+1,j} <= 1e-12 |L_x|_F, as the spectrum
        # and the contour do, so eigenvalues 1 and 1 + delta may share one
        # Krylov direction: the inverse then errs at about that level
        x, want = self.similar_diagonal([1.0, 1.0 + delta, 2.0])
        assert np.linalg.norm(inverse(x).coeffs - want) <= \
            1e-11 * np.linalg.norm(want)

    def test_singular_raises_with_diagnostic(self):
        f = make_function_algebra(3)
        with pytest.raises(NotInvertible) as err:
            inverse(f.element([1, 0, 2]))
        assert err.value.smallest_singular_value is not None
        assert err.value.smallest_singular_value < 1e-12

    def test_u_inverse_identity(self):
        for desc in FAMILIES:
            a = from_descriptor(desc)
            rng = np.random.default_rng(37)
            for _ in range(5):
                x = random_invertible(a, rng)
                y = random_invertible(a, rng)
                assert u_inverse_residual(x, y) <= 1e-7


class TestSpectrum:
    def test_spectrum_of_unit(self):
        for desc in FAMILIES:
            spec = jordan_spectrum(from_descriptor(desc).one())
            assert len(spec.points) == 1
            assert abs(spec.points[0] - 1.0) < 1e-8

    def test_fn_pointwise(self):
        f = make_function_algebra(3)
        spec = jordan_spectrum(f.element([1, 2j, -5]))
        assert hausdorff(spec.points, [1, 2j, -5]) < 1e-8

    def test_spin_closed_form(self):
        s = make_spin_factor(2)
        rng = np.random.default_rng(41)
        for _ in range(10):
            x = random_element(s, rng)
            alpha = x.coeffs[0]
            root = cmath.sqrt(np.sum(x.coeffs[1:] * x.coeffs[1:]))
            spec = jordan_spectrum(x)
            assert hausdorff(spec.points, {alpha + root, alpha - root}) < 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_matrix_eigenvalue_oracle(self, n):
        a = from_descriptor(f"matrix:{n}")
        rng = np.random.default_rng(43)
        for _ in range(10):
            x = random_element(a, rng)
            eigs = np.linalg.eigvals(x.coeffs.reshape(n, n))
            spec = jordan_spectrum(x)
            assert hausdorff(spec.points, eigs) < 1e-7

    def test_direct_sum_union(self):
        f = make_function_algebra(2)
        m = make_matrix_jordan(2)
        s = make_direct_sum(f, m)
        rng = np.random.default_rng(47)
        xf = random_element(f, rng)
        xm = random_element(m, rng)
        x = s.element(np.concatenate([xf.coeffs, xm.coeffs]))
        expected = list(jordan_spectrum(xf).points) + \
            list(jordan_spectrum(xm).points)
        spec = jordan_spectrum(x)
        tol = spec.dedupe_tol
        assert all(min(abs(p - q) for q in expected) <= 10 * tol
                   for p in spec.points)
        assert all(min(abs(p - q) for p in spec.points) <= 10 * tol
                   for q in expected)

    def test_shift_scale_covariance(self):
        a = from_descriptor("matrix:3")
        rng = np.random.default_rng(53)
        x = random_element(a, rng)
        alpha, beta = 1.5 - 0.5j, 0.25 + 1.0j
        base = jordan_spectrum(x).points
        shifted = jordan_spectrum(x * alpha + a.one() * beta).points
        assert hausdorff(shifted, [alpha * p + beta for p in base]) < 1e-7

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_rescaled_structure(self, scale):
        # matrix:2 with its structure times s and its unit over s, where
        # diag(2, 3) / s has spectrum {2, 3} and inverse diag(1/2, 1/3) / s.
        # The unit's plain norm (squares below 1e-308) normalised Arnoldi's
        # first vector wrongly: 4 points at 1e160; the identity check refused
        # the other three scales with a RuntimeWarning
        m2 = from_descriptor("matrix:2")
        a = AlgebraSpec(4, m2.structure * scale, m2.unit / scale, "scaled")
        x = a.element(np.array([2.0, 0.0, 0.0, 3.0]) / scale)
        assert hausdorff(jordan_spectrum(x).points, [2.0, 3.0]) < 1e-12
        assert np.allclose(inverse(x).coeffs * scale, [0.5, 0, 0, 1 / 3],
                           rtol=0, atol=1e-15)

    def test_pencil_consistency(self):
        # nothing spurious: U_{x - p 1} is singular at every reported point;
        # off the spectrum it is well conditioned for the random elements (a
        # Jordan block's U_{x - lam 1} is not, near its eigenvalue)
        for name in FAMILIES + list(DEFECTIVE):
            rng = np.random.default_rng(59)
            if name in DEFECTIVE:
                x = DEFECTIVE[name]()
            else:
                x = random_element(from_descriptor(name), rng)
            spec = jordan_spectrum(x)
            one = x.algebra.one()
            for _ in range(20 if name in FAMILIES else 0):
                lam = complex(rng.standard_normal(), rng.standard_normal())
                if spec.distance(lam) < 10 * spec.dedupe_tol:
                    continue
                s = np.linalg.svd(U_operator(x - one * lam).entries,
                                  compute_uv=False)
                assert s[-1] > 1e-8 * s[0], name
            for p in spec.points:
                s = np.linalg.svd(U_operator(x - one * p).entries,
                                  compute_uv=False)
                assert s[-1] < 1e-6 * s[0], name

    def test_dedupe_invariant(self):
        a = from_descriptor("matrix:3")
        rng = np.random.default_rng(61)
        for _ in range(5):
            spec = jordan_spectrum(random_element(a, rng))
            pts = spec.points
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert abs(pts[i] - pts[j]) > spec.dedupe_tol

    @pytest.mark.parametrize("name, eigenvalue", [
        ("block:3", 1.0), ("block:4", 2.0), ("block:2", 1.0)])
    def test_jordan_block_is_one_point(self, name, eigenvalue):
        spec = jordan_spectrum(DEFECTIVE[name]())
        assert len(spec.points) == 1
        assert abs(spec.points[0] - eigenvalue) <= 1e-12

    def test_spin_nilpotents(self):
        a = make_spin_factor(4)
        for seed in range(200):
            x = spin_nilpotent(a, np.random.default_rng(seed))
            alpha = x.coeffs[0]
            spec = jordan_spectrum(x)
            assert len(spec.points) == 1, seed
            assert abs(spec.points[0] - alpha) <= 1e-12 * (1 + abs(alpha))

    def test_eigenvalues_closer_than_the_tolerance_merge(self):
        x = make_matrix_jordan(3).element(np.diag([1, 1 + 1e-9, 2]).ravel())
        spec = jordan_spectrum(x)
        assert hausdorff(spec.points, [1, 2]) <= 1e-9
        assert len(spec.points) == 2


class TestResolvent:
    def test_zero_element(self):
        a = make_spin_factor(2)
        r = resolvent(a.zero(), 2.0)
        assert (r - a.one() * 0.5).norm < 1e-12

    def test_fn_pointwise(self):
        f = make_function_algebra(2)
        r = resolvent(f.element([1, 3]), 0.0)
        np.testing.assert_allclose(r.coeffs, [-1, -1 / 3])

    def test_matrix_oracle(self):
        a = make_matrix_jordan(3)
        rng = np.random.default_rng(67)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (h + h.conj().T) / 2
        x = a.element(h.reshape(9))
        zeta = 5.0 + 2.0j
        oracle = np.linalg.inv(zeta * np.eye(3) - h)
        got = resolvent(x, zeta).coeffs.reshape(3, 3)
        assert np.linalg.norm(got - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_on_spectrum_raises(self):
        f = make_function_algebra(2)
        with pytest.raises(NotInvertible):
            resolvent(f.element([1, 3]), 1.0)

    def test_batch_rejects_a_node_on_the_spectrum(self):
        from jordannum.spectral import _solve_checked
        f = make_function_algebra(2)
        a = f.element([1, 3])

        def solve(zetas):
            shifted = [f.one() * zeta - a for zeta in zetas]
            return _solve_checked(
                np.array([U_operator(b).entries for b in shifted]),
                np.array([b.coeffs for b in shifted]))

        np.testing.assert_allclose(solve([0.0, 2.0]),
                                   [[-1, -1 / 3], [1, -1]])
        with pytest.raises(NotInvertible) as info:
            solve([0.0, 2.0, 3.0, 5.0])
        assert info.value.smallest_singular_value == 0.0


class TestSolveChecked:
    """The refusal contract of ``spectral._solve_checked``: operators whose
    smallest singular value is at most 1e-10 of their largest are refused,
    naming the first one's, and every other stack is solved by
    ``np.linalg.solve`` unchanged."""

    @staticmethod
    def solve(ops, rhs=None):
        from jordannum.spectral import _solve_checked
        ops = np.asarray(ops, dtype=complex)
        if rhs is None:
            rhs = np.ones(ops.shape[:2], dtype=complex)
        return _solve_checked(ops, rhs)

    @pytest.mark.parametrize("desc", ["matrix:2", "matrix:3", "matrix:4",
                                      "spin:4", "fn:5",
                                      "sum:fn:2+matrix:2"])
    def test_contour_stack_is_solve_bitwise(self, desc):
        from jordannum.algebra import _generated
        a = from_descriptor(desc)
        x = random_element(a, np.random.default_rng(71))
        _, hmat = _generated(x.coeffs, x.algebra)
        m = hmat.shape[0]
        radius = 2 * jordan_spectrum(x).spectral_radius + 1
        zetas = radius * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
        ops = zetas[:, None, None] * np.eye(m) - hmat
        rhs = np.broadcast_to(np.linalg.norm(a.unit) * np.eye(m)[0], (64, m))
        assert np.array_equal(self.solve(ops, rhs),
                              np.linalg.solve(ops, rhs[:, :, None])[:, :, 0])

    def test_accepts_above_the_rule(self):
        # kappa_F is about 5e9, so the bound does not clear it; the rule does
        got = self.solve([np.diag([1.0, 2e-10])])
        np.testing.assert_allclose(got, [[1.0, 5e9]], rtol=1e-15)

    def test_refuses_below_the_rule(self):
        with pytest.raises(NotInvertible) as info:
            self.solve([np.diag([1.0, 5e-11])])
        assert info.value.smallest_singular_value == pytest.approx(5e-11)

    def test_exactly_singular_in_the_stack(self):
        ops = [np.eye(2), 2 * np.eye(2), np.diag([1.0, 0.0]), 3 * np.eye(2)]
        with pytest.raises(NotInvertible) as info:
            self.solve(ops)
        assert info.value.smallest_singular_value == 0.0

    def test_refuses_exactly_where_the_svd_rule_does(self):
        # 3x3 operators with condition numbers 1e8..1e12, across the rule
        rng = np.random.default_rng(73)

        def unitary():
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            return np.linalg.qr(z)[0]

        ops = np.array([(unitary() * [1.0, cond ** -0.5, 1 / cond])
                        @ unitary() for cond in np.logspace(8, 12, 41)])
        s = np.linalg.svd(ops, compute_uv=False)
        refused = s[:, -1] <= 1e-10 * s[:, 0]
        assert 0 < refused.sum() < len(ops)
        for op, smin, no in zip(ops, s[:, -1], refused):
            if no:
                with pytest.raises(NotInvertible) as info:
                    self.solve([op])
                assert info.value.smallest_singular_value == smin
            else:
                assert np.array_equal(self.solve([op])[0],
                                      np.linalg.solve(op, np.ones(3)))
        with pytest.raises(NotInvertible) as info:
            self.solve(ops)
        assert info.value.smallest_singular_value == s[refused.argmax(), -1]

    def test_refuses_an_infinite_operator(self):
        # its singular values are NaN, and nan <= x is false: it was solved
        # to NaN; a NaN does not clear the rule (``_clears``)
        with pytest.raises(NotInvertible) as info:
            self.solve([np.eye(2), np.diag([np.inf, 1.0])])
        assert np.isnan(info.value.smallest_singular_value)

    def test_names_the_first_refused_operator(self):
        ops = [2 * np.eye(2), np.diag([1.0, 2e-10]), np.eye(2),
               np.diag([1.0, 5e-11]), np.diag([1.0, 1e-12])]
        with pytest.raises(NotInvertible) as info:
            self.solve(ops)
        assert info.value.smallest_singular_value == pytest.approx(5e-11)

    def test_refusal_in_a_later_chunk_is_the_unchunked_one(self,
                                                           monkeypatch):
        # 3 rows a chunk: operator 7 is the first refused, in the third
        # chunk; unchunked, the exactly singular operator 10 sends the whole
        # stack to the SVD, chunked only the fourth chunk
        import jordannum.algebra as algebra_module
        rng = np.random.default_rng(79)
        ops = rng.standard_normal((11, 3, 3)) + 3 * np.eye(3) + 0j
        ops[7] = ops[7] @ np.diag([1.0, 1.0, 3e-11])
        ops[10] = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(NotInvertible) as whole:
            self.solve(ops)
        monkeypatch.setattr(algebra_module, "_STACK_ENTRIES", 3 * 9)
        with pytest.raises(NotInvertible) as chunked:
            self.solve(ops)
        assert (chunked.value.smallest_singular_value
                == whole.value.smallest_singular_value
                == np.linalg.svd(ops[7], compute_uv=False)[-1])


class TestStackedCompression:
    """One stacked Arnoldi pass gives every row's spectrum and invertibility
    as the single calls give them: H's of one size share one stacked
    ``eigvals`` or SVD call."""

    @staticmethod
    def stack(desc):
        a = from_descriptor(desc)
        rng = np.random.default_rng(71)
        xs = [random_element(a, rng, norm_cap=cap)
              for cap in (0.1, 1.0, 5.0) for _ in range(5)]
        xs += [a.zero(), 3.0 * a.one(), a.basis_element(0),
               xs[0] * 1e200, xs[1] * 1e-200]
        defective = (make() for make in DEFECTIVE.values())
        xs += [x for x in defective if x.algebra == a]
        return a, xs

    @pytest.mark.parametrize("desc", FAMILIES + ["matrix:4", "spin:3"])
    def test_spectra_are_the_single_calls(self, desc):
        a, xs = self.stack(desc)
        want = [spectrum_bytes(jordan_spectrum(x)) for x in xs]
        got = _spectra(np.array([x.coeffs for x in xs]), a)
        assert [spectrum_bytes(s) for s in got] == want
        assert spectrum_bytes(_spectra(xs[0].coeffs[None], a)[0]) == want[0]

    @pytest.mark.parametrize("desc", FAMILIES + ["matrix:4", "spin:3"])
    def test_invertibility_is_the_single_calls(self, desc):
        a, xs = self.stack(desc)
        xs += [x + 2.0 * a.one() for x in xs]
        got = _invertible_rows(np.array([x.coeffs for x in xs]), a)
        want = [is_invertible(x) for x in xs]
        assert got == want
        assert _invertible_rows(xs[0].coeffs[None], a) == want[:1]
        assert True in want and False in want


class TestClustered:
    """One clustering routine over an (n, m) stack of eigenvalues: each row
    is bitwise the rule applied to that row alone (``reference_clustered``),
    whatever the other rows are, and the rows keep their order."""

    @staticmethod
    def assert_rows_are_the_rule(stack):
        got = _clustered(np.array(stack, dtype=complex))
        want = [reference_clustered(np.array(row, dtype=complex))
                for row in stack]
        assert [spectrum_bytes(s) for s in got] == \
            [spectrum_bytes(s) for s in want]
        return got

    def test_mixed_sizes(self):
        # H's of sizes 1, 2 and 3 in one stack of matrix:3 elements
        a = from_descriptor("matrix:3")
        rng = np.random.default_rng(5)
        xs = [random_element(a, rng), a.one(), a.basis_element(1),
              a.basis_element(0), jordan_block(3, 1.0), a.zero(),
              a.element(np.diag([1.0, 1.0, 2.0]).reshape(9)),
              random_element(a, rng)]
        hs = [_generated(x.coeffs, a)[1] for x in xs]
        assert {h.shape[0] for h in hs} == {1, 2, 3}
        got = _spectra(np.array([x.coeffs for x in xs]), a)
        want = [reference_clustered(np.linalg.eigvals(h)) for h in hs]
        assert [spectrum_bytes(s) for s in got] == \
            [spectrum_bytes(s) for s in want]

    def test_jordan_block_is_one_point(self):
        # 1 + N on matrix:3: three eigenvalues about eps^(1/3) apart
        h = _generated(jordan_block(3, 1.0).coeffs,
                       from_descriptor("matrix:3"))[1]
        (s,) = self.assert_rows_are_the_rule([np.linalg.eigvals(h)])
        assert len(s.points) == 1
        assert abs(s.points[0] - 1.0) <= 1e-12

    def test_unit(self):
        a = from_descriptor("fn:4")
        h = _generated(a.one().coeffs, a)[1]
        assert h.shape == (1, 1)
        (s,) = self.assert_rows_are_the_rule([np.linalg.eigvals(h)])
        assert s.points == (1.0,)

    def test_repeated_coordinates(self):
        # fn:4 [1, 1, 2, 3]: C[x] has dimension 3, and the spectrum {1, 2, 3}
        a = from_descriptor("fn:4")
        h = _generated(a.element([1, 1, 2, 3]).coeffs, a)[1]
        assert h.shape == (3, 3)
        (s,) = self.assert_rows_are_the_rule([np.linalg.eigvals(h)])
        assert hausdorff(s.points, [1, 2, 3]) <= 1e-14

    def test_pairs_about_dedupe_tol(self):
        # [2, 2 + delta, -1]: dedupe_tol = 1e-6 (3 + delta), just above 3e-6
        inside, outside = 3e-6, 3.00001e-6
        stack = [[2.0, 2.0 + delta, -1.0] for delta in (inside, outside)]
        stack += [[2.0, 2.0 + 1j * delta, -1.0] for delta in (inside, outside)]
        got = self.assert_rows_are_the_rule(stack)
        assert [len(s.points) for s in got] == [2, 3, 2, 3]

    def test_real_spectra_with_signed_zero_imaginary_parts(self):
        pz, nz = 0.0, -0.0
        stack = [[complex(1.0, pz), complex(2.0, nz), complex(-3.0, nz)],
                 [complex(1.0, nz), complex(1.0, pz), complex(-3.0, pz)],
                 [complex(pz, nz), complex(nz, nz), complex(5.0, nz)],
                 [complex(nz, pz), complex(nz, nz), complex(pz, pz)]]
        got = self.assert_rows_are_the_rule(stack)
        # every zero part of a point is +0.0, as in the rule's sums
        for p in (p for s in got for p in s.points):
            assert np.signbit(p.real) == (p.real < 0)
            assert not np.signbit(p.imag)

    def test_one_cluster_of_many(self):
        # every eigenvalue lies within the floor 1e-6 of the others, so each
        # such row is one cluster of five, and its mean's bits depend on the
        # order of the sum: that of the one-row product
        rng = np.random.default_rng(13)
        stack = 1e-200 * (rng.normal(size=(6, 5))
                          + 1j * rng.normal(size=(6, 5)))
        stack[::2] = rng.normal(size=(3, 5))  # rows without links
        got = self.assert_rows_are_the_rule(list(stack))
        assert [len(s.points) for s in got] == [5, 1] * 3

    def test_random_clusters_and_row_order(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 3, 5, 8):
            centres = rng.normal(size=m) + 1j * rng.normal(size=m)
            picks = rng.integers(0, m, size=(24, m))
            jitter = 10.0 ** rng.uniform(-9, -5, size=(24, 1))
            stack = centres[picks] + jitter * (rng.normal(size=(24, m))
                                               + 1j * rng.normal(size=(24, m)))
            stack[::3] = rng.normal(size=(8, m))  # rows without links
            got = self.assert_rows_are_the_rule(list(stack))
            back = _clustered(stack[::-1].copy())
            assert [spectrum_bytes(s) for s in back] == \
                [spectrum_bytes(s) for s in got[::-1]]


class TestExtremeScales:
    """Arnoldi runs on L_x scaled by a power of two into a safe range, so
    x * s keeps the inverse and the spectrum of x far beyond the scales
    where the squared norms of L_x's Krylov vectors overflow (1e200) or
    underflow (1e-200)."""

    SCALED = ["fn:2", "matrix:2", "spin:3", "matrix:3", "sum:fn:2+matrix:2"]

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("desc", SCALED)
    def test_inverse(self, desc, scale):
        a = from_descriptor(desc)
        x = random_element(a, np.random.default_rng(43)) + 2.0 * a.one()
        want = inverse(x).coeffs
        assert is_invertible(x * scale)
        got = inverse(x * scale).coeffs * scale
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_singular_stays_singular(self, scale):
        x = make_function_algebra(3).element([1, 0, 2]) * scale
        assert not is_invertible(x)
        with pytest.raises(NotInvertible):
            inverse(x)

    @pytest.mark.parametrize("desc", SCALED)
    def test_spectrum(self, desc):
        # only at 1e200: at 1e-200 every point lies within dedupe_tol's
        # absolute floor of 1e-6 of every other, and they merge into one
        x = random_element(from_descriptor(desc), np.random.default_rng(47))
        want = [p * 1e200 for p in jordan_spectrum(x).points]
        got = jordan_spectrum(x * 1e200).points
        assert len(got) == len(want)
        assert hausdorff(got, want) <= 1e-13 * 1e200

    def test_compression_scaled_past_two_to_the_1023(self):
        # L_x's largest entry 1e308 has exponent 1024, and H was scaled back
        # by 2.0 ** 1024, which raised Python's OverflowError from inverse,
        # jordan_spectrum and log; H's entries are finite, and so are these
        a = from_descriptor("matrix:2")
        x = a.element([1e308, 1e307, 0.0, 5e307])  # upper triangular
        assert hausdorff(jordan_spectrum(x).points, [1e308, 5e307]) \
            <= 1e-15 * 1e308
        want = np.array([1e-308, -2e-309, 0.0, 2e-308])
        assert np.abs(inverse(x).coeffs - want).max() <= 1e-15 * 2e-308
        assert np.allclose(log(x).coeffs, [np.log(1e308), np.log(2.0) / 5,
                                           0.0, np.log(5e307)], rtol=1e-13)
        # H of diag(1e308, 1e308) = 1e308 * 1 is [[1e308]], exactly
        assert _generated(x.coeffs * [1, 0, 0, 2], a)[1].tolist() == \
            [[1e308 + 0j]]

    def test_singular_past_two_to_the_1023(self):
        # rank one, with the spectrum {2e308, 0}: singular, and refused
        x = from_descriptor("matrix:2").element([1e308] * 4)
        assert not is_invertible(x)
        with pytest.raises(NotInvertible):
            inverse(x)

    @pytest.mark.parametrize("desc, coeffs", [
        # H = a [[1, sqrt 2], [sqrt 2, 1]] is finite, but its eigenvalue
        # (1 + sqrt 2) 8e307 is not: it gave the point nan+nanj
        ("spin:2", [8e307] * 3),
        # H = c [[1, -1], [1, 1]] and its eigenvalues c (1 +- i) are finite,
        # but their modulus c sqrt 2 is not
        ("matrix:2", [1.3e308, -1.3e308, 1.3e308, 1.3e308])])
    def test_spectrum_beyond_the_double_range_is_refused(self, desc, coeffs):
        x = from_descriptor(desc).element(coeffs)
        for call in (jordan_spectrum, log):
            with pytest.raises(JordanNumError, match="double-precision range"):
                call(x)

    def test_compression_beyond_the_double_range_is_refused(self):
        # h_21 = sqrt(2) 1.7e308 overflows: eigvals raised LinAlgError, and
        # the invertibility and the inverse read a non-finite H
        x = from_descriptor("spin:2").element([1.7e308] * 3)
        calls = (jordan_spectrum, log,
                 lambda y: holomorphic_calculus(cmath.exp, y,
                                                Contour(0.0, 1e308)),
                 lambda y: _spectra(y.coeffs[None], y.algebra),
                 # invertible (alpha^2 - u.u = -alpha^2), not False
                 is_invertible, inverse,
                 lambda y: _invertible_rows(y.coeffs[None], y.algebra))
        for call in calls:
            with pytest.raises(JordanNumError, match="double-precision range"):
                call(x)

    def test_cluster_sum_beyond_the_double_range(self):
        # [[l, l], [0, l]], l = 1.7e308: the double eigenvalue's sum
        # overflowed, to the point inf, and log's balance raised Python's
        # OverflowError; the mean is l, and log x = log(l) 1 + E_12
        lam = 1.7e308
        x = from_descriptor("matrix:2").element([lam, lam, 0.0, lam])
        s = jordan_spectrum(x)
        assert len(s.points) == 1
        assert abs(s.points[0] - lam) <= 1e-15 * lam
        assert s.spectral_radius == abs(s.points[0])
        assert np.allclose(log(x).coeffs, [np.log(lam), 1.0, 0.0, np.log(lam)],
                           rtol=1e-14, atol=1e-14)

    def test_cluster_sum_beyond_the_double_range_in_a_stack(self):
        # only the row whose sum overflows is averaged again, from its
        # eigenvalues / 4, exactly here; the other row is the rule
        lam = 1.7e308
        stack = np.array([[lam, 1.0, lam], [2.0, 1.0, 1.0 + 1e-9]],
                         dtype=complex)
        far, near = _clustered(stack)
        assert far.points == (1.0, lam)
        assert far.spectral_radius == lam
        assert spectrum_bytes(near) == \
            spectrum_bytes(reference_clustered(stack[1]))

    def test_zero_element(self):
        zero = from_descriptor("matrix:2").zero()
        assert jordan_spectrum(zero).points == (0.0,)
        assert not is_invertible(zero)


class TestUnboundedComponent:
    def test_outside_disk(self):
        s = SpectrumSet(points=(1, 2, 3), dedupe_tol=1e-6, spectral_radius=3.0)
        assert in_unbounded_component(s, 10.0)

    def test_between_line_points(self):
        s = SpectrumSet(points=(1, 2, 3), dedupe_tol=1e-6, spectral_radius=3.0)
        assert in_unbounded_component(s, 1.5 + 0.0j) or \
            in_unbounded_component(s, 1.5 + 1e-3j)

    def test_enclosed_point_certified(self):
        # a finite set has a connected complement, so the centre of a
        # 1,000-point circle lies in the unbounded component
        circle = tuple(np.exp(2j * np.pi * k / 1000) for k in range(1000))
        s = SpectrumSet(points=circle, dedupe_tol=5e-3, spectral_radius=1.0)
        assert in_unbounded_component(s, 0.0)
        with pytest.raises(OnSpectrum):
            in_unbounded_component(s, circle[250])

    def test_on_spectrum_raises(self):
        s = SpectrumSet(points=(1, 2), dedupe_tol=1e-6, spectral_radius=2.0)
        with pytest.raises(OnSpectrum):
            in_unbounded_component(s, 1.0)
