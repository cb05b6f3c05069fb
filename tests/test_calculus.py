import cmath
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from jordannum import (
    AlgebraSpec,
    Contour,
    HolomorphicCurve,
    cos,
    derivative_at_zero,
    exp,
    from_descriptor,
    holomorphic_calculus,
    jordan_mul,
    jordan_power,
    jordan_spectrum,
    log,
    make_function_algebra,
    make_matrix_jordan,
    mult_operator,
    power_mu,
    random_element,
    resolvent,
)
from jordannum import calculus, spectral
from jordannum.calculus import _CONTOUR_NODES, _MAX_CONTOUR_NODES, _exp_rows
from jordannum.errors import (BranchCut, ContourViolation, ExpOverflow,
                              NotInvertible, QuadratureError)
from test_algebra import checked_elements
from test_basis_change import algebra
from test_spectral import DEFECTIVE

FAMILIES = ["matrix:2", "matrix:3", "spin:4", "fn:5", "sum:fn:2+matrix:2"]


def exp_reference(desc, x):
    """exp of coefficients x: scipy's expm on the matrix blocks, closed
    forms on fn and spin, exp(alpha + u) = e^alpha (cosh s + u sinh(s) / s)
    with s^2 = u.u."""
    if desc.startswith("fn:"):
        return np.exp(x)
    if desc.startswith("spin:"):
        s = np.sqrt(complex(x[1:] @ x[1:]))
        sinhc = np.sinh(s) / s if s else 1.0
        return np.exp(x[0]) * np.concatenate([[np.cosh(s)], x[1:] * sinhc])
    if desc == "sum:fn:2+matrix:2":
        return np.concatenate([np.exp(x[:2]), scipy.linalg.expm(
            x[2:].reshape(2, 2)).reshape(-1)])
    n = int(desc[7:])
    return scipy.linalg.expm(x.reshape(n, n)).reshape(-1)


def exp_path(x, ts):
    """The rows exp(t x), one for each t in ts, from one stacked exp."""
    return _exp_rows(ts[:, None] * x.coeffs, x.algebra)


def hausdorff(a, b):
    a, b = list(a), list(b)
    d1 = max(min(abs(x - y) for y in b) for x in a)
    d2 = max(min(abs(x - y) for y in a) for x in b)
    return max(d1, d2)


class TestExp:
    def test_exp_zero(self):
        a = from_descriptor("spin:3")
        assert (exp(a.zero()) - a.one()).norm < 1e-15

    def test_fn_pointwise(self):
        f = make_function_algebra(2)
        e = exp(f.element([1.0, 1j * np.pi]))
        np.testing.assert_allclose(e.coeffs, [np.e, -1.0], atol=1e-14)

    def test_nilpotent_truncates(self):
        a = make_matrix_jordan(2)
        e12 = a.element([0, 1, 0, 0])
        assert (exp(e12) - (a.one() + e12)).norm < 1e-15

    def test_matrix_oracle(self):
        a = make_matrix_jordan(3)
        rng = np.random.default_rng(71)
        x = random_element(a, rng, norm_cap=2.0)
        oracle = scipy.linalg.expm(x.coeffs.reshape(3, 3))
        got = exp(x).coeffs.reshape(3, 3)
        assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("desc", ["matrix:2", "matrix:3", "fn:5",
                                      "spin:4", "sum:fn:2+matrix:2"])
    def test_against_references(self, desc):
        a = from_descriptor(desc)
        rng = np.random.default_rng(107)
        for cap in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
            for _ in range(4):
                x = random_element(a, rng, norm_cap=cap)
                want = exp_reference(desc, x.coeffs)
                err = np.linalg.norm(exp(x).coeffs - want)
                assert err <= 1e-13 * np.linalg.norm(want)

    def test_one_product_per_squaring(self, monkeypatch):
        # the series runs on L_x; only the squarings call the rank-3 product
        import jordannum.calculus as calculus
        calls = []
        real = calculus._product

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(calculus, "_product", counted)
        a = from_descriptor("matrix:3")
        rng = np.random.default_rng(109)
        for cap, squarings in ((0.5, 0), (1.0, 1), (4.0, 3)):
            x = random_element(a, rng, norm_cap=cap)
            assert calculus._scaled(x.coeffs, a)[0] == squarings
            calls.clear()
            exp(x)
            assert len(calls) == squarings

    @pytest.mark.parametrize("c", [50, 100, 200])
    def test_rescaled_structure(self, c):
        # matrix:2 with its structure times c and its unit over c: a small
        # coefficient norm does not bound L_y, which is c times matrix:2's
        from jordannum.calculus import _expm1
        m2 = from_descriptor("matrix:2")
        a = AlgebraSpec(4, m2.structure * c, m2.unit / c, f"matrix:2x{c}")
        y = a.element([-0.35, 0.1j, -0.2, -0.3])
        want = scipy.linalg.expm(mult_operator(y).entries) @ a.unit
        assert np.linalg.norm(exp(y).coeffs - want) <= \
            1e-13 * np.linalg.norm(want)
        want1 = want - a.unit
        assert np.linalg.norm(_expm1(y.coeffs, a) - want1) <= \
            1e-13 * np.linalg.norm(want1)

    def test_exp_inverse_pair(self):
        for desc in FAMILIES:
            a = from_descriptor(desc)
            rng = np.random.default_rng(73)
            x = random_element(a, rng)
            prod = jordan_mul(exp(x), exp(-x))
            assert (prod - a.one()).norm <= 1e-9

    def test_overflow_raises_exp_overflow(self):
        a = make_matrix_jordan(3)
        x = a.element(np.diag([800.0, 0.0, 0.0]).reshape(9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExpOverflow):
                exp(x)

    def test_large_nilpotent_is_finite(self):
        # a norm bound would wrongly refuse this: exp(800 N) = 1 + 800 N
        a = make_matrix_jordan(3)
        n = np.zeros((3, 3))
        n[0, 1] = 800.0
        x = a.element(n.reshape(9))
        got = exp(x)
        assert (got - (a.one() + x)).norm <= 1e-12 * x.norm

    def test_nilpotent_beyond_the_squares_range_is_finite(self):
        # the plain sum of squares of 1e160 overflows: the squaring count
        # was inf, with a RuntimeWarning and then a bare OverflowError
        a = make_matrix_jordan(2)
        got = exp(a.element([0.0, 1e160, 0.0, 0.0]))
        assert np.array_equal(got.coeffs, [1.0, 1e160, 0.0, 1.0])

    def test_nilpotent_past_two_to_the_1023_is_exact(self):
        # the count is 1025, and 2^1025 overflowed; N o N = 0, so each
        # squaring of 1 + N / 2^s doubles the offset exactly
        a = make_matrix_jordan(2)
        n = a.element([0.0, 1e308, 0.0, 0.0])
        assert np.array_equal(exp(n).coeffs, [1.0, 1e308, 0.0, 1.0])
        assert np.array_equal(cos(n).coeffs, a.unit)

    def test_squaring_counts_from_the_one_norm(self):
        # a row whose plain sum of squares is normal takes np.linalg.norm's
        # count; below that range (1e-170, a subnormal entry, zero) it stays
        # 0, and at 1e160 it is finite
        a = from_descriptor("matrix:3")
        rng = np.random.default_rng(109)
        rows = [random_element(a, rng, norm_cap=cap).coeffs
                for cap in (0.5, 1.0, 4.0, 1e3)]
        plain = [np.ceil(np.log2(max(2.0 * np.linalg.norm(r), 1.0)))
                 for r in rows]
        tiny, huge = np.zeros(9, dtype=complex), np.zeros(9, dtype=complex)
        tiny[1], huge[1] = 5e-324, 1e160
        rows += [1e-170 * rows[0], tiny, np.zeros(9), huge]
        s = calculus._scaled(np.array(rows), a)[0]
        assert s.tolist() == plain + [0.0, 0.0, 0.0, 533.0]
        assert [calculus._scaled(r, a)[0] for r in rows] == s.tolist()

    def test_overflow_beyond_the_squares_range_raises_exp_overflow(self):
        a = from_descriptor("fn:2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExpOverflow, match=r"norm 3\.162e\+160"):
                exp(a.element([3e160, 1e160]))

    def test_scaling_past_two_to_the_1023(self):
        # at s >= 1024 the scaling divided by 2^s = inf: exp(8e307) was the
        # unit with a RuntimeWarning, and from 2|x| >= 2^1024 the count
        # int(inf) raised Python's OverflowError
        f1 = from_descriptor("fn:1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for big in (8e307, 1e308):
                with pytest.raises(ExpOverflow):
                    exp(f1.element([big]))
                assert np.array_equal(exp(f1.element([-big])).coeffs, [0.0])
            # |x| itself overflows: the count stays finite
            f2 = from_descriptor("fn:2")
            assert np.array_equal(exp(f2.element([-1.7e308, -1.7e308])).coeffs,
                                  [0.0, 0.0])
            s = calculus._scaled(f2.element([1.7e308, 1.7e308]).coeffs, f2)[0]
            assert s == 1026

    def test_stack_past_two_to_the_1023(self):
        # each row keeps its own count: e^-1e308 - 1 is -1 exactly, and the
        # other rows are bitwise their single calls
        from jordannum.calculus import _expm1
        f1 = from_descriptor("fn:1")
        rows = np.array([[-1e308], [0.3], [-8e307], [2.5]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _expm1(rows, f1)
            assert got[0] == -1.0 and got[2] == -1.0
            for row, one in zip(rows, got):
                assert np.array_equal(_expm1(row, f1), one)

    def test_spectral_mapping(self):
        for desc in FAMILIES:
            a = from_descriptor(desc)
            rng = np.random.default_rng(79)
            x = random_element(a, rng)
            lhs = jordan_spectrum(exp(x)).points
            rhs = [cmath.exp(p) for p in jordan_spectrum(x).points]
            assert hausdorff(lhs, rhs) < 1e-6


class TestExpPath:
    # the stacked exp(t x) rows of reconstruct_psi's path
    @pytest.mark.parametrize("desc", FAMILIES + ["matrix:4"])
    def test_rows_against_references(self, desc):
        a = from_descriptor(desc)
        rng = np.random.default_rng(113)
        ts = np.linspace(0.0, 1.0, 17)
        for cap in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
            for _ in range(2):
                x = random_element(a, rng, norm_cap=cap)
                rows = exp_path(x, ts)
                for t, row in zip(ts, rows):
                    want = exp_reference(desc, t * x.coeffs)
                    err = np.linalg.norm(row - want)
                    assert err <= 1e-13 * np.linalg.norm(want)

    def test_row_at_zero_is_the_unit(self):
        for desc in FAMILIES:
            a = from_descriptor(desc)
            x = random_element(a, np.random.default_rng(127), norm_cap=5.0)
            rows = exp_path(x, np.linspace(0.0, 1.0, 9))
            assert np.array_equal(rows[0], a.unit)

    def test_rows_agree_with_exp(self):
        # the rows of one stack take series of different degrees; the
        # rebased tensors have complex weights
        ts = np.linspace(0.0, 1.0, 33)
        for desc in FAMILIES + ["matrix:3@P", "spin:3@P"]:
            a = algebra(desc)
            rng = np.random.default_rng(131)
            for cap in (0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 20.0):
                x = random_element(a, rng, norm_cap=cap)
                for t, row in zip(ts, exp_path(x, ts)):
                    assert np.array_equal(row, exp(x * t).coeffs)

    def test_chunked_equals_unchunked(self, monkeypatch):
        import jordannum.algebra as algebra_module
        a = from_descriptor("matrix:3")
        x = random_element(a, np.random.default_rng(137), norm_cap=4.0)
        ts = np.linspace(0.0, 1.0, 65)
        whole = exp_path(x, ts)
        # 2 rows of d^2 = 81 a chunk: 33 chunks, the last one short
        monkeypatch.setattr(algebra_module, "_STACK_ENTRIES", 2 * 81)
        assert np.array_equal(exp_path(x, ts), whole)

    def test_overflow_raises_exp_overflow(self):
        a = make_matrix_jordan(3)
        x = a.element(np.diag([800.0, 0.0, 0.0]).reshape(9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExpOverflow):
                exp_path(x, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("desc", FAMILIES + ["matrix:4"])
def test_exp_and_expm1_of_zero_are_exact(desc):
    # the lowest series degree (ell = 0): exp(0) is the unit and e^0 - 1 is
    # zero, exactly
    from jordannum.calculus import _expm1
    a = from_descriptor(desc)
    assert np.array_equal(exp(a.zero()).coeffs, a.unit)
    assert np.array_equal(_expm1(a.zero().coeffs, a), np.zeros(a.dim))


@pytest.mark.parametrize("desc", FAMILIES + ["matrix:8"])
def test_cos_is_its_two_exponentials_bitwise(desc):
    # cos takes e^{ix} and e^{-ix} as two rows of one stacked exp, and each
    # row is bitwise its single call
    a = from_descriptor(desc)
    rng = np.random.default_rng(89)
    for cap in (0.01, 1.0, 5.0):
        x = random_element(a, rng, norm_cap=cap)
        assert np.array_equal(cos(x).coeffs,
                              (0.5 * (exp(1j * x) + exp(-1j * x))).coeffs)


@pytest.mark.parametrize("fn", [exp, cos])
def test_exp_and_cos_build_one_read_only_element(fn, monkeypatch):
    for desc in ["spin:3", "matrix:3"]:
        a = from_descriptor(desc)
        for cap in (0.3, 3.0):  # without squarings and with
            x = random_element(a, np.random.default_rng(7), norm_cap=cap)
            built = checked_elements(monkeypatch)
            out = fn(x)
            assert len(built) == 1 and built[0] is out
            assert not out.coeffs.flags.writeable
            assert out.coeffs.shape == (a.dim,) and out.algebra is a
            monkeypatch.undo()


@pytest.mark.parametrize("kernel", [calculus._expm1, _exp_rows])
def test_results_never_alias_the_argument(kernel):
    # a row of norm <= 0.5 runs unscaled (s = 0); 1e-20 x and 0 have
    # series degree 1, where the series is x itself
    a = from_descriptor("spin:3")
    x = random_element(a, np.random.default_rng(9), norm_cap=0.4).coeffs
    tiny = 1e-20 * x
    s, _, _, ell = calculus._scaled(tiny, a)
    assert s == 0 and np.searchsorted(calculus._THETA, ell) == 0
    for arg in (x, tiny, np.zeros(a.dim, dtype=complex), 3.0 * x,
                np.array([x, tiny, 3.0 * x])):
        before = arg.copy()
        out = kernel(arg, a)
        assert not np.shares_memory(out, arg)
        out += 1.0  # the result is the caller's to change
        assert np.array_equal(arg, before)
    assert np.array_equal(calculus._expm1(tiny, a), tiny)


class TestSeries:
    """``_series``: a stack whose rows share a degree divides by k, one with
    mixed degrees by its table with inf; both give the same bits, and every
    row is bitwise its one-row call."""

    @staticmethod
    def series(args, a):
        _, x, lx, ell = calculus._scaled(args, a)
        return x, lx, ell, calculus._series(x, lx, ell)

    def check(self, args, a, uniform):
        x, lx, ell, got = self.series(args, a)
        degrees = set(np.searchsorted(calculus._THETA, ell).tolist())
        assert (len(degrees) == 1) == uniform
        for i in range(len(x)):
            assert calculus._ell(lx[i]) == ell[i]
            one = calculus._series(x[i], lx[i], calculus._ell(lx[i]))
            assert np.array_equal(got[i], one)
        # a zero row, of degree 1, sends the stack down the mixed path
        mixed = calculus._series(np.vstack([x, np.zeros_like(x[:1])]),
                                 np.concatenate([lx, np.zeros_like(lx[:1])]),
                                 np.append(ell, 0.0))
        assert np.array_equal(mixed[:-1], got)
        assert np.array_equal(mixed[-1], np.zeros(a.dim))

    @pytest.mark.parametrize("desc", FAMILIES + ["matrix:3@P", "spin:3@P"])
    def test_uniform_mixed_and_single_rows_agree(self, desc):
        a = algebra(desc)
        rng = np.random.default_rng(71)
        for cap in (0.01, 0.5, 1.0, 5.0):
            x = random_element(a, rng, norm_cap=cap).coeffs
            # cos's pair +-ix, whose L's have equal moduli
            self.check(x * np.array([[1j], [-1j]]), a, uniform=True)
            # a stack of one degree: x itself, repeated
            self.check(np.array([x, x, x]), a, uniform=True)
        # a vetting path t x, t = 0, 1/32, ..., 1: degrees 1 up to x's
        x = random_element(a, rng, norm_cap=1.0).coeffs
        self.check(np.linspace(0.0, 1.0, 33)[:, None] * x, a, uniform=False)

    @pytest.mark.parametrize("desc", FAMILIES + ["fn:1", "matrix:12"])
    def test_one_row_is_the_matvec_horner(self, desc):
        # one row steps by lx.dot(v), a stack by np.matvec: the same bits,
        # d = 1 (a scalar product) included
        a = from_descriptor(desc)
        rng = np.random.default_rng(67)
        for cap in (0.01, 0.5, 1.0, 5.0):
            for _ in range(5):
                x = random_element(a, rng, norm_cap=cap).coeffs
                _, x, lx, ell = calculus._scaled(x, a)
                m = 1 + int(np.searchsorted(calculus._THETA, ell))
                want = x
                for k in range(m, 1, -1):
                    want = np.matvec(lx, want)
                    want /= np.complex128(k)
                    want += x
                got = calculus._series(x, lx, ell)
                assert np.array_equal(got.view(float), want.view(float))

    @pytest.mark.parametrize("desc", FAMILIES)
    def test_small_stacks_are_unscaled(self, desc):
        # rows all of norm <= 0.5 skip the count: s = 0 for each, x is the
        # stack itself, and every row is bitwise what it gets when a larger
        # row sends the stack through the count and the scaling
        a = from_descriptor(desc)
        rng = np.random.default_rng(61)
        small = np.array([random_element(a, rng, norm_cap=cap).coeffs
                          for cap in (1e-12, 0.01, 0.3, 0.5)])
        big = random_element(a, rng, norm_cap=4.0).coeffs
        s, x, _, _ = calculus._scaled(small, a)
        assert x is small and s.shape == (4,) and not s.any()
        s_all = calculus._scaled(np.vstack([small, big]), a)[0]
        assert not s_all[:4].any() and s_all[4] > 0
        for kernel in (_exp_rows, calculus._expm1):
            alone = kernel(small, a)
            joined = kernel(np.vstack([small, big]), a)
            assert np.array_equal(alone.view(float), joined[:4].view(float))

    @pytest.mark.parametrize("desc", FAMILIES)
    @pytest.mark.parametrize("cap", [0.3, 3.0])
    def test_mixed_degree_stack_is_its_single_calls(self, desc, cap):
        # a vetting path t x: degrees 1 up to x's, unscaled at cap 0.3 and
        # with squarings from 1 up at cap 3
        a = from_descriptor(desc)
        x = random_element(a, np.random.default_rng(59), norm_cap=cap).coeffs
        path = np.linspace(0.0, 1.0, 17)[:, None] * x
        for kernel in (_exp_rows, calculus._expm1):
            rows = kernel(path, a)
            for row, got in zip(path, rows):
                assert np.array_equal(kernel(row, a).view(float),
                                      got.view(float))


class TestExpm1:
    def test_fn_pointwise_relative(self):
        # small entries keep their relative accuracy; the 3.0 entry takes
        # the 2x + x^2 squarings
        from jordannum.calculus import _expm1
        f = make_function_algebra(4)
        z = np.array([1e-9, -2e-5 + 1e-6j, 3e-3j, 3.0])
        np.testing.assert_allclose(_expm1(z, f), np.expm1(z),
                                   rtol=1e-14, atol=0)

    def test_agrees_with_exp(self):
        from jordannum.calculus import _expm1
        for desc in FAMILIES:
            a = from_descriptor(desc)
            x = random_element(a, np.random.default_rng(83), norm_cap=2.0)
            want = (exp(x) - a.one()).coeffs
            assert np.linalg.norm(_expm1(x.coeffs, a) - want) <= \
                1e-13 * exp(x).norm


class TestLog:
    def test_log_unit(self):
        a = from_descriptor("spin:4")
        assert log(a.one()).norm < 1e-14

    def test_fn_pointwise(self):
        f = make_function_algebra(2)
        x = f.element([np.e, np.e ** 2])
        np.testing.assert_allclose(log(x).coeffs, [1.0, 2.0], atol=1e-12)

    def test_round_trip_all_families(self):
        for desc in FAMILIES:
            a = from_descriptor(desc)
            rng = np.random.default_rng(83)
            for _ in range(5):
                x = random_element(a, rng)
                assert (log(exp(x)) - x).norm <= 1e-8 * max(x.norm, 1.0)
                y = exp(x)
                assert (exp(log(y)) - y).norm <= 1e-8 * max(y.norm, 1.0)

    def test_round_trip_where_newton_loses_stability(self):
        # plain Newton's square root is unstable for non-normal elements: on
        # exp(y) its step falls to 3.6e-15, then grows and never reaches the
        # 1e-15 stop; the incremental form converges
        a = from_descriptor("spin:4")
        rng = np.random.default_rng(3)
        y = [random_element(a, rng, norm_cap=3.0) for _ in range(12)][-1]
        assert (log(exp(y)) - y).norm <= 1e-8 * max(y.norm, 1.0)

    def test_round_trip_where_newton_finds_no_root(self):
        # on this spin:4 element plain Newton never comes near a root (its
        # smallest-step iterate has residual 5.8); the incremental form
        # finds it to rounding level
        a = from_descriptor("spin:4")
        rng = np.random.default_rng(7)
        for cap in (0.5, 1.0, 2.0):
            for _ in range(60):
                random_element(a, rng, norm_cap=cap)
        y = [random_element(a, rng, norm_cap=3.0) for _ in range(52)][-1]
        assert (log(exp(y)) - y).norm <= 1e-13 * max(y.norm, 1.0)

    def test_exp_log_round_trip_on_non_normal_spin_elements(self):
        # spin elements are far from normal at large norms, which is where
        # an unstable square root loses digits
        a = from_descriptor("spin:4")
        rng = np.random.default_rng(7)
        worst = 0.0
        for cap in (0.5, 1.0, 2.0, 3.0):
            for _ in range(60):
                y = exp(random_element(a, rng, norm_cap=cap))
                worst = max(worst, (exp(log(y)) - y).norm / y.norm)
        assert worst <= 2e-14

    @pytest.mark.parametrize("c", [10, 100])
    @pytest.mark.parametrize("diag", [(1.0, -0.5), (0.8, 0.0)])
    def test_rescaled_structure(self, c, diag):
        # matrix:2 with its structure times c and its unit over c, the image
        # of matrix:2 under phi(v) = v / c: log(phi(e^X)) = phi(X). There
        # |z| <= 0.25 does not bound L_z, and a square-root staging that
        # stops on the norm alone left the Mercator series diverging
        m2 = from_descriptor("matrix:2")
        a = AlgebraSpec(4, m2.structure * c, m2.unit / c, f"matrix:2x{c}")
        x = np.diag(diag)
        y = a.element(scipy.linalg.expm(x).reshape(-1) / c)
        want = x.reshape(-1) / c
        assert np.linalg.norm(log(y).coeffs - want) <= \
            1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("scale", [1e-6, 1e6, 1e8, 1e16, 1e50, 1e150,
                                       1e200])
    def test_far_from_the_unit_circle(self, scale):
        # log(s y) = log y + ln(s) 1. The roots never recompute x o x - a, so
        # the rounding of their first steps, about eps s, stayed in them:
        # unbalanced, this erred by 1e-11 at s = 1e6, raised "square root
        # inaccurate" from 1e8 and overflowed in the product at 1e200
        rng = np.random.default_rng(0)
        for desc in ["fn:1", "fn:2", "matrix:2", "matrix:3", "spin:3",
                     "sum:fn:2+matrix:2"]:
            a = from_descriptor(desc)
            y = exp(random_element(a, rng))
            want = log(y).coeffs + np.log(scale) * a.unit
            got = log(y * scale).coeffs
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("desc", ["matrix:3", "spin:4"])
    def test_round_trip_on_spread_spectra(self, desc):
        # exp(3 g), g standard complex Gaussian: spectrum moduli spread over
        # up to e^(6 |Re g|). Unbalanced, the roots' large first corrections
        # left C[a], and 7 of these 50 on matrix:3 and 4 on spin:4 raised
        # "square root inaccurate"
        a = from_descriptor(desc)
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = exp(random_element(a, rng, norm_cap=np.inf) * 3)
            assert (exp(log(y)) - y).norm <= 1e-10 * y.norm

    def test_one_checked_element_per_call(self, monkeypatch):
        # the roots, the staging and the series of log, and cos's sum, run
        # on coefficient rows: each call builds its result and nothing else,
        # by Element's check or by ``_wrap``'s
        for desc in ["matrix:2", "matrix:4", "spin:4", "fn:5"]:
            x = random_element(from_descriptor(desc),
                               np.random.default_rng(97))
            y = exp(x)
            built = checked_elements(monkeypatch)
            for fn, arg in ((log, y), (cos, x)):
                built.clear()
                fn(arg)
                assert len(built) == 1, fn.__name__
            monkeypatch.undo()

    def test_branch_cut_raises(self):
        f = make_function_algebra(2)
        with pytest.raises(BranchCut):
            log(f.element([-1.0, 2.0]))
        with pytest.raises(BranchCut):
            log(f.element([0.0, 2.0]))

    def test_branch_cut_clearance_is_resolved(self):
        # 1e-9 from the cut is inside the 1e-8 clearance; 1e-6 is outside
        # it, where Newton's first square-root iterate (1 + a) / 2 is
        # nearly singular unless the spectrum is turned away from -1
        f = make_function_algebra(2)
        with pytest.raises(BranchCut):
            log(f.element([-1.0 + 1e-9j, 2.0]))
        y = f.element([-1.0 + 1e-6j, 2.0])
        np.testing.assert_allclose(log(y).coeffs, np.log(y.coeffs),
                                   atol=1e-12)


class TestPowerMu:
    def test_zero_power(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(89)
        x = exp(random_element(a, rng))
        assert (power_mu(x, 0.0) - a.one()).norm < 1e-12

    def test_identity_power(self):
        a = from_descriptor("spin:3")
        rng = np.random.default_rng(97)
        x = exp(random_element(a, rng))
        assert (power_mu(x, 1.0) - x).norm <= 1e-9 * x.norm

    def test_fn_square_root(self):
        f = make_function_algebra(2)
        r = power_mu(f.element([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(r.coeffs, [2.0, 3.0], atol=1e-12)

    def test_integer_power_agrees(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(101)
        x = exp(random_element(a, rng))
        for n in (2, 3, 5):
            ref = jordan_power(x, n)
            assert (power_mu(x, n) - ref).norm <= 1e-7 * max(ref.norm, 1.0)


def per_node_calculus(h, a, contour):
    """The trapezoid rule at _CONTOUR_NODES, twice that, ... until stable,
    each rule summed afresh, one public ``resolvent`` call per node."""
    def quad(n):
        acc = np.zeros(a.algebra.dim, dtype=complex)
        for k in range(n):
            off = contour.radius * np.exp(2j * np.pi * k / n)
            zeta = contour.center + off
            acc += h(zeta) * off * resolvent(a, zeta).coeffs
        return acc / n

    n = _CONTOUR_NODES
    prev = quad(n)
    while n < _MAX_CONTOUR_NODES:
        n *= 2
        cur = quad(n)
        if np.linalg.norm(cur - prev) <= 1e-9 * max(np.linalg.norm(cur), 1.0):
            return cur
        prev = cur
    raise AssertionError("reference quadrature did not stabilize")


class TestHolomorphicCalculus:
    @pytest.mark.parametrize("desc", FAMILIES + ["matrix:4"])
    def test_matches_per_node_reference(self, desc):
        a = from_descriptor(desc)
        x = random_element(a, np.random.default_rng(131))
        contour = Contour(0.0, 2.0 * jordan_spectrum(x).spectral_radius + 1.0)
        for h in (lambda z: z, cmath.exp):
            got = holomorphic_calculus(h, x, contour).coeffs
            ref = per_node_calculus(h, x, contour)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_h_called_once_per_node(self):
        # accepted at 512 nodes; summing each rule afresh made 256 + 512 calls
        a = from_descriptor("spin:4")
        x = random_element(a, np.random.default_rng(103))
        nodes = []

        def h(z):
            nodes.append(z)
            return z

        holomorphic_calculus(h, x, Contour(0.0, 3.0))
        assert len(nodes) == len(set(nodes)) == 512

    def test_identity_function(self):
        a = from_descriptor("spin:4")
        rng = np.random.default_rng(103)
        x = random_element(a, rng)
        got = holomorphic_calculus(lambda z: z, x, Contour(0.0, 3.0))
        assert (got - x).norm <= 1e-9 * max(x.norm, 1.0)

    def test_exp_function(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(107)
        x = random_element(a, rng)
        got = holomorphic_calculus(cmath.exp, x, Contour(0.0, 3.0))
        ref = exp(x)
        assert (got - ref).norm <= 1e-8 * ref.norm

    def test_scalar_log(self):
        a = from_descriptor("fn:5")
        got = holomorphic_calculus(cmath.log, a.one() * 2.0,
                                   Contour(2.0, 1.0))
        ref = a.one() * cmath.log(2.0)
        assert (got - ref).norm <= 1e-9

    def test_square_matches_jordan_power(self):
        a = from_descriptor("sum:fn:2+matrix:2")
        rng = np.random.default_rng(109)
        x = random_element(a, rng)
        got = holomorphic_calculus(lambda z: z * z, x, Contour(0.0, 3.0))
        ref = jordan_power(x, 2)
        assert (got - ref).norm <= 1e-8 * max(ref.norm, 1.0)

    def test_defective_elements_against_references(self):
        for name, make in DEFECTIVE.items():
            x = make()
            radius = 2.0 * jordan_spectrum(x).spectral_radius + 1.0
            got = holomorphic_calculus(cmath.exp, x, Contour(0.0, radius))
            want = exp_reference(x.algebra.label, x.coeffs)
            err = np.linalg.norm(got.coeffs - want) / np.linalg.norm(want)
            assert err <= 1e-14, name

    def test_never_forms_a_U_operator(self, monkeypatch):
        # the resolvents are solved on the m x m compression H of L_a
        import jordannum.algebra as algebra
        import jordannum.calculus as calculus

        def refuse(a):
            raise AssertionError("U_operator called")

        # neither layer binds the name, so a call could only reach its home
        assert not hasattr(spectral, "U_operator")
        assert not hasattr(calculus, "U_operator")
        monkeypatch.setattr(algebra, "U_operator", refuse)
        x = random_element(from_descriptor("matrix:3"),
                           np.random.default_rng(113))
        got = holomorphic_calculus(lambda z: z, x, Contour(0.0, 5.0))
        assert (got - x).norm <= 1e-9 * max(x.norm, 1.0)

    def test_one_arnoldi_per_call(self, monkeypatch):
        # the ContourViolation check and the solves share one compression
        import jordannum.algebra as algebra
        import jordannum.calculus as calculus
        calls = []

        def counted(x, alg):
            calls.append(1)
            return algebra._generated(x, alg)

        monkeypatch.setattr(calculus, "_generated", counted)
        monkeypatch.setattr(spectral, "_generated", counted)
        for desc in FAMILIES:
            x = random_element(from_descriptor(desc),
                               np.random.default_rng(139))
            calls.clear()
            holomorphic_calculus(np.exp, x, Contour(0.0, 5.0))
            assert len(calls) == 1

    @pytest.mark.parametrize("desc", ["matrix:3", "fn:5",
                                      "sum:fn:2+matrix:2"])
    def test_chunked_solves_equal_unchunked(self, desc, monkeypatch):
        # the resolvent stacks go through algebra._chunked, which cuts them
        # to _STACK_ENTRIES / m^2 rows; each row is bitwise its single solve
        import jordannum.algebra as algebra_module
        x = random_element(from_descriptor(desc),
                           np.random.default_rng(149), norm_cap=2.0)
        m = algebra_module._generated(x.coeffs, x.algebra)[1].shape[0]
        contour = Contour(0.0, 2.0 * jordan_spectrum(x).spectral_radius + 1.0)
        whole = holomorphic_calculus(cmath.exp, x, contour).coeffs
        bound = 5 * m * m
        monkeypatch.setattr(algebra_module, "_STACK_ENTRIES", bound)
        inv, stacks = np.linalg.inv, []

        def recorded(ops):
            stacks.append(ops.shape)
            return inv(ops)

        monkeypatch.setattr(np.linalg, "inv", recorded)
        assert np.array_equal(
            holomorphic_calculus(cmath.exp, x, contour).coeffs, whole)
        assert sum(rows for rows, _, _ in stacks) >= _CONTOUR_NODES * 2
        assert all(rows * w * w <= bound and w == m
                   for rows, w, _ in stacks)

    @pytest.mark.parametrize("scale", [1.0, 1e160])
    def test_stop_test_beyond_the_squares_range(self, scale):
        # the stop test's plain norms were inf <= inf above 1.3e154: the
        # rule stopped at its first doubling, 512 nodes, off by 4e-5 and
        # with two overflow RuntimeWarnings
        a = from_descriptor("fn:2")
        x = a.element([0.3, -0.2])
        nodes = []

        def h(z):
            nodes.append(z)
            return scale / (z - 1.02)

        got = holomorphic_calculus(h, x, Contour(0.0, 1.0)).coeffs
        want = scale / (x.coeffs - 1.02)
        assert len(nodes) == 4096
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_spectrum_outside_contour_rejected(self):
        a = from_descriptor("fn:5")
        with pytest.raises(ContourViolation):
            holomorphic_calculus(lambda z: z, a.one() * 5.0, Contour(0.0, 1.0))

    def test_unsettled_rule_raises(self):
        # h has a pole 1e-6 outside the contour: the trapezoid rule converges
        # too slowly to settle below the node cap
        x = from_descriptor("fn:2").element([0.0, 0.5])
        with pytest.raises(QuadratureError,
                           match="contour quadrature did not stabilize"):
            holomorphic_calculus(lambda z: 1.0 / (z - 1.000001), x,
                                 Contour(0.0, 1.0))

    def test_each_level_forms_one_operator_stack(self, monkeypatch):
        # a rule forced to the node cap solves 4,096 new 12 x 12 systems at
        # its last level, a 9.4 MB operator stack; forming zeta I - H out of
        # place held two such stacks at once (19.9 MB)
        x = random_element(from_descriptor("matrix:12"),
                           np.random.default_rng(5), norm_cap=2.0)
        assert calculus._generated(x.coeffs, x.algebra)[1].shape == (12, 12)
        contour = Contour(0.0, 2.0 * jordan_spectrum(x).spectral_radius + 1.0)
        monkeypatch.setattr(calculus, "_QUADRATURE_TOL", -1.0)
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError):
                holomorphic_calculus(cmath.exp, x, contour)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_each_chunk_forms_its_own_operators(self, monkeypatch):
        # the same rule: its last level's 4,096 operators are formed one
        # chunk of _STACK_ENTRIES / m^2 at a time, not as a 9.4 MB stack
        x = random_element(from_descriptor("matrix:12"),
                           np.random.default_rng(5), norm_cap=2.0)
        contour = Contour(0.0, 2.0 * jordan_spectrum(x).spectral_radius + 1.0)
        monkeypatch.setattr(calculus, "_QUADRATURE_TOL", -1.0)
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError):
                holomorphic_calculus(cmath.exp, x, contour)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_contour_validation(self):
        with pytest.raises(ValueError):
            Contour(0.0, -1.0)
        for center, radius in ((0.0, np.nan), (np.inf, 1.0),
                               (complex(0.0, np.nan), 1.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                Contour(center, radius)

    def test_nodes_that_overflow_are_refused(self):
        # center + radius e^{i theta} overflows to inf at some nodes, whose
        # zeta I - H has NaN singular values: the rule refuses them, where
        # the quadrature ran to its node cap on NaN and raised
        # QuadratureError
        x = make_function_algebra(1).element([8e307])
        with (pytest.raises(NotInvertible) as info,
              pytest.warns(RuntimeWarning)):  # the overflow, then inf * 0
            holomorphic_calculus(lambda z: 1.0, x, Contour(1e308, 1e308))
        assert np.isnan(info.value.smallest_singular_value)

    def test_nodes_that_overflow_to_nan_are_refused(self):
        # here some zeta I - H have NaN entries, on which numpy's SVD raised
        # LinAlgError("SVD did not converge"): a non-finite operator is
        # refused before its SVD
        x = make_function_algebra(2).element([8e307, 1e307])
        with (pytest.raises(NotInvertible) as info,
              pytest.warns(RuntimeWarning)):
            holomorphic_calculus(lambda z: z, x, Contour(1e308, 1.5e308))
        assert np.isnan(info.value.smallest_singular_value)


def pole_curve(x, radius):
    """z -> 1 + x z / (1 - z / radius): f'(0) = x, a pole at z = radius."""
    one = x.algebra.one()
    return lambda z: one + x * (complex(z) / (1.0 - complex(z) / radius))


class TestDerivativeAtZero:
    def test_constant_curve(self):
        a = from_descriptor("matrix:2")
        f = HolomorphicCurve(lambda z: a.one(), radius_r=2.0)
        assert derivative_at_zero(f, rho=0.5).norm < 1e-12

    def test_exponential_curve(self):
        a = from_descriptor("spin:3")
        rng = np.random.default_rng(113)
        x = random_element(a, rng)
        f = HolomorphicCurve(lambda z: exp(x * z), radius_r=2.0)
        got = derivative_at_zero(f, rho=0.5)
        assert (got - x).norm <= 1e-9 * max(x.norm, 1.0)

    def test_curve_evaluated_once_per_node(self):
        # rho / R = 1/4: the rule starts at 16 nodes and is accepted at 32;
        # summing each rule afresh would make 16 + 32 calls
        a = from_descriptor("spin:3")
        x = random_element(a, np.random.default_rng(113))
        nodes = []

        def curve(z):
            nodes.append(z)
            return exp(x * z)

        derivative_at_zero(HolomorphicCurve(curve, radius_r=2.0), rho=0.5)
        assert len(nodes) == len(set(nodes)) == 32

    @pytest.mark.parametrize("ratio, pole, count", [
        (0.5, False, 64),   # starts at 32
        (0.9, True, 512),   # starts at the cap, 64, and doubles three times
    ])
    def test_evaluation_count(self, ratio, pole, count):
        a = from_descriptor("spin:3")
        x = random_element(a, np.random.default_rng(113))
        nodes = []

        def curve(z):
            nodes.append(z)
            return pole_curve(x, 2.0)(z) if pole else exp(x * z)

        got = derivative_at_zero(HolomorphicCurve(curve, radius_r=2.0),
                                 rho=2.0 * ratio)
        assert len(nodes) == len(set(nodes)) == count
        assert (got - x).norm <= 1e-14 * x.norm

    @pytest.mark.parametrize("scale", [1.0, 1e160])
    def test_stop_test_beyond_the_squares_range(self, scale):
        # z -> s (1 + e_1 / (z - 0.6)), f'(0) = -s e_1 / 0.36: at 1e160 the
        # plain norms stopped the rule at 128 calls, off by 1.5e-5
        a = from_descriptor("spin:3")
        e1 = a.basis_element(1)
        nodes = []

        def curve(z):
            nodes.append(z)
            return (a.one() + e1 / (z - 0.6)) * scale

        got = derivative_at_zero(HolomorphicCurve(curve, radius_r=0.6),
                                 rho=0.55)
        assert len(nodes) == 512
        assert np.abs(got.coeffs + scale / 0.36 * e1.coeffs).max() <= \
            1e-14 * scale

    @pytest.mark.parametrize("ratio", [0.73, 0.8, 0.9, 0.95])
    def test_capped_start_is_the_64_node_rule(self, ratio):
        # where (rho / R)^32 > 1e-9 the rule starts at 64 nodes, as it always
        # did, so the result is bitwise that rule's
        from jordannum.calculus import _nested_trapezoid
        a = from_descriptor("spin:3")
        x = random_element(a, np.random.default_rng(131))
        curve = pole_curve(x, 1.0)

        def sample(w):
            return (np.array([curve(ratio * z).coeffs for z in w])
                    / (ratio * w)[:, None])

        got = derivative_at_zero(HolomorphicCurve(curve, radius_r=1.0),
                                 rho=ratio)
        assert np.array_equal(got.coeffs,
                              _nested_trapezoid(sample, 64, "Cauchy"))

    @pytest.mark.parametrize("desc", ["spin:3", "matrix:3", "fn:5"])
    def test_pole_at_radius(self, desc):
        # 1 + x z / (1 - z / R) is analytic on |z| < R only; at rho = R / 2
        # the rule starts at 32 nodes and stops at 64
        a = from_descriptor(desc)
        rng = np.random.default_rng(137)
        for _ in range(5):
            x = random_element(a, rng)
            f = HolomorphicCurve(pole_curve(x, 1.5), radius_r=1.5)
            got = derivative_at_zero(f, rho=0.75)
            assert (got - x).norm <= 1e-14 * x.norm

    @pytest.mark.parametrize("radius", [np.nan, 0.0, -1.0])
    def test_radius_validation(self, radius):
        # a NaN radius reached the curve as z = NaN and failed inside it
        a = from_descriptor("fn:2")
        with pytest.raises(ValueError, match="radius_r"):
            HolomorphicCurve(lambda z: a.one(), radius_r=radius)

    def test_entire_curve(self):
        # radius_r = inf: rho / R = 0, so the rule starts at 16 nodes
        a = from_descriptor("fn:2")
        x = a.element([0.3, -0.2])
        f = HolomorphicCurve(lambda z: exp(x * z), radius_r=np.inf)
        assert (derivative_at_zero(f, rho=1.0) - x).norm <= 1e-15
        with pytest.raises(ValueError, match="finite"):
            derivative_at_zero(f, rho=np.inf)

    def test_nan_rho_rejected_before_the_curve_is_called(self):
        a = from_descriptor("fn:2")
        nodes = []

        def curve(z):
            nodes.append(z)
            return a.one()

        with pytest.raises(ValueError, match="sampling radius"):
            derivative_at_zero(HolomorphicCurve(curve, radius_r=1.0),
                               rho=np.nan)
        assert nodes == []

    def test_product_curve_and_finite_difference(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(127)
        xa = random_element(a, rng)
        xb = random_element(a, rng)
        xc = random_element(a, rng)
        xd = random_element(a, rng)
        d3 = jordan_power(xd, 3)
        one = a.one()

        def curve(z):
            z = complex(z)
            poly = one + xb * z + d3 * z ** 3
            return jordan_mul(jordan_mul(exp(xa * z), poly), cos(xc * z))

        f = HolomorphicCurve(curve, radius_r=1.0)
        got = derivative_at_zero(f, rho=0.25)
        assert (got - (xa + xb)).norm <= 1e-8

        h = 1e-4
        fd = (curve(h) - curve(-h)) / (2 * h)
        assert (got - fd).norm <= 1e-5

    def test_rho_validation(self):
        a = from_descriptor("fn:5")
        f = HolomorphicCurve(lambda z: a.one(), radius_r=1.0)
        with pytest.raises(ValueError):
            derivative_at_zero(f, rho=1.5)

    def test_unsettled_rule_raises(self):
        # the curve claims radius 1 but has a pole at 0.50001, just outside
        # the sampling circle: the rule does not settle below the node cap
        one = from_descriptor("fn:2").one()
        f = HolomorphicCurve(lambda z: one * (1.0 / (1.0 - z / 0.50001)),
                             radius_r=1.0)
        with pytest.raises(QuadratureError,
                           match="Cauchy quadrature did not stabilize"):
            derivative_at_zero(f, rho=0.5)
