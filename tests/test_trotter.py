import signal

import numpy as np
import pytest
import scipy.linalg

from jordannum import (
    HolomorphicCurve,
    SequencePlan,
    U_operator,
    U_pair_operator,
    associative_identity_check,
    convergence_report,
    cos,
    derivative_at_zero,
    exp,
    from_descriptor,
    general_trotter,
    geometric_grid,
    jordan_mul,
    jordan_power,
    power_mu,
    random_element,
    trotter_U,
    trotter_U_pair,
    trotter_jordan,
)
from jordannum import algebra as algebra_module
from jordannum import calculus, trotter
from jordannum.errors import (AlgebraMismatch, ExpOverflow, InsufficientData,
                              StructureError, UnsupportedAlgebra)
from jordannum.trotter import FORMULAE

FAMILIES = ["matrix:2", "matrix:3", "spin:4", "fn:5", "sum:fn:2+matrix:2"]


class TestProductFormulae:
    def test_zero_inputs(self):
        a = from_descriptor("spin:3")
        z = a.zero()
        for n in (1, 7, 64):
            assert (trotter_jordan(z, z, n) - a.one()).norm < 1e-12

    def test_equal_inputs_exact(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(131)
        x = random_element(a, rng)
        target = exp(2.0 * x)
        for n in (1, 8, 64):
            got = trotter_jordan(x, x, n)
            assert (got - target).norm <= 1e-10 * target.norm

    def test_pauli_large_n(self):
        a = from_descriptor("matrix:2")
        sx = a.element([0, 1, 1, 0])
        sz = a.element([1, 0, 0, -1])
        target = exp(sx + sz)
        assert (trotter_jordan(sx, sz, 4096) - target).norm <= 5e-3

    def test_U_a_zero_reduces_exactly(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(137)
        b = random_element(a, rng)
        target = exp(b)
        for n in (4, 64):
            assert (trotter_U(a.zero(), b, n) - target).norm <= \
                1e-9 * target.norm

    def test_U_commutative_exact(self):
        f = from_descriptor("fn:5")
        rng = np.random.default_rng(139)
        x = random_element(f, rng)
        target = exp(2.0 * x)
        for n in (2, 16):
            assert (trotter_U(x, f.zero(), n) - target).norm <= \
                1e-10 * target.norm

    def test_U_pauli_large_n(self):
        a = from_descriptor("matrix:2")
        sx = a.element([0, 1, 1, 0])
        sz = a.element([1, 0, 0, -1])
        target = exp(2.0 * sx + sz)
        assert (trotter_U(sx, sz, 4096) - target).norm <= 5e-3

    def test_U_matches_associative_sandwich(self):
        # in matrix algebras U_{e^{a/n}}(x) = e^{a/n} x e^{a/n}
        a = from_descriptor("matrix:3")
        rng = np.random.default_rng(149)
        x = random_element(a, rng)
        y = random_element(a, rng)
        n = 16
        xm = x.coeffs.reshape(3, 3)
        ym = y.coeffs.reshape(3, 3)
        ean = scipy.linalg.expm(xm / n)
        ebn = scipy.linalg.expm(ym / n)
        oracle = np.linalg.matrix_power(ean @ ebn @ ean, n)
        got = trotter_U(x, y, n).coeffs.reshape(3, 3)
        assert np.linalg.norm(got - oracle) <= \
            1e-9 * max(np.linalg.norm(oracle), 1.0)

    def test_U_pair_reduces_to_U_bitwise(self):
        # U_{x,x} = U_x, bitwise, between the two operator implementations:
        # trotter_U runs as trotter_U_pair(a, b, a), which relies on it
        for desc in FAMILIES:
            a = from_descriptor(desc)
            rng = np.random.default_rng(151)
            for cap in (0.1, 1.0, 5.0):
                for _ in range(12):
                    x = random_element(a, rng, norm_cap=cap)
                    assert np.array_equal(U_pair_operator(x, x).entries,
                                          U_operator(x).entries), desc
        a = from_descriptor("spin:4")
        rng = np.random.default_rng(151)
        x, y = random_element(a, rng), random_element(a, rng)
        assert np.array_equal(trotter_U_pair(x, y, x, 32).coeffs,
                              trotter_U(x, y, 32).coeffs)

    def test_U_pair_c_zero_targets_sum(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(157)
        x, y = random_element(a, rng), random_element(a, rng)
        target = exp(x + y)
        assert (trotter_U_pair(x, y, a.zero(), 4096) - target).norm <= 1e-2

    def test_U_pair_spin_large_n(self):
        s = from_descriptor("spin:3")
        rng = np.random.default_rng(163)
        x, y, z = (random_element(s, rng) for _ in range(3))
        target = exp(x + y + z)
        assert (trotter_U_pair(x, y, z, 4096) - target).norm <= 1e-2


PRODUCTS = [("trotter_jordan", 2), ("trotter_U", 2), ("trotter_U_pair", 3)]


class TestStep:
    @pytest.mark.parametrize("n", [-1, 0, 2.5, 2.0])
    @pytest.mark.parametrize("name, arity", PRODUCTS)
    def test_step_count_must_be_a_positive_integer(self, name, arity, n):
        # a negative n once shifted forever in the binary powering, so the
        # alarm turns a hang into a failure
        one = from_descriptor("spin:3").one()

        def timeout(signum, frame):
            raise TimeoutError(f"{name}(..., {n!r}) did not return")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(1)
        try:
            with pytest.raises(ValueError, match="integer >= 1"):
                getattr(trotter, name)(*[one] * arity, n)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("name, arity", PRODUCTS)
    def test_one_expm1_call_per_step(self, name, arity, monkeypatch):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(167)
        args = [random_element(a, rng) for _ in range(arity)]
        calls = []
        original = trotter._expm1

        def counted(arg, algebra):
            calls.append(arg)
            return original(arg, algebra)

        monkeypatch.setattr(trotter, "_expm1", counted)
        for n in (1, 5, 64):
            calls.clear()
            getattr(trotter, name)(*args, n)
            assert len(calls) == 1

    @pytest.mark.parametrize("name, arity", PRODUCTS)
    def test_overflowing_power_raises_exp_overflow(self, name, arity):
        # e^{800/16} - 1 is finite, its 16th power is not: the powering
        # once overflowed with RuntimeWarnings and then refused the
        # infinite coefficients with a StructureError
        a = from_descriptor("fn:2")
        big = 800.0 * a.one()
        with pytest.raises(ExpOverflow):
            getattr(trotter, name)(big, *[a.zero()] * (arity - 1), 16)
        with pytest.raises(ExpOverflow):  # as exp of the target itself
            exp(big)

    def test_numpy_integer_step_count(self):
        a = from_descriptor("fn:3")
        rng = np.random.default_rng(173)
        x, y = random_element(a, rng), random_element(a, rng)
        assert np.array_equal(trotter_jordan(x, y, np.int64(12)).coeffs,
                              trotter_jordan(x, y, 12).coeffs)


class TestAssociativeIdentity:
    def test_b_zero(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(167)
        x = random_element(a, rng)
        assert associative_identity_check(x, a.zero(), 8) <= 1e-12

    def test_commuting(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(173)
        x = random_element(a, rng)
        assert associative_identity_check(x, 2.0 * x, 16) <= 1e-12

    def test_random_3x3(self):
        a = from_descriptor("matrix:3")
        rng = np.random.default_rng(179)
        x, y = random_element(a, rng), random_element(a, rng)
        assert associative_identity_check(x, y, 64) <= 1e-10

    def test_every_grid_n(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(181)
        x, y = random_element(a, rng), random_element(a, rng)
        for n in geometric_grid():
            assert associative_identity_check(x, y, n) <= 1e-10

    def test_non_matrix_rejected(self):
        s = from_descriptor("spin:3")
        with pytest.raises(UnsupportedAlgebra):
            associative_identity_check(s.one(), s.one(), 4)

    def test_mixed_algebras_rejected(self):
        m2, m3 = from_descriptor("matrix:2"), from_descriptor("matrix:3")
        with pytest.raises(AlgebraMismatch):
            associative_identity_check(m2.one(), m3.one(), 4)


class TestConvergenceReport:
    def test_commuting_inputs_exact(self):
        f = from_descriptor("fn:5")
        rng = np.random.default_rng(191)
        a, b = random_element(f, rng), random_element(f, rng)
        rep = convergence_report("jordan_product", {"a": a, "b": b},
                                 geometric_grid())
        assert rep.exact
        assert rep.fitted_slope is None
        # the formula is exact here; the unit-offset powering keeps the
        # rounding of the 4096-fold power near 1e-14, well inside this bound
        assert all(e <= 1e-11 for e in rep.errors)

    def test_commuting_formulae_exact_at_rounding_level(self):
        # criterion 05's fn:5 inputs: on a commutative algebra every formula
        # is exact, so each error is rounding and must stay below the floor
        f = from_descriptor("fn:5")
        rng = np.random.default_rng(505)
        for _ in range(10):
            params = {k: random_element(f, rng, norm_cap=1.0)
                      for k in ("a", "b", "c")}
            for formula in ("jordan_product", "U_single", "U_pair"):
                rep = convergence_report(formula, params, geometric_grid())
                assert rep.exact, formula
                assert all(e <= 1e-12 for e in rep.errors), formula

    def test_pauli_slope_second_order(self):
        # the Jordan product symmetrizes the splitting, so the observed
        # rate is O(1/n^2); freeze the empirically fitted slope
        a = from_descriptor("matrix:2")
        sx = a.element([0, 1, 1, 0])
        sz = a.element([1, 0, 0, -1])
        rep = convergence_report("jordan_product", {"a": sx, "b": sz},
                                 geometric_grid())
        assert rep.fitted_slope == pytest.approx(-2.0, abs=0.15)

    def test_monotone_decrease(self):
        for desc in FAMILIES:
            alg = from_descriptor(desc)
            rng = np.random.default_rng(193)
            a, b = random_element(alg, rng), random_element(alg, rng)
            rep = convergence_report("jordan_product", {"a": a, "b": b},
                                     geometric_grid())
            above = [e for e in rep.errors if e > 1e-12]
            assert all(x > y for x, y in zip(above, above[1:]))

    def test_error_contraction_over_grid(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(197)
        x, y = random_element(a, rng), random_element(a, rng)
        rep = convergence_report("U_single", {"a": x, "b": y},
                                 geometric_grid(16, 4096, 2))
        # n ratio 256 between ends; second-order decay gives far more
        # than the 100x contraction expected from slope near -1
        assert rep.errors[-1] < rep.errors[0] / 100

    def test_grid_validation(self):
        a = from_descriptor("fn:5")
        one = a.one()
        with pytest.raises(ValueError):
            convergence_report("jordan_product", {"a": one, "b": one},
                               [16, 32, 64, 128])
        with pytest.raises(ValueError, match="ratio >= 2"):
            convergence_report("jordan_product", {"a": one, "b": one},
                               [16, 32, 48, 96, 192, 384])
        with pytest.raises(ValueError):
            convergence_report("bogus", {"a": one, "b": one},
                               geometric_grid())
        # (1 + y)^n by binary powering never ends for n < 0
        with pytest.raises(ValueError, match="at least 1"):
            trotter.check_grid([-1024, -512, -256, -128, -64, -32])
        with pytest.raises(ValueError, match="at least 1"):
            convergence_report("jordan_product", {"a": one, "b": one},
                               [0] * 6)
        # float points were truncated: the first grid ran n = 16, 33, ...
        for grid in ([16.9, 33.5, 67.2, 134.9, 270, 541],
                     [16.0, 32, 64, 128, 256, 512]):
            with pytest.raises(ValueError, match="integers"):
                convergence_report("jordan_product", {"a": one, "b": one},
                                   grid)

    @pytest.mark.parametrize("desc", ["matrix:2", "spin:3",
                                      "sum:fn:2+matrix:2"])
    @pytest.mark.parametrize("grid", [geometric_grid(),
                                      (1, 3, 7, 15, 31, 100)])
    def test_errors_are_the_single_products_bitwise(self, desc, grid):
        # a report's one stacked pass over its grid takes each row through
        # the operations of the single-n product at that n
        a = from_descriptor(desc)
        rng = np.random.default_rng(307)
        x, y, z = (random_element(a, rng) for _ in range(3))
        singles = {
            "jordan_product": (x + y, lambda n: trotter_jordan(x, y, n)),
            "U_single": (2.0 * x + y, lambda n: trotter_U(x, y, n)),
            "U_pair": (x + y + z, lambda n: trotter_U_pair(x, y, z, n)),
        }
        for formula_id, (exponent, single) in singles.items():
            rep = convergence_report(formula_id, {"a": x, "b": y, "c": z},
                                     grid)
            target = exp(exponent)
            assert rep.n_grid == grid
            assert rep.errors == tuple((single(n) - target).norm
                                       for n in grid), formula_id

    @pytest.mark.parametrize("formula_id", sorted(FORMULAE))
    def test_one_expm1_call_per_report(self, formula_id, monkeypatch):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(311)
        params = {k: random_element(a, rng) for k in FORMULAE[formula_id][0]}
        calls = []
        original = trotter._expm1

        def counted(arg, algebra):
            calls.append(arg.shape)
            return original(arg, algebra)

        monkeypatch.setattr(trotter, "_expm1", counted)
        grid = geometric_grid()
        convergence_report(formula_id, params, grid)
        operands = len(FORMULAE[formula_id][2])
        assert calls == [(operands * len(grid), a.dim)]

    @pytest.mark.parametrize("label", ["matrix:3", "sum:fn:2+matrix:2"])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_expm1_stack_is_chunked(self, label, rows, monkeypatch):
        # at 1 or 2 rows a chunk each report keeps its bits, and no stack
        # of L_x, which _expm1 forms to scale its rows, exceeds the bound
        a = from_descriptor(label)
        rng = np.random.default_rng(317)
        params = {k: random_element(a, rng) for k in "abc"}
        grid = geometric_grid()

        def reports():
            return {formula_id: convergence_report(
                formula_id, {k: params[k] for k in FORMULAE[formula_id][0]},
                grid).errors for formula_id in FORMULAE}

        expected = reports()
        sizes = []
        kernel = calculus._mult_matrix

        def recorded(x, algebra):
            sizes.append(int(np.prod(x.shape[:-1])))
            return kernel(x, algebra)

        monkeypatch.setattr(calculus, "_mult_matrix", recorded)
        monkeypatch.setattr(algebra_module, "_STACK_ENTRIES",
                            rows * a.dim ** 2)
        assert reports() == expected
        assert max(sizes) == rows

    def test_non_finite_rows_are_refused_once_per_stack(self, monkeypatch):
        # the report wraps no row in an Element; one check over the rows
        # minus the target refuses a non-finite row as an Element would
        a = from_descriptor("fn:3")
        rng = np.random.default_rng(331)
        params = {"a": random_element(a, rng), "b": random_element(a, rng)}

        def rows(operands, n_grid, base):
            out = np.ones((len(n_grid), a.dim), dtype=complex)
            out[-1, 1] = np.nan
            return out

        monkeypatch.setattr(trotter, "_step", rows)
        with pytest.raises(StructureError, match="must be finite"):
            convergence_report("jordan_product", params, geometric_grid())

    def test_missing_parameter_is_named(self):
        # raised KeyError: 'c'; now the formula and the missing keys are
        # named before any work: these operands' sum would raise
        # AlgebraMismatch
        x = from_descriptor("fn:2").one()
        y = from_descriptor("spin:1").one()
        with pytest.raises(ValueError, match=r"'U_pair'.*missing c$"):
            convergence_report("U_pair", {"a": x, "b": y}, geometric_grid())
        with pytest.raises(ValueError, match=r"'U_single'.*missing a, b$"):
            convergence_report("U_single", {"c": x}, geometric_grid())

    def test_extra_parameters_are_ignored(self):
        a = from_descriptor("fn:3")
        rng = np.random.default_rng(317)
        params = {k: random_element(a, rng) for k in "abc"}
        grid = geometric_grid()
        rep = convergence_report("jordan_product", params, grid)
        assert rep == convergence_report(
            "jordan_product", {"a": params["a"], "b": params["b"]}, grid)

    def test_numpy_integer_grid(self):
        a = from_descriptor("fn:3")
        rng = np.random.default_rng(313)
        params = {"a": random_element(a, rng), "b": random_element(a, rng)}
        grid = geometric_grid()
        rep = convergence_report("jordan_product", params,
                                 np.array(grid, dtype=np.int64))
        assert rep == convergence_report("jordan_product", params, grid)


class TestGeneralTrotter:
    def test_exponential_curve_exact(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(211)
        x = random_element(a, rng)
        f = HolomorphicCurve(lambda z: exp(x * z), radius_r=2.0)
        plan = SequencePlan(lambda n: 1.0 / n, lambda n: float(n), 1.0)
        rep = general_trotter(f, plan, geometric_grid())
        assert all(e <= 1e-8 for e in rep.errors)

    def test_errors_past_the_squares_range_stay_finite(self):
        # 3^512 = 1.9e244: a plain sum of squares overflows at 1.3e154 and
        # gave the error inf with a RuntimeWarning; the curve is the base
        # [3, 0.5] off 0, so f'(0) ~ 0 and the errors are |base^n - 1|
        a = from_descriptor("fn:2")
        base = a.element([3.0, 0.5])
        f = HolomorphicCurve(lambda z: a.one() if z == 0 else base,
                             radius_r=np.inf)
        plan = SequencePlan(lambda n: 1.0 / n, lambda n: n, 1.0)
        grid = (16, 32, 64, 128, 256, 512)
        rep = general_trotter(f, plan, grid)
        assert rep.errors == pytest.approx(
            [np.hypot(3.0 ** n - 1.0, 0.5 ** n - 1.0) for n in grid],
            rel=1e-12)

    def test_entire_curve(self):
        # radius_r = inf: f'(0) is sampled at rho = 1
        a = from_descriptor("fn:2")
        x = a.element([0.3 - 0.1j, -0.7])
        f = HolomorphicCurve(lambda z: exp(x * z), radius_r=np.inf)
        plan = SequencePlan(lambda n: 1.0 / n, lambda n: float(n), 1.0)
        rep = general_trotter(f, plan, geometric_grid())
        assert rep.exact

    def test_remark_curve(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(223)
        xa, xb, xc, xd = (random_element(a, rng) for _ in range(4))
        d3 = jordan_power(xd, 3)
        one = a.one()

        def curve(z):
            z = complex(z)
            poly = one + xb * z + d3 * z ** 3
            return jordan_mul(jordan_mul(exp(xa * z), poly), cos(xc * z))

        f = HolomorphicCurve(curve, radius_r=1.0)
        plan = SequencePlan(lambda n: 1.0 / n, lambda n: float(n), 1.0)
        rep = general_trotter(f, plan, geometric_grid())
        target = exp(xa + xb)
        assert abs(rep.target_norm - target.norm) <= 1e-8
        assert rep.errors[-1] <= 2e-2

    def test_rescaled_plan(self):
        a = from_descriptor("spin:3")
        rng = np.random.default_rng(227)
        x = random_element(a, rng)
        f = HolomorphicCurve(lambda z: exp(x * z), radius_r=2.0)
        plan = SequencePlan(lambda n: 1.0 / n ** 2, lambda n: 3.0 * n ** 2,
                            3.0)
        rep = general_trotter(f, plan, geometric_grid())
        target = exp(3.0 * x)
        assert abs(rep.target_norm - target.norm) <= 1e-8
        # mu_n ~ 3n^2 multiplies log-rounding by ~5e7 at n=4096
        assert rep.errors[-1] <= 1e-7

    def test_matches_product_formulae(self):
        a = from_descriptor("matrix:2")
        rng = np.random.default_rng(229)
        xa, xb, xc = (random_element(a, rng) for _ in range(3))
        plan = SequencePlan(lambda n: 1.0 / n, lambda n: float(n), 1.0)
        n = 256

        curves = {
            "jordan_product": (
                lambda z: jordan_mul(exp(xa * z), exp(xb * z)),
                trotter_jordan(xa, xb, n),
            ),
            "U_single": (
                lambda z: U_operator(exp(xa * z)).apply(exp(xb * z)),
                trotter_U(xa, xb, n),
            ),
            "U_pair": (
                lambda z: U_pair_operator(exp(xa * z),
                                          exp(xc * z)).apply(exp(xb * z)),
                trotter_U_pair(xa, xb, xc, n),
            ),
        }
        from jordannum import power_mu
        for name, (curve, direct) in curves.items():
            via_curve = power_mu(curve(1.0 / n), float(n))
            assert (via_curve - direct).norm <= 1e-7 * max(direct.norm, 1.0), \
                name

    @pytest.mark.parametrize("grid", [
        [],                                   # was IndexError
        [0, 16, 32, 64, 128, 256],            # was ZeroDivisionError
        [-16, 16, 32, 64, 128, 256],          # was accepted
        [16, 16, 32, 64, 128, 256],           # repeated: was accepted
        [512, 256, 128, 64, 32, 16],          # descending: was accepted
        [16, 32, 64, 128, 256],               # five points: was accepted
        [16.9, 33.5, 67.2, 134.9, 270, 541],  # was truncated to 16, 33, ...
    ])
    def test_grid_is_checked(self, grid):
        # the same rules as convergence_report's grid (check_grid)
        a = from_descriptor("fn:2")
        x = a.element([0.3, -0.2])
        f = HolomorphicCurve(lambda z: exp(x * z), radius_r=2.0)
        plan = SequencePlan(lambda n: 1.0 / n, lambda n: float(n), 1.0)
        with pytest.raises(ValueError, match="grid"):
            general_trotter(f, plan, grid)

    def test_requires_unit_at_zero(self):
        a = from_descriptor("fn:5")
        f = HolomorphicCurve(lambda z: a.one() * 2.0, radius_r=1.0)
        plan = SequencePlan(lambda n: 1.0 / n, lambda n: float(n), 1.0)
        with pytest.raises(ValueError):
            general_trotter(f, plan, geometric_grid())

    @staticmethod
    def _cut_curve():
        # f(lambda) = [-1, 1] on fn:2 for lambda != 0: spectrum on the cut
        f_alg = from_descriptor("fn:2")
        one = f_alg.one()
        base = f_alg.element([-1.0, 1.0])

        def curve(z):
            return one if complex(z) == 0 else base

        return HolomorphicCurve(curve, radius_r=1.0), base

    def test_insufficient_data(self):
        # the curve hits the branch cut at every grid point, and mu_n is not
        # an integer, so every point takes the principal power and is skipped
        f, _ = self._cut_curve()
        plan = SequencePlan(lambda n: 1.0 / (n + 0.5), lambda n: n + 0.5, 1.0)
        with pytest.raises(InsufficientData):
            general_trotter(f, plan, geometric_grid())

    def test_integer_mu_crosses_the_cut(self):
        # at mu_n = n the plain power is defined on the cut: no point is
        # skipped, and the rows are the plain powers, [1, 1] at even n and
        # [-1, 1] at odd n
        f, base = self._cut_curve()
        plan = SequencePlan(lambda n: 1.0 / n, lambda n: float(n), 1.0)
        grid = (16, 33, 67, 135, 271, 543)
        rep = general_trotter(f, plan, grid)
        assert rep.skipped == () and rep.n_grid == grid
        target = exp(derivative_at_zero(f, rho=0.5))
        want = [(jordan_power(base, n) - target).norm for n in grid]
        assert rep.errors == pytest.approx(want, rel=1e-15, abs=1e-15)
        assert [round(e) for e in rep.errors] == [0, 2, 2, 2, 2, 2]


def _workload_curve(algebra, seed):
    """exp(a z) o (1 + b z + d^3 z^3) o cos(c z), with radius_r = 2."""
    rng = np.random.default_rng(seed)
    xa, xb, xc, xd = (random_element(algebra, rng, norm_cap=0.5)
                      for _ in range(4))
    d3 = jordan_power(xd, 3)
    one = algebra.one()

    def curve(z):
        poly = one + xb * z + d3 * z ** 3
        return jordan_mul(jordan_mul(exp(xa * z), poly), cos(xc * z))

    return HolomorphicCurve(curve, radius_r=2.0)


def _plain_power_row(base, k):
    """The integer path's row: 1 + ((1 + y)^k - 1), y = base - 1, powered
    alone with extended-precision sums and rounded to double."""
    algebra = base.algebra
    y = (base.coeffs - algebra.unit)[None].astype(np.clongdouble)
    wide = algebra_module._power(
        lambda u, v: calculus._offset_mul(u, v, algebra), y, (k,))[0]
    return (algebra.unit + wide).astype(complex)


class TestCurvePowerPaths:
    """Integer mu_n take one offset powering, the others ``power_mu``."""

    GRID = geometric_grid()

    def test_non_integer_plan_is_a_power_mu_loop(self):
        f = _workload_curve(from_descriptor("spin:3"), 3)
        plan = SequencePlan(lambda n: 1.0 / (n + 0.5), lambda n: n + 0.5, 1.0)
        rep = general_trotter(f, plan, self.GRID)
        target = exp(derivative_at_zero(f, rho=1.0) * 1.0)
        want = tuple((power_mu(f.eval(1.0 / (n + 0.5)), n + 0.5)
                      - target).norm for n in self.GRID)
        assert rep.errors == want  # bitwise
        assert rep.n_grid == self.GRID and rep.skipped == ()

    def test_mixed_plan_takes_each_path(self):
        f = _workload_curve(from_descriptor("spin:3"), 4)

        def mu(n):
            return float(n) if n % 64 == 0 else n + 0.5

        plan = SequencePlan(lambda n: 1.0 / mu(n), mu, 1.0)
        rep = general_trotter(f, plan, self.GRID)
        target = exp(derivative_at_zero(f, rho=1.0) * 1.0)
        for n, err in zip(rep.n_grid, rep.errors):
            base = f.eval(1.0 / mu(n))
            if n % 64 == 0:
                row = _plain_power_row(base, n)
            else:
                row = power_mu(base, mu(n)).coeffs
            assert err == float(np.linalg.norm(row - target.coeffs)), n

    def test_descending_integer_mu_are_put_back(self):
        # _power takes ascending exponents: the rows are sorted and restored
        f = _workload_curve(from_descriptor("matrix:2"), 5)
        mus = dict(zip(self.GRID, (4096, 1, 2048, 16, 512, 64, 8, 256, 32)))
        plan = SequencePlan(lambda n: 1.0 / n, lambda n: float(mus[n]),
                            1.0)
        rep = general_trotter(f, plan, self.GRID)
        target = exp(derivative_at_zero(f, rho=1.0) * 1.0)
        want = tuple(float(np.linalg.norm(
            _plain_power_row(f.eval(1.0 / n), mus[n]) - target.coeffs))
            for n in self.GRID)
        assert rep.errors == want

    @pytest.mark.parametrize("desc", ["matrix:2", "spin:3"])
    @pytest.mark.parametrize("lam, mu, limit", [
        (lambda n: 1.0 / n, lambda n: float(n), 1.0),
        (lambda n: 1.0 / n ** 2, lambda n: 3.0 * n ** 2, 3.0),
    ])
    def test_integer_rows_agree_with_power_mu(self, desc, lam, mu, limit):
        # on exp(x z) both paths power the same rounded base, each to within
        # a fraction of mu_n eps; the errors then differ by at most as much
        a = from_descriptor(desc)
        x = random_element(a, np.random.default_rng(239))
        f = HolomorphicCurve(lambda z: exp(x * z), radius_r=2.0)
        rep = general_trotter(f, SequencePlan(lam, mu, limit), self.GRID)
        target = exp(derivative_at_zero(f, rho=1.0) * limit)
        eps = np.finfo(float).eps
        for n, err in zip(self.GRID, rep.errors):
            principal = power_mu(f.eval(lam(n)), mu(n))
            assert (abs(err - (principal - target).norm)
                    <= 4.0 * mu(n) * eps * principal.norm), n

    @pytest.mark.parametrize("mu", [
        2.0 ** 53 + 2.0, 2 ** 53 + 1, 0, 0.0, -16, -16.0, 16.5, 16 + 1j,
        complex(16, 1e-300), float("nan"), float("inf"), "16",
    ])
    def test_not_an_integer_mu(self, mu):
        assert trotter._integer_mu(mu) is None

    @pytest.mark.parametrize("mu, k", [
        (16, 16), (np.int64(16), 16), (16.0, 16), (np.float64(16.0), 16),
        (complex(16, 0), 16), (complex(16, -0.0), 16), (1, 1),
        (3.0 * 4096 ** 2, 3 * 4096 ** 2), (2.0 ** 53, 2 ** 53),
        (2 ** 53, 2 ** 53),
    ])
    def test_integer_mu(self, mu, k):
        assert trotter._integer_mu(mu) == k

    @pytest.mark.parametrize("lam, mu, limit", [
        (lambda n: 1.0 / n, lambda n: 0.0, 0.0),
        (lambda n: 2.0 ** -60 / n, lambda n: 2.0 ** 60 * n, 1.0),
        (lambda n: 1.0 / n, lambda n: complex(n, 1.0), 1.0),
    ])
    def test_power_mu_takes_the_rest(self, monkeypatch, lam, mu, limit):
        calls = []

        def counted(a, m):
            calls.append(m)
            return power_mu(a, m)

        monkeypatch.setattr(trotter, "power_mu", counted)
        a = from_descriptor("fn:2")
        x = a.element([0.3 - 0.1j, -0.7])
        f = HolomorphicCurve(lambda z: exp(x * z), radius_r=2.0)
        general_trotter(f, SequencePlan(lam, mu, limit), self.GRID)
        assert calls == [mu(n) for n in self.GRID]

    @pytest.mark.parametrize("mu", [
        lambda n: float(n), lambda n: 3.0 * n ** 2,
    ])
    def test_power_that_overflows(self, mu):
        # 3^1024 overflows double: the powering's products do
        f_alg = from_descriptor("fn:2")
        one, base = f_alg.one(), f_alg.element([3.0, 0.5])
        f = HolomorphicCurve(lambda z: one if complex(z) == 0 else base,
                             radius_r=1.0)
        plan = SequencePlan(lambda n: 1.0 / mu(n), mu, 1.0)
        with pytest.raises(ExpOverflow):
            general_trotter(f, plan, self.GRID)

    def test_integer_plan_takes_no_log(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("power_mu called on an integer plan")

        monkeypatch.setattr(trotter, "power_mu", refuse)
        monkeypatch.setattr(calculus, "log", refuse)
        f = _workload_curve(from_descriptor("spin:3"), 0)
        plan = SequencePlan(lambda n: 1.0 / n ** 2, lambda n: 3.0 * n ** 2,
                            3.0)
        rep = general_trotter(f, plan, self.GRID)
        assert rep.n_grid == self.GRID and rep.skipped == ()
