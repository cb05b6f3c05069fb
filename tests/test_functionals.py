"""Tests for spectral-valued U-multiplicative functionals and reconstruction."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordannum import (
    AlgebraMismatch,
    BranchTrackingFailed,
    FunctionalHandle,
    NotSelfAdjoint,
    NotUMultiplicative,
    U_operator,
    UnsupportedAlgebra,
    ZeroFunctional,
    ZeroOnPath,
    affine_resolvent_check,
    characters,
    exp,
    from_descriptor,
    is_invertible,
    is_spectral_valued,
    is_U_multiplicative,
    jordan_mul,
    jordan_spectrum,
    linear_extension,
    pos_neg_parts,
    principal_component_sample,
    random_element,
    reconstruct_psi,
    unit_sign,
    verify_character_theorem,
)
from jordannum import algebra as algebra_module
from jordannum import calculus, functionals, spectral
from jordannum.errors import ExpOverflow, JordanNumError, StructureError
from test_algebra import legacy_random_element


def coordinate(algebra, i, sign=1.0):
    return FunctionalHandle(lambda x: sign * complex(x.coeffs[i]),
                            label=f"coord:{i}")


def homogeneity_check(f, x, lam):
    """|f(lam * x) - lam * f(x)|; small for any U-multiplicative f."""
    return abs(f(x * lam) - lam * f(x))


def oracle_principal_sample(algebra, depth, seed):
    """The per-sample principal_component_sample: one exp and one
    U_operator(..).apply per level."""
    rng = np.random.default_rng(seed)
    out = algebra.one()
    for _ in range(depth):
        a = random_element(algebra, rng, norm_cap=1.0)
        out = U_operator(exp(a)).apply(out)
    assert is_invertible(out)
    return out


def oracle_vetting(f, algebra, seed=0, n_samples=20):
    """verify_character_theorem with one kernel call per element: one path
    per reconstruct_psi, one exp per sample, one principal sample per seed
    and one U_operator(x).apply(y) per pair."""
    rng = np.random.default_rng(seed)
    report = functionals.CharacterReport(label=f.label)
    report.unit_value = f(algebra.one())
    samples = [random_element(algebra, rng) for _ in range(n_samples)]
    pairs = [(random_element(algebra, rng), random_element(algebra, rng))
             for _ in range(n_samples)]
    spectra = [jordan_spectrum(x) for x in samples]
    largest = functionals._largest
    report.spectral_residual = largest([s.distance(f(x))
                                        for s, x in zip(spectra, samples)])
    report.U_mult_residual = largest(
        [abs(f(U_operator(x).apply(y)) - f(x) ** 2 * f(y)) for x, y in pairs])
    for name, what in functionals._RESIDUALS[:2]:
        if not getattr(report, name) <= 1e-6:
            report.failures.append(
                f"not {what} (residual {getattr(report, name):.3e})")
    try:
        sign = unit_sign(f, algebra)
    except (ZeroFunctional, NotUMultiplicative) as exc:
        report.failures.append(f"unit sign: {exc}")
        return report
    if sign != 1:
        report.failures.append("unit sign is -1; apply the dichotomy to -f")
        return report
    if not report.passed:
        return report

    def psi(el):
        return complex(psi_coeffs @ el.coeffs)

    lin_res = []
    try:
        psi_coeffs = np.array([reconstruct_psi(f, algebra.basis_element(i))
                               for i in range(algebra.dim)], dtype=complex)
        for _ in range(max(4, n_samples // 4)):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            beta = complex(rng.standard_normal(), rng.standard_normal())
            combo = x * alpha + y * beta
            lin_res.append(abs(reconstruct_psi(f, combo) - psi(combo)))
    except JordanNumError as exc:
        report.failures.append(f"psi tracking: {exc}")
        return report
    report.linearity_residual = largest(lin_res)
    report.spectrum_membership_residual = largest(
        [s.distance(psi(x)) for s, x in zip(spectra, samples)])
    report.exp_agreement_residual = largest(
        [abs(f(exp(x)) - cmath.exp(psi(x))) for x in samples])
    report.multiplicativity_residual = largest(
        [abs(psi(jordan_mul(x, y)) - psi(x) * psi(y)) for x, y in pairs])
    princ_res = []
    for _ in range(n_samples):
        s = oracle_principal_sample(algebra, 2, int(rng.integers(2 ** 31)))
        princ_res.append(abs(f(s) - psi(s)))
    report.principal_agreement_residual = largest(princ_res)
    for name, what in functionals._RESIDUALS[2:]:
        value = getattr(report, name)
        if not value <= 1e-6:
            report.failures.append(f"{what} residual {value:.3e} > 1.0e-06")
    return report


def exact_lines(report):
    """The report's lines, with every residual as its exact bits."""
    return list(report.as_lines()) + [
        float(getattr(report, name)).hex()
        for name, _ in functionals._RESIDUALS]


def outcome(vet, *args):
    """``exact_lines`` of the report, or the error's type and message."""
    try:
        return exact_lines(vet(*args))
    except JordanNumError as exc:
        return [type(exc).__name__, str(exc)]


def nan_coordinate(where):
    """Coordinate 0, but NaN wherever ``where(x_0)`` holds."""
    def value(x):
        x0 = complex(x.coeffs[0])
        return complex("nan") if where(x0) else x0

    return FunctionalHandle(value, label="nan-coord:0")


class TestCharacters:
    def test_enumeration(self):
        a = from_descriptor("fn:3")
        chars = characters(a)
        assert len(chars) == 3
        x = a.element([1.0, 2.0 + 1j, -3.0])
        assert [f(x) for f in chars] == [1.0, 2.0 + 1j, -3.0]

    def test_labels(self):
        a = from_descriptor("fn:2")
        assert [f.label for f in characters(a)] == ["char:0", "char:1"]

    def test_matrix_rejected(self):
        with pytest.raises(UnsupportedAlgebra):
            characters(from_descriptor("matrix:2"))


class TestSpectralValued:
    def test_character_passes(self):
        a = from_descriptor("fn:4")
        rng = np.random.default_rng(3)
        samples = [random_element(a, rng) for _ in range(30)]
        residual, ok = is_spectral_valued(coordinate(a, 2), samples)
        assert ok
        assert residual <= 1e-10

    def test_normalized_trace_fails(self):
        # tr(x)/2 averages the two eigenvalues, which is generically off
        # the two-point spectrum of a 2x2 matrix
        a = from_descriptor("matrix:2")
        trace = FunctionalHandle(
            lambda x: 0.5 * complex(x.coeffs[0] + x.coeffs[3]))
        rng = np.random.default_rng(11)
        samples = [random_element(a, rng) for _ in range(200)]
        residual, ok = is_spectral_valued(trace, samples)
        assert not ok
        assert residual > 1e-2

    def test_empty_samples(self):
        a = from_descriptor("fn:2")
        with pytest.raises(ValueError):
            is_spectral_valued(coordinate(a, 0), [])

    def test_samples_share_one_algebra(self):
        # the spectra are one stacked pass, so every sample is in one algebra
        a, b = from_descriptor("fn:2"), from_descriptor("spin:1")
        with pytest.raises(AlgebraMismatch):
            is_spectral_valued(coordinate(a, 0), [a.one(), b.one()])

    @pytest.mark.parametrize("label", ["fn:3", "fn:4", "sum:fn:2+matrix:2",
                                       "matrix:2"])
    def test_results_are_the_single_spectra_bitwise(self, label):
        # the per-sample form: one jordan_spectrum per sample
        a = from_descriptor(label)
        fs = [coordinate(a, 0), coordinate(a, a.dim - 1),
              FunctionalHandle(lambda x: 0.5 * complex(x.coeffs[0]
                                                       + x.coeffs[-1]))]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            samples = [random_element(a, rng) for _ in range(12)]
            samples += [a.zero(), 3.0 * a.one(), samples[0] * 1e200]
            for f in fs:
                want = functionals._largest(
                    [jordan_spectrum(x).distance(f(x)) for x in samples])
                residual, ok = is_spectral_valued(f, samples)
                assert float(residual).hex() == float(want).hex()
                assert ok == (want <= 1e-8)

    def test_nan_after_first_sample_fails(self):
        # max(0.0, nan) is 0.0, so a running max drops a NaN that is not
        # first
        a = from_descriptor("fn:3")
        f = nan_coordinate(lambda x0: x0.real >= 1.5)
        samples = [a.element([1.0, 0.0, 0.0]), a.element([2.0, 0.0, 0.0])]
        residual, ok = is_spectral_valued(f, samples)
        assert np.isnan(residual)
        assert not ok


class TestUMultiplicative:
    def test_character_passes(self):
        a = from_descriptor("fn:3")
        rng = np.random.default_rng(5)
        pairs = [(random_element(a, rng), random_element(a, rng))
                 for _ in range(30)]
        residual, ok = is_U_multiplicative(coordinate(a, 1), pairs)
        assert ok

    def test_squared_character_passes(self):
        # f(x) = x_0^2 satisfies f(U_x(y)) = (x_0^2 y_0)^2 = f(x)^2 f(y)
        # even though it is not linear; on ((2,.),(3,.)) both sides are 144
        a = from_descriptor("fn:2")
        f = FunctionalHandle(lambda x: complex(x.coeffs[0]) ** 2)
        x = a.element([2.0, 1.0])
        y = a.element([3.0, 1.0])
        lhs = f(U_operator(x).apply(y))
        assert lhs == pytest.approx(144.0)
        residual, ok = is_U_multiplicative(f, [(x, y)])
        assert ok

    def test_sum_of_coordinates_fails(self):
        a = from_descriptor("fn:2")
        f = FunctionalHandle(lambda x: complex(x.coeffs[0] + x.coeffs[1]))
        x = a.element([1.0, 2.0])
        y = a.element([1.0, 1.0])
        residual, ok = is_U_multiplicative(f, [(x, y)])
        assert not ok

    def test_pairs_share_one_algebra(self):
        # the U_x(y) are one stack, so every x and y is in one algebra
        a, b = from_descriptor("fn:2"), from_descriptor("spin:1")
        with pytest.raises(AlgebraMismatch):
            is_U_multiplicative(coordinate(a, 0),
                                [(a.one(), a.one()), (b.one(), b.one())])
        with pytest.raises(AlgebraMismatch):
            is_U_multiplicative(coordinate(a, 0), [(a.one(), b.one())])

    def test_nan_after_first_pair_fails(self):
        # U_1(1) = 1 gives residual 0; U_{2*1}(1) = 4 is where f is NaN
        a = from_descriptor("fn:3")
        f = nan_coordinate(lambda x0: x0.real >= 1.5)
        one = a.one()
        residual, ok = is_U_multiplicative(f, [(one, one), (2.0 * one, one)])
        assert np.isnan(residual)
        assert not ok


class TestUnitSign:
    def test_positive(self):
        a = from_descriptor("fn:3")
        assert unit_sign(coordinate(a, 0), a) == 1

    def test_negative(self):
        a = from_descriptor("fn:3")
        assert unit_sign(coordinate(a, 0, sign=-1.0), a) == -1

    def test_zero_raises(self):
        a = from_descriptor("fn:3")
        zero = FunctionalHandle(lambda x: 0.0)
        with pytest.raises(ZeroFunctional):
            unit_sign(zero, a)

    def test_non_finite_unit_value_raises(self):
        a = from_descriptor("fn:3")
        nan = FunctionalHandle(lambda x: complex("nan"))
        with pytest.raises(NotUMultiplicative):
            unit_sign(nan, a)

    def test_other_value_raises(self):
        a = from_descriptor("fn:3")
        double = FunctionalHandle(lambda x: 2.0 * complex(x.coeffs[0]))
        with pytest.raises(NotUMultiplicative):
            unit_sign(double, a)


class TestReconstructPsi:
    def test_character_is_recovered_exactly(self):
        a = from_descriptor("fn:3")
        x = a.element([0.3 - 0.2j, -1.1, 0.5j])
        for i in range(3):
            psi = reconstruct_psi(coordinate(a, i), x)
            assert abs(psi - x.coeffs[i]) <= 1e-9

    def test_zero_element(self):
        a = from_descriptor("fn:2")
        psi = reconstruct_psi(coordinate(a, 0), a.element([0.0, 0.0]))
        assert abs(psi) <= 1e-12

    def test_winding_coordinate(self):
        # f(exp(x)) = e^{2 pi i} = 1, yet the tracked branch must report
        # psi = 2 pi i rather than log(1) = 0
        a = from_descriptor("fn:2")
        x = a.element([2j * np.pi, 0.0])
        psi = reconstruct_psi(coordinate(a, 0), x)
        assert abs(psi - 2j * np.pi) <= 1e-8

    def test_large_imaginary_part(self):
        a = from_descriptor("fn:2")
        x = a.element([0.5 + 40j, 0.0])
        psi = reconstruct_psi(coordinate(a, 0), x)
        assert abs(psi - (0.5 + 40j)) <= 1e-7

    @pytest.mark.parametrize("imag, steps", [(40.0, 64), (150.0, 128)])
    def test_each_path_point_evaluated_once(self, imag, steps):
        # 150 / 64 rad a step is above the pi / 2 limit: one doubling
        a = from_descriptor("fn:2")
        calls = []

        def counted(y):
            calls.append(y)
            return complex(y.coeffs[0])

        psi = reconstruct_psi(FunctionalHandle(counted),
                              a.element([imag * 1j, 0.0]))
        assert abs(psi - imag * 1j) <= 1e-7
        assert len(calls) == steps + 1

    def test_non_finite_value_on_path_raises(self):
        # NaN fails every comparison, so it must be caught before them
        a = from_descriptor("fn:2")
        nan_once = FunctionalHandle(
            lambda x: complex("nan") if 0.4 < x.coeffs[0].real < 0.45
            else complex(x.coeffs[0]))
        with pytest.raises(BranchTrackingFailed):
            reconstruct_psi(nan_once, a.element([-2.0, 0.0]))

    def test_zero_on_path(self):
        a = from_descriptor("fn:2")
        zero = FunctionalHandle(lambda x: 0.0)
        with pytest.raises(ZeroOnPath):
            reconstruct_psi(zero, a.element([1.0, 0.0]))

    def test_inconsistent_functional(self):
        # a functional whose value at t=1 contradicts the tracked branch
        a = from_descriptor("fn:2")
        bad = FunctionalHandle(
            lambda x: complex(x.coeffs[0]) if abs(x.coeffs[0] - 1.0) > 0.9
            else complex(x.coeffs[0]) + 3.0)
        with pytest.raises(BranchTrackingFailed):
            reconstruct_psi(bad, a.element([2.0, 0.0]))


class TestLinearExtension:
    def test_character_coefficients(self):
        a = from_descriptor("fn:3")
        coeffs = linear_extension(coordinate(a, 1), a)
        assert np.allclose(coeffs, [0.0, 1.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("on_path_1, on_path_2, error", [
        ("zero", "nan", ZeroOnPath),
        ("nan", "zero", BranchTrackingFailed),
        ("zero", "raise", ZeroOnPath),
        ("raise", "zero", LookupError),
    ])
    def test_first_failing_path_raises(self, on_path_1, on_path_2, error):
        # exp(t e_k) on fn:3 moves coordinate k alone: f fails one way on
        # basis path 1 and another on basis path 2, and the paths are
        # tracked together, yet the error raised is path 1's, as in a
        # loop of reconstruct_psi calls
        a = from_descriptor("fn:3")

        def value(x):
            for k, kind in ((1, on_path_1), (2, on_path_2)):
                if x.coeffs[k] != 1.0:
                    if kind == "raise":
                        raise LookupError(f"f fails on path {k}")
                    return 0.0 if kind == "zero" else complex("nan")
            return complex(x.coeffs[0])

        f = FunctionalHandle(value)
        with pytest.raises(error):
            [reconstruct_psi(f, a.basis_element(i)) for i in range(3)]
        with pytest.raises(error):
            linear_extension(f, a)

    def test_overflowing_path_raises_in_list_order(self):
        # exp(800 e_0) overflows: the stacked exp raises for both paths, so
        # each is tracked on its own, and the first failing path's error
        # is raised, whichever it is
        a = from_descriptor("fn:2")
        small, big = a.element([0.5, 0.0]), a.element([800.0, 0.0])
        zero_off_unit = FunctionalHandle(
            lambda x: 0.0 if x.coeffs[0] != 1.0 else 1.0)
        with pytest.raises(ZeroOnPath):
            functionals._track(zero_off_unit, [small, big])
        with pytest.raises(ExpOverflow):
            functionals._track(zero_off_unit, [big, small])
        with pytest.raises(ExpOverflow):
            functionals._track(coordinate(a, 0), [small, big])

    def test_paths_tracked_together_are_each_tracked_alone(self):
        # 40, 150 and 300 rad need 64, 128 and 256 steps: each path doubles
        # only as often as it would alone, and gets the same bits
        a = from_descriptor("fn:2")
        xs = [a.element([v, 0.5]) for v in (40j, 0.3 + 150j, 0.0, -300j)]
        calls = []

        def counted(y):
            calls.append(y)
            return complex(y.coeffs[0])

        f = FunctionalHandle(counted)
        alone = [reconstruct_psi(f, x) for x in xs]
        n_alone = len(calls)
        assert functionals._track(f, xs) == alone
        assert len(calls) - n_alone == n_alone == 65 + 129 + 65 + 257


class TestHomogeneity:
    @pytest.mark.parametrize("lam", [1.0, 0.0, -4.0, 2.0 - 1.5j])
    def test_character(self, lam):
        a = from_descriptor("fn:3")
        x = a.element([0.7, -0.2 + 1j, 3.0])
        assert homogeneity_check(coordinate(a, 2), x, lam) <= 1e-10


class TestAffineResolvent:
    def test_zero_element(self):
        a = from_descriptor("fn:3")
        grid = [2.0, -3.0, 1j, 5.0 - 5.0j]
        residual, skipped = affine_resolvent_check(
            coordinate(a, 0), 0.0, a.element([0.0, 0.0, 0.0]), grid)
        assert residual <= 1e-10
        assert skipped == []

    def test_function_algebra(self):
        a = from_descriptor("fn:3")
        x = a.element([1.0, 2.0 + 1j, -0.5])
        residual, skipped = affine_resolvent_check(
            coordinate(a, 1), 2.0 + 1j, x, [10.0, -7.0, 3.0j])
        assert residual <= 1e-9

    def test_on_spectrum_point_skipped(self):
        a = from_descriptor("fn:2")
        x = a.element([1.0, 2.0])
        residual, skipped = affine_resolvent_check(
            coordinate(a, 0), 1.0, x, [1.0, 5.0])
        assert skipped == [1.0]
        assert residual <= 1e-9
        # every point skipped: nothing is checked and the residual is 0.0
        assert affine_resolvent_check(coordinate(a, 0), 1.0, x,
                                      [1.0, 2.0]) == (0.0, [1.0, 2.0])

    def test_real_line_spectrum_allows_interior_points(self):
        # a Hermitian element has real spectrum; every off-spectrum lam is
        # checked, even ones near the middle of the range
        a = from_descriptor("matrix:3")
        rng = np.random.default_rng(17)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = 0.5 * (m + m.conj().T)
        x = a.element(h.reshape(9))
        _, skipped = affine_resolvent_check(
            FunctionalHandle(lambda e: 0.0), 0.0, x, [1j, 0.5j])
        assert skipped == []

    def test_centroid_of_spectrum_is_checked(self):
        # the spectrum's centroid is 0, inside the triangle of its points;
        # off the spectrum, lam*1 - x is invertible and principal
        a = from_descriptor("fn:3")
        x = a.element([1.0, -0.5 + 0.8j, -0.5 - 0.8j])
        residual, skipped = affine_resolvent_check(
            coordinate(a, 1), -0.5 + 0.8j, x, [0.0, 0.1 + 0.1j, 5.0, 1.0])
        assert skipped == [1.0]
        assert residual <= 1e-9

    def test_enclosed_point_of_matrix_spectrum_is_checked(self):
        # 0.2i lies inside the triangle 1, i, -1-i; the (1, 1) entry is
        # f(lam*1 - x) = lam - i on diagonal elements
        a = from_descriptor("matrix:3")
        x = a.element(np.diag([1.0, 1j, -1.0 - 1j]).reshape(9))
        residual, skipped = affine_resolvent_check(
            coordinate(a, 4), 1j, x, [0.2j])
        assert skipped == []
        assert residual <= 1e-9

    def test_nan_residual_is_kept(self):
        # f(2*1 - 0) is NaN; a running max from 0.0 dropped it and gave 0.0
        a = from_descriptor("fn:2")
        residual, skipped = affine_resolvent_check(
            nan_coordinate(lambda x0: abs(x0) > 1.5), 0.0,
            a.element([0.0, 0.0]), [1.0, 2.0])
        assert np.isnan(residual)
        assert skipped == []

    @settings(derandomize=True, max_examples=150, database=None,
              deadline=None)
    @given(k=st.integers(2, 5), data=st.data())
    def test_skips_exactly_the_spectrum(self, k, data):
        a = from_descriptor(f"fn:{k}")
        z = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                               allow_infinity=False)
        coeffs = data.draw(st.lists(z, min_size=k, max_size=k))
        x = a.element(coeffs)
        # a free lam, one at or near a spectrum point, and the centroid
        near = data.draw(st.sampled_from(coeffs)) + data.draw(
            st.sampled_from([0.0, 1e-9, 1e-3j, -0.1]))
        grid = [data.draw(z), near, sum(coeffs) / k]
        j = data.draw(st.integers(0, k - 1))
        residual, skipped = affine_resolvent_check(
            coordinate(a, j), complex(x.coeffs[j]), x, grid)
        spec = jordan_spectrum(x)
        assert skipped == [lam for lam in grid
                           if spec.distance(lam) <= spec.dedupe_tol]
        assert residual <= 1e-9


class TestPosNegParts:
    def test_diagonal_example(self):
        a = from_descriptor("matrix:2")
        x = a.element([2.0, 0.0, 0.0, -3.0])
        pos, neg = pos_neg_parts(x)
        assert np.allclose(pos.coeffs, [2.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(neg.coeffs, [0.0, 0.0, 0.0, 3.0], atol=1e-12)

    def test_psd_input_has_zero_negative_part(self):
        a = from_descriptor("matrix:2")
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        pos, neg = pos_neg_parts(a.element(m.reshape(4)))
        assert neg.norm <= 1e-12
        assert np.allclose(pos.coeffs, m.reshape(4), atol=1e-12)

    def test_random_hermitian(self):
        a = from_descriptor("matrix:3")
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = 0.5 * (m + m.conj().T)
            x = a.element(h.reshape(9))
            pos, neg = pos_neg_parts(x)
            assert (x - (pos - neg)).norm <= 1e-9
            for part in (pos, neg):
                evals = np.linalg.eigvalsh(part.coeffs.reshape(3, 3))
                assert evals.min() >= -1e-9
            cross = U_operator(pos).apply(neg)
            assert cross.norm <= 1e-8 * max(x.norm ** 2, 1.0)

    def test_not_hermitian(self):
        a = from_descriptor("matrix:2")
        with pytest.raises(NotSelfAdjoint):
            pos_neg_parts(a.element([0.0, 1.0, 0.0, 0.0]))

    def test_wrong_family(self):
        a = from_descriptor("fn:3")
        with pytest.raises(UnsupportedAlgebra):
            pos_neg_parts(a.element([1.0, 2.0, 3.0]))


class TestPrincipalComponentSample:
    def test_invertible_and_off_spectrum_origin(self):
        for label in ("fn:3", "matrix:2", "spin:4"):
            a = from_descriptor(label)
            s = principal_component_sample(a, depth=2, seed=7)
            assert is_invertible(s)
            assert jordan_spectrum(s).distance(0.0) > 1e-8

    def test_depth_one_matches_exp(self):
        # U_{exp(a)}(1) = exp(a)^2 = exp(2a); check on a function algebra
        # where the draw is reproducible
        a = from_descriptor("fn:4")
        rng = np.random.default_rng(9)
        el = random_element(a, rng, norm_cap=1.0)
        expected = exp(el * 2.0)
        got = U_operator(exp(el)).apply(a.one())
        assert (expected - got).norm <= 1e-10

    def test_non_invertible_sample_raises(self, monkeypatch):
        # no H clears a relative singular-value floor above 1
        monkeypatch.setattr(spectral, "DEFAULT_COND_TOL", 2.0)
        with pytest.raises(JordanNumError, match="unexpectedly non-invert"):
            principal_component_sample(from_descriptor("fn:3"), 2, 0)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            principal_component_sample(from_descriptor("fn:2"), depth=0,
                                       seed=0)


class TestVerifyCharacterTheorem:
    def test_fn4_characters_pass(self):
        a = from_descriptor("fn:4")
        for f in characters(a):
            report = verify_character_theorem(f, a, seed=1, n_samples=8)
            assert report.passed, report.failures
            assert report.spectral_residual <= 1e-6
            assert report.U_mult_residual <= 1e-6
            assert report.linearity_residual <= 1e-6
            assert report.exp_agreement_residual <= 1e-6
            assert report.multiplicativity_residual <= 1e-6
            assert report.principal_agreement_residual <= 1e-6

    def test_block_character_on_direct_sum(self):
        a = from_descriptor("sum:fn:2+matrix:2")
        report = verify_character_theorem(coordinate(a, 1), a, seed=2,
                                          n_samples=8)
        assert report.passed, report.failures

    def test_trace_fails_spectral(self):
        a = from_descriptor("matrix:2")
        trace = FunctionalHandle(
            lambda x: 0.5 * complex(x.coeffs[0] + x.coeffs[3]), label="tr/2")
        report = verify_character_theorem(trace, a, seed=3, n_samples=20)
        assert not report.passed
        assert any("not spectral-valued" in msg for msg in report.failures)

    def test_negated_character_routed_to_dichotomy(self):
        a = from_descriptor("fn:3")
        neg = coordinate(a, 0, sign=-1.0)
        report = verify_character_theorem(neg, a, seed=4, n_samples=8)
        assert not report.passed
        assert any("unit sign is -1" in msg for msg in report.failures)
        flipped = FunctionalHandle(lambda x: -neg(x), label="flipped")
        again = verify_character_theorem(flipped, a, seed=4, n_samples=8)
        assert again.passed, again.failures

    def test_random_linear_non_character_fails(self):
        # Gleason-Kahane-Zelazko direction: a linear functional that is
        # spectral-valued must be a character, so a generic linear
        # functional reveals itself on few draws
        a = from_descriptor("fn:3")
        rng = np.random.default_rng(31)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = FunctionalHandle(lambda x: complex(w @ x.coeffs))
        samples = [random_element(a, rng) for _ in range(200)]
        _, ok = is_spectral_valued(f, samples)
        assert not ok

    def test_report_lines(self):
        a = from_descriptor("fn:2")
        report = verify_character_theorem(coordinate(a, 0), a, seed=5,
                                          n_samples=4)
        lines = list(report.as_lines())
        assert lines[-1] == "passed=True"
        assert any(line.startswith("exp_agreement_residual=")
                   for line in lines)

    def test_one_spectrum_per_sample(self, monkeypatch):
        # both the spectral-valued and the spectrum-membership residuals
        # read the same spectra: one stacked pass over the 6 samples
        a = from_descriptor("sum:fn:2+matrix:2")
        f = coordinate(a, 1)
        expected = verify_character_theorem(f, a, seed=6, n_samples=6)
        calls = []
        spectra = functionals._spectra

        def counted(x, algebra):
            calls.append(x.copy())
            return spectra(x, algebra)

        monkeypatch.setattr(functionals, "_spectra", counted)
        report = verify_character_theorem(f, a, seed=6, n_samples=6)
        monkeypatch.undo()
        assert [len(stack) for stack in calls] == [6]
        assert list(report.as_lines()) == list(expected.as_lines())
        samples = [a.element(row) for row in calls[0]]
        residual, _ = is_spectral_valued(f, samples)
        assert report.spectral_residual == residual

    def test_no_samples(self):
        a = from_descriptor("fn:2")
        with pytest.raises(ValueError, match="at least one sample"):
            verify_character_theorem(coordinate(a, 0), a, n_samples=0)

    def test_nan_residual_fails(self):
        # f is NaN only where |x_0| > 3: at 2 of the 20 principal-component
        # samples of seed 0, and at no sample of the earlier checks
        a = from_descriptor("fn:3")
        f = nan_coordinate(lambda x0: abs(x0) > 3)
        report = verify_character_theorem(f, a, seed=0)
        assert np.isnan(report.principal_agreement_residual)
        assert report.failures == [
            "principal-component agreement residual nan > 1.0e-06"]
        assert not report.passed


class TestStackedVetting:
    """The vetting's stacks: the path tracker over the basis and the
    linearity combinations, one exp over the samples, the principal samples
    and the U-applies, each row bitwise its single call."""

    @pytest.mark.parametrize("label", ["fn:3", "fn:4", "sum:fn:2+matrix:2"])
    def test_characters_match_the_oracle_bitwise(self, label):
        a = from_descriptor(label)
        for seed in range(4):
            for n_samples in (1, 6, 20):
                f = coordinate(a, seed % 2)
                report = verify_character_theorem(f, a, seed, n_samples)
                assert report.passed, report.failures
                assert exact_lines(report) == exact_lines(
                    oracle_vetting(f, a, seed, n_samples))

    @pytest.mark.parametrize("label, f", [
        ("matrix:2", FunctionalHandle(
            lambda x: 0.5 * complex(x.coeffs[0] + x.coeffs[3]), label="tr")),
        ("fn:3", coordinate(None, 0, sign=-1.0)),
        ("fn:3", nan_coordinate(lambda x0: abs(x0) > 3)),
    ], ids=["trace", "negated", "nan"])
    def test_failing_functionals_match_the_oracle_bitwise(self, label, f):
        # the NaN coordinate fails a reported residual at some seeds and
        # its ψ tracking at others, the same way in both
        a = from_descriptor(label)
        for seed in range(4):
            got = outcome(verify_character_theorem, f, a, seed)
            assert "passed=True" not in got
            assert got == outcome(oracle_vetting, f, a, seed)

    @pytest.mark.parametrize("label", ["fn:3", "fn:4", "sum:fn:2+matrix:2",
                                       "matrix:2"])
    def test_reports_match_the_oracle_bitwise(self, label):
        # passing and failing functionals; the oracle takes one spectrum
        # and one invertibility check per sample
        a = from_descriptor(label)
        fs = [coordinate(a, 0), coordinate(a, a.dim - 1, sign=-1.0),
              FunctionalHandle(lambda x: 0.5 * complex(x.coeffs[0]
                                                       + x.coeffs[-1]),
                               label="mean")]
        for seed in (0, 5, 11):
            for f in fs:
                got = outcome(verify_character_theorem, f, a, seed)
                assert got == outcome(oracle_vetting, f, a, seed)

    @pytest.mark.parametrize("label", ["fn:3", "fn:4", "sum:fn:2+matrix:2",
                                       "spin:3", "matrix:3"])
    def test_principal_rows_are_the_single_samples(self, label):
        a = from_descriptor(label)
        seeds = [0, 7, 99, 12345, 2 ** 31 - 1]
        for depth in (1, 2, 3):
            rows = functionals._principal_samples(a, depth, seeds)
            for seed, row in zip(seeds, rows):
                single = principal_component_sample(a, depth, seed)
                assert np.array_equal(row.coeffs, single.coeffs)
                assert np.array_equal(
                    single.coeffs,
                    oracle_principal_sample(a, depth, seed).coeffs)

    def test_exp_stacks_do_not_grow_with_samples(self, monkeypatch):
        # one path pass (no character path doubles), one stack for the exp
        # agreement and one for the principal samples, at any n_samples
        a = from_descriptor("fn:3")
        exp_rows = functionals._exp_rows
        counts = []
        for n_samples in (8, 20):
            calls = []

            def counted(rows, algebra):
                calls.append(len(rows))
                return exp_rows(rows, algebra)

            monkeypatch.setattr(functionals, "_exp_rows", counted)
            report = verify_character_theorem(coordinate(a, 1), a, seed=3,
                                              n_samples=n_samples)
            assert report.passed, report.failures
            counts.append(len(calls))
        assert counts == [3, 3]

    @pytest.mark.parametrize("label", ["fn:3", "sum:fn:2+matrix:2"])
    def test_every_stack_is_chunked(self, label, monkeypatch):
        # at 3 rows a chunk every stack spans several chunks; the report
        # keeps its bits, and no stack of L_x, where the exps and the
        # U-applies form it, has more than 3 rows
        a = from_descriptor(label)
        f = coordinate(a, 0)
        expected = exact_lines(verify_character_theorem(f, a, seed=8,
                                                        n_samples=8))
        sizes = {}
        for module in (calculus, algebra_module):
            def recorded(x, algebra, name=module.__name__,
                         kernel=module._mult_matrix):
                sizes.setdefault(name, []).append(
                    int(np.prod(x.shape[:-1])))
                return kernel(x, algebra)

            monkeypatch.setattr(module, "_mult_matrix", recorded)
        monkeypatch.setattr(algebra_module, "_STACK_ENTRIES", 3 * a.dim ** 2)
        report = verify_character_theorem(f, a, seed=8, n_samples=8)
        assert exact_lines(report) == expected
        assert {name: max(n) for name, n in sizes.items()} == {
            "jordannum.calculus": 3, "jordannum.algebra": 3}


class TestVettingRows:
    """The vetting draws its samples and pairs as stacks and hands f the
    rows that its kernels made, wrapped without a per-row check."""

    def test_pairs_are_the_draws_after_the_samples(self, monkeypatch):
        # pair i is rows 2i and 2i + 1: the pairs that one-row draws after
        # the n samples' would give, in order
        a = from_descriptor("sum:fn:2+matrix:2")
        seen = []

        def recorded(f, pairs):
            seen.append(pairs)
            return is_U_multiplicative(f, pairs)

        monkeypatch.setattr(functionals, "is_U_multiplicative", recorded)
        for n_samples in (1, 6):
            verify_character_theorem(coordinate(a, 0), a, 4, n_samples)
            rng = np.random.default_rng(4)
            for _ in range(n_samples):
                legacy_random_element(a, rng)
            want = [(legacy_random_element(a, rng),
                     legacy_random_element(a, rng))
                    for _ in range(n_samples)]
            got = seen.pop()
            assert len(got) == n_samples
            for (x, y), (wx, wy) in zip(got, want):
                assert np.array_equal(x.coeffs, wx.coeffs)
                assert np.array_equal(y.coeffs, wy.coeffs)

    @pytest.mark.parametrize("label", ["fn:3", "spin:3", "matrix:2"])
    def test_principal_samples_are_the_written_out_draws(self, label):
        a = from_descriptor(label)
        for seed in (0, 3, 2 ** 31 - 1):
            rng = np.random.default_rng(seed)
            want = a.one()
            for _ in range(2):
                want = U_operator(exp(legacy_random_element(a, rng))).apply(
                    want)
            got = principal_component_sample(a, 2, seed)
            assert np.array_equal(got.coeffs, want.coeffs)

    def test_f_cannot_write_to_its_argument(self):
        # every argument f gets, the wrapped rows included, is read-only
        a = from_descriptor("fn:3")
        written = []

        def value(x):
            try:
                x.coeffs[0] = x.coeffs[0]
            except ValueError:
                pass
            else:
                written.append(x)
            return complex(x.coeffs[0])

        report = verify_character_theorem(FunctionalHandle(value), a,
                                          n_samples=6)
        assert report.passed, report.failures
        assert written == []

        def writer(x):
            x.coeffs[0] = 0.0
            return 1.0

        with pytest.raises(ValueError, match="read-only"):
            verify_character_theorem(FunctionalHandle(writer), a)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_U_rows_are_refused(self):
        # U_x(y) with x = (1e200, 1) overflows; the row is refused, as an
        # Element of it is, before f sees it
        a = from_descriptor("fn:2")
        x, y = a.element([1e200, 1.0]), a.one()
        with pytest.raises(StructureError,
                           match="coefficients must be finite"):
            is_U_multiplicative(coordinate(a, 1), [(y, y), (x, y)])

    def test_few_checked_elements(self, monkeypatch):
        # at n_samples = 20 on fn:3 the vetting built about 730 checked
        # Elements, most of them psi path points: now only the unit, the
        # basis and the linearity combinations' arithmetic are checked
        a = from_descriptor("fn:3")
        built = []
        check = algebra_module.Element.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(algebra_module.Element, "__post_init__", counted)
        report = verify_character_theorem(coordinate(a, 0), a, n_samples=20)
        assert report.passed, report.failures
        assert 0 < len(built) < 100


class TestTrackingFailures:
    """A psi path that cannot be tracked fails the vetting's report."""

    def test_untrackable_path_is_reported(self):
        # the NaN coordinate raised BranchTrackingFailed from the vetting
        # at seeds 2 and 4, and got a report at seeds 0, 1 and 3
        a = from_descriptor("fn:3")
        f = nan_coordinate(lambda x0: abs(x0) > 3)
        failures = [verify_character_theorem(f, a, seed).failures
                    for seed in range(5)]
        for seed in (2, 4):
            assert failures[seed] == [
                "psi tracking: functional is not finite along the "
                "tracking path"]
        for seed in (0, 1, 3):
            assert failures[seed] and not any(
                msg.startswith("psi tracking") for msg in failures[seed])

    def test_errors_of_f_itself_propagate(self):
        # f raises where the NaN coordinate is NaN: first on a psi path
        a = from_descriptor("fn:3")

        def value(x):
            if abs(x.coeffs[0]) > 3:
                raise ArithmeticError("f refuses")
            return complex(x.coeffs[0])

        with pytest.raises(ArithmeticError, match="f refuses"):
            verify_character_theorem(FunctionalHandle(value), a, seed=2)
