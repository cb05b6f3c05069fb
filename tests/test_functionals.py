"""Tests for spectral-valued U-multiplicative functionals and reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordannum import (
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
    homogeneity_check,
    is_invertible,
    is_spectral_valued,
    is_U_multiplicative,
    jordan_spectrum,
    linear_extension,
    pos_neg_parts,
    principal_component_sample,
    random_element,
    reconstruct_psi,
    unit_sign,
    verify_character_theorem,
)
from jordannum import functionals


def coordinate(algebra, i, sign=1.0):
    return FunctionalHandle(lambda x: sign * complex(x.coeffs[i]),
                            label=f"coord:{i}")


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
        # read the same spectra: one jordan_spectrum call per sample
        a = from_descriptor("sum:fn:2+matrix:2")
        f = coordinate(a, 1)
        expected = verify_character_theorem(f, a, seed=6, n_samples=6)
        calls = []

        def counted(x):
            calls.append(x)
            return jordan_spectrum(x)

        monkeypatch.setattr(functionals, "jordan_spectrum", counted)
        report = verify_character_theorem(f, a, seed=6, n_samples=6)
        samples = list(calls)
        monkeypatch.undo()
        assert len(samples) == 6
        assert list(report.as_lines()) == list(expected.as_lines())
        residual, _ = is_spectral_valued(f, samples)
        assert report.spectral_residual == residual

    def test_no_samples(self):
        a = from_descriptor("fn:2")
        with pytest.raises(ValueError, match="at least one sample"):
            verify_character_theorem(coordinate(a, 0), a, n_samples=0)
