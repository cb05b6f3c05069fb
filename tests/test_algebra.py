import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from jordannum import (
    AlgebraSpec,
    U_operator,
    U_pair_operator,
    associative_identity_check,
    characters,
    exp,
    from_descriptor,
    jordan_mul,
    jordan_power,
    jordan_spectrum,
    make_direct_sum,
    make_function_algebra,
    make_matrix_jordan,
    make_spin_factor,
    mult_operator,
    pos_neg_parts,
    random_element,
)
from jordannum import algebra as algebra_module
from jordannum.algebra import (Element, OperatorMatrix, _generated,
                               _generated_rows, _mult_matrix, _product,
                               _random_rows, _rows)
from jordannum.errors import (AlgebraMismatch, ExpOverflow, ParseError,
                              StructureError, UnsupportedAlgebra)
from test_basis_change import algebra

FAMILIES = ["matrix:2", "matrix:3", "spin:4", "fn:5", "sum:fn:2+matrix:2"]
# complex-weighted, user-supplied tensors (see test_basis_change.algebra)
REBASED = ["matrix:3@P", "spin:3@P"]


def as_matrix(x):
    n = int(round(np.sqrt(x.algebra.dim)))
    return x.coeffs.reshape(n, n)


def from_matrix(algebra, m):
    return algebra.element(m.reshape(-1))


class TestConstructors:
    def test_matrix_one_dimensional(self):
        a = make_matrix_jordan(1)
        assert a.dim == 1
        x = a.element([3.0])
        assert jordan_mul(x, x).coeffs[0] == pytest.approx(9.0)

    def test_matrix_unit_is_identity(self):
        a = make_matrix_jordan(2)
        np.testing.assert_allclose(a.unit, [1, 0, 0, 1])

    def test_matrix_units_product(self):
        # E12 o E21 = (E11 + E22) / 2
        a = make_matrix_jordan(2)
        e12 = a.element([0, 1, 0, 0])
        e21 = a.element([0, 0, 1, 0])
        np.testing.assert_allclose(jordan_mul(e12, e21).coeffs,
                                   [0.5, 0, 0, 0.5])

    def test_matrix_rejects_zero(self):
        with pytest.raises(ValueError):
            make_matrix_jordan(0)

    def test_spin_unit(self):
        s = make_spin_factor(3)
        v = s.element([0.7, 0.1, -0.2, 0.4j])
        np.testing.assert_allclose(jordan_mul(s.one(), v).coeffs, v.coeffs)

    def test_spin_basis_squares(self):
        s = make_spin_factor(2)
        e1 = s.basis_element(1)
        e2 = s.basis_element(2)
        np.testing.assert_allclose(jordan_mul(e1, e1).coeffs, [1, 0, 0])
        np.testing.assert_allclose(jordan_mul(e1, e2).coeffs, [0, 0, 0])

    def test_spin_rejects_zero(self):
        with pytest.raises(ValueError):
            make_spin_factor(0)

    def test_fn_pointwise(self):
        f = make_function_algebra(2)
        x = f.element([1, 2])
        y = f.element([3, 4])
        np.testing.assert_allclose(jordan_mul(x, y).coeffs, [3, 8])

    def test_fn_unit_and_orthogonality(self):
        f = make_function_algebra(3)
        np.testing.assert_allclose(f.unit, [1, 1, 1])
        prod = jordan_mul(f.basis_element(0), f.basis_element(1))
        np.testing.assert_allclose(prod.coeffs, 0)

    def test_direct_sum_behaves_like_fn5(self):
        s = make_direct_sum(make_function_algebra(2), make_function_algebra(3))
        f5 = make_function_algebra(5)
        assert s.dim == 5
        x = np.array([1, 2, 3, 4, 5], dtype=complex)
        y = np.array([5, 4, 3, 2, 1], dtype=complex)
        np.testing.assert_allclose(
            jordan_mul(s.element(x), s.element(y)).coeffs,
            jordan_mul(f5.element(x), f5.element(y)).coeffs,
        )

    def test_direct_sum_unit_concatenates(self):
        s = make_direct_sum(make_function_algebra(2), make_matrix_jordan(2))
        np.testing.assert_allclose(s.unit, [1, 1, 1, 0, 0, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_families_equal_their_defining_products(self, n):
        # each tensor, filled by one scatter, against the product of every
        # basis pair; all entries are 0, 1/2 or 1, so they agree bitwise
        eye = np.eye(n * n)
        mats = eye.reshape(n * n, n, n)
        matrix = [[(0.5 * (x @ y + y @ x)).reshape(-1) for y in mats]
                  for x in mats]
        spin = [[np.r_[x[0] * y[0] + x[1:] @ y[1:],
                       x[0] * y[1:] + y[0] * x[1:]]
                 for y in np.eye(n + 1)] for x in np.eye(n + 1)]
        fn = [[x * y for y in np.eye(n)] for x in np.eye(n)]
        for spec, ref in ((make_matrix_jordan(n), matrix),
                          (make_spin_factor(n), spin),
                          (make_function_algebra(n), fn)):
            assert np.array_equal(spec.structure, np.array(ref, dtype=complex))

    def test_direct_sum_is_block_diagonal(self):
        a, b = make_function_algebra(2), make_matrix_jordan(2)
        want = np.zeros((6, 6, 6), dtype=complex)
        want[:2, :2, :2] = a.structure
        want[2:, 2:, 2:] = b.structure
        assert np.array_equal(make_direct_sum(a, b).structure, want)

    @pytest.mark.parametrize("desc", FAMILIES + REBASED)
    def test_dense_view_round_trips(self, desc):
        # the entries rebuild the tensor bitwise, and a spec built from
        # that tensor is the same spec
        a = algebra(desc)
        c = a.structure
        b = AlgebraSpec(a.dim, c, a.unit, a.label)
        assert np.array_equal(b.structure, c)
        assert b == a
        assert not c.flags.writeable

    def test_spec_is_immutable(self):
        a = make_matrix_jordan(2)
        with pytest.raises(AttributeError):
            a.label = "other"

    def test_dense_view_is_the_supplied_tensor(self):
        a = from_descriptor("spin:3")
        rng = np.random.default_rng(3)
        p = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        pinv = np.linalg.inv(p)
        c = np.einsum("ai,bj,abl,kl->ijk", p, p, a.structure, pinv)
        c = 0.5 * (c + c.transpose(1, 0, 2))
        assert np.array_equal(AlgebraSpec(4, c, pinv @ a.unit, "s").structure,
                              c)

    def test_asymmetric_tensor_rejected(self):
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 0, 0] = 1
        c[0, 1, 1] = 1
        c[1, 1, 0] = 1  # missing the (1, 0) mirror
        with pytest.raises(StructureError):
            AlgebraSpec(2, c, np.array([1, 0], dtype=complex), "bad")


    @pytest.mark.parametrize("where, index, value", [
        ("structure tensor", (1, 1, 0), np.inf),
        ("structure tensor", (0, 1, 1), np.nan),
        ("unit vector", (1,), np.nan)])
    def test_non_finite_input_rejected(self, where, index, value):
        # inf at a diagonal entry keeps the tensor symmetric, and NaN fails
        # every comparison of the unit and identity checks, so only a
        # finiteness check stops these; a NaN entry is not an asymmetry
        spin = make_spin_factor(1)
        c, u = spin.structure.copy(), spin.unit.copy()
        (c if where == "structure tensor" else u)[index] = value
        with pytest.raises(StructureError, match=f"{where} must be finite"):
            AlgebraSpec(spin.dim, c, u, "bad")

    def test_non_jordan_algebra_rejected(self):
        # unit e0, e1 o e2 = e1, e1^2 = e2^2 = 0: commutative and unital,
        # [L_{e_i}, L_{e_i^2}] vanishes on every basis vector, yet the
        # Jordan identity fails (residual 2.0 at a generic element)
        c = np.zeros((3, 3, 3), dtype=complex)
        for j in range(3):
            c[0, j, j] = c[j, 0, j] = 1
        c[1, 2, 1] = c[2, 1, 1] = 1
        with pytest.raises(StructureError, match="Jordan identity"):
            AlgebraSpec(3, c, np.array([1, 0, 0], dtype=complex), "bad")

    @pytest.mark.parametrize("unit", [[0, 1, 0], [1, 0, 1e-6]])
    def test_non_unit_rejected(self, unit):
        spin = make_spin_factor(2)
        with pytest.raises(StructureError, match="identity"):
            AlgebraSpec(3, spin.structure, np.array(unit, dtype=complex),
                        "bad")

    def test_tensor_missing_an_output_rejected(self):
        # no entry has output e1, so no unit can act as the identity; the
        # zero tensor has no entries at all
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 0, 0] = 1
        for tensor in (c, np.zeros((2, 2, 2))):
            with pytest.raises(StructureError, match="identity"):
                AlgebraSpec(2, tensor, np.array([1, 0], dtype=complex), "bad")

    @pytest.mark.parametrize("kind", ["element", "operator", "unit"])
    def test_caller_array_is_copied(self, kind):
        # each object keeps its own frozen copy: the caller's array stays
        # writable, and a later write to it does not reach the object
        a = from_descriptor("matrix:2")
        base = np.tile(a.unit, (4, 1))
        arg = base if kind == "operator" else base[0]
        want = arg.copy()
        if kind == "element":
            held = a.element(arg).coeffs
        elif kind == "operator":
            held = OperatorMatrix(a, arg).entries
        else:
            held = AlgebraSpec(a.dim, a.structure, arg, "matrix:2").unit
        assert arg.flags.writeable
        base[0, 0] = np.nan
        assert np.array_equal(held, want)

    def test_identity_check_is_scale_free(self):
        # rescaling the structure by s and the unit by 1/s gives an
        # isomorphic algebra; the relative residual must not change
        spin = make_spin_factor(3)
        for scale in (1e-6, 1e6):
            AlgebraSpec(spin.dim, spin.structure * scale, spin.unit / scale,
                        "scaled")


class TestElement:
    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0),
                                     complex(0.0, np.inf)])
    def test_non_finite_coefficient_rejected(self, bad):
        a = make_function_algebra(3)
        with pytest.raises(StructureError, match="finite"):
            Element(a, np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 1e300])
    def test_norm_outside_the_squares_range(self, scale):
        # the plain sum of squares overflows (inf, with a RuntimeWarning)
        # or underflows (0.0) at these scales
        a = make_function_algebra(2)
        assert a.element([3.0 * scale, scale]).norm == pytest.approx(
            np.sqrt(10.0) * scale, rel=1e-15)
        assert a.element([3j * scale, -scale]).norm == pytest.approx(
            np.sqrt(10.0) * scale, rel=1e-15)

    def test_norm_in_range_is_numpys(self):
        a = from_descriptor("sum:fn:2+matrix:2")
        rng = np.random.default_rng(67)
        for cap in (1e-150, 1e-3, 1.0, 1e150):
            x = random_element(a, rng) * cap
            assert x.norm == float(np.linalg.norm(x.coeffs))
        assert a.zero().norm == 0.0

    def test_scalar_on_one_dimensional_algebra(self):
        # a scalar is the coefficient vector of length 1
        a = make_function_algebra(1)
        assert np.array_equal(a.element(2.0).coeffs, [2.0])
        assert np.array_equal(
            AlgebraSpec(1, a.structure, 1.0, "fn:1").unit, [1.0])


def legacy_random_element(algebra, rng, norm_cap=1.0):
    """The one-row draw written out: two draws of d normals, and the scaling
    by ``np.linalg.norm``."""
    z = (rng.standard_normal(algebra.dim)
         + 1j * rng.standard_normal(algebra.dim)) / np.sqrt(2.0)
    nrm = np.linalg.norm(z)
    if nrm > norm_cap:
        z = z * (norm_cap / nrm)
    return Element(algebra, z)


class TestRandomRows:
    """``_random_rows``: n rows from one draw, each row bitwise a one-row
    draw, and ``random_element`` its one-row call."""

    @pytest.mark.parametrize("desc", ["fn:2", "fn:5", "spin:3",
                                      "sum:fn:2+matrix:2", "matrix:3",
                                      "matrix:12"])
    def test_rows_are_the_one_row_draws_bitwise(self, desc):
        a = from_descriptor(desc)
        for seed in range(30):
            for cap in (0.5, 1.0, 3.0):
                for n in (1, 2, 20):
                    rows = _random_rows(a, np.random.default_rng(seed), n,
                                        cap)
                    rng, legacy = (np.random.default_rng(seed)
                                   for _ in range(2))
                    for row in rows:
                        assert np.array_equal(
                            row, random_element(a, rng, cap).coeffs)
                        assert np.array_equal(
                            row, legacy_random_element(a, legacy, cap).coeffs)
                    # both leave the stream at the same point
                    assert rng.standard_normal() == legacy.standard_normal()

    def test_random_element_is_a_read_only_checked_row(self):
        a = from_descriptor("fn:3")
        x = random_element(a, np.random.default_rng(0))
        assert x.coeffs.shape == (3,)
        with pytest.raises(ValueError):
            x.coeffs[0] = 0.0
        with pytest.raises(StructureError, match="finite"):
            random_element(a, np.random.default_rng(0), norm_cap=-np.inf)


class TestRows:
    """``_rows``: a kernel's stack wrapped row by row, checked once."""

    def test_rows_are_read_only_views_of_the_stack(self):
        a = from_descriptor("fn:3")
        stack = np.arange(6.0).reshape(2, 3) + 0j
        xs = _rows(a, stack)
        assert [x.algebra for x in xs] == [a, a]
        for x, row in zip(xs, stack):
            assert np.shares_memory(x.coeffs, stack)
            assert np.array_equal(x.coeffs, row)
            with pytest.raises(ValueError):
                x.coeffs[0] = 1.0
        with pytest.raises(ValueError):
            stack[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_one_non_finite_entry_refuses_the_stack(self, bad):
        a = from_descriptor("fn:3")
        stack = np.ones((4, 3), dtype=complex)
        stack[3, 1] = bad
        with pytest.raises(StructureError,
                           match="coefficients must be finite"):
            _rows(a, stack)


class TestDescriptor:
    def test_round_trip_labels(self):
        for desc in FAMILIES:
            assert from_descriptor(desc).label == desc

    def test_sum_dims(self):
        assert from_descriptor("sum:fn:2+spin:3").dim == 6

    @pytest.mark.parametrize("bad", ["matrix:0", "fn:", "spin:-1", "cube:2",
                                     "sum:fn:2", "fn:\u00b2"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            from_descriptor(bad)

    def test_size_too_long_for_int(self):
        # int() refuses more than 4,300 digits; no algebra is built
        with pytest.raises(ParseError, match="5000 digits"):
            from_descriptor("fn:" + "9" * 5000)

    def test_parse_error_offset(self):
        with pytest.raises(ParseError) as err:
            from_descriptor("sum:fn:2+cube:3")
        assert err.value.offset == 9

    @pytest.mark.parametrize("family", ["fn", "spin", "matrix"])
    def test_size_too_big_for_numpy(self, family):
        # numpy refuses the arrays of a 20-digit size before allocating them
        with pytest.raises(ParseError, match="size too big") as err:
            from_descriptor(f"sum:fn:2+{family}:" + "9" * 20)
        assert err.value.offset == len(f"sum:fn:2+{family}:")


class TestFamilyChecks:
    """The family operations read the entries, not only the label."""

    def test_permuted_matrix_basis_refused(self):
        # matrix:2 in the basis E11, E22, E12, E21, under its old label
        m2, p = from_descriptor("matrix:2"), [0, 3, 1, 2]
        a = AlgebraSpec(4, m2.structure[np.ix_(p, p, p)], m2.unit[p],
                        "matrix:2")
        x = a.element([1.0, 2.0, 2.0, -1.0])
        with pytest.raises(UnsupportedAlgebra, match="matrix:2"):
            pos_neg_parts(x)
        with pytest.raises(UnsupportedAlgebra, match="matrix:2"):
            associative_identity_check(x, a.one(), 4)

    def test_rescaled_matrix_refused(self):
        m2 = from_descriptor("matrix:2")
        a = AlgebraSpec(4, m2.structure * 100, m2.unit / 100, "matrix:2x100")
        with pytest.raises(UnsupportedAlgebra, match="matrix:2x100"):
            pos_neg_parts(a.one())
        with pytest.raises(UnsupportedAlgebra, match="matrix:2x100"):
            associative_identity_check(a.one(), a.one(), 4)

    def test_spin_labelled_fn_refused(self):
        s2 = from_descriptor("spin:2")
        with pytest.raises(UnsupportedAlgebra, match="fn:3"):
            characters(AlgebraSpec(3, s2.structure, s2.unit, "fn:3"))

    @pytest.mark.parametrize("label", [
        "fn:3", "fn:02", "fn:\u00b2", "fn", "spin:1",
        pytest.param("fn:" + "9" * 5000, id="fn:9x5000")])
    def test_mislabelled_fn_refused_without_a_build(self, label):
        # a size above the dimension is refused before any algebra is built
        f2 = from_descriptor("fn:2")
        a = AlgebraSpec(2, f2.structure, f2.unit, label)
        misses = from_descriptor.cache_info().misses
        with pytest.raises(UnsupportedAlgebra):
            characters(a)
        assert from_descriptor.cache_info().misses == misses

    def test_equal_entries_accepted(self):
        m2, f3 = from_descriptor("matrix:2"), from_descriptor("fn:3")
        a = AlgebraSpec(4, m2.structure, m2.unit, "matrix:2")
        b = AlgebraSpec(3, f3.structure, f3.unit, "fn:3")
        assert a is not m2 and b is not f3
        x = a.element([2.0, 0.0, 0.0, -3.0])
        pos, neg = pos_neg_parts(x)
        assert np.allclose(pos.coeffs, [2.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(neg.coeffs, [0.0, 0.0, 0.0, 3.0], atol=1e-12)
        assert associative_identity_check(x, a.one(), 4) <= 1e-10
        assert [f.label for f in characters(b)] == ["char:0", "char:1",
                                                    "char:2"]


class TestProducts:
    def test_unit_acts_trivially(self):
        for desc in FAMILIES:
            a = from_descriptor(desc)
            rng = np.random.default_rng(1)
            x = random_element(a, rng)
            assert (jordan_mul(a.one(), x) - x).norm < 1e-14

    def test_pauli_product_vanishes(self):
        a = make_matrix_jordan(2)
        sx = a.element([0, 1, 1, 0])
        sz = a.element([1, 0, 0, -1])
        assert jordan_mul(sx, sz).norm == 0.0

    def test_commutativity_exact(self):
        for desc in FAMILIES + REBASED:
            a = algebra(desc)
            rng = np.random.default_rng(7)
            x, y = random_element(a, rng), random_element(a, rng)
            assert (jordan_mul(x, y) - jordan_mul(y, x)).norm == 0.0

    @pytest.mark.parametrize("desc", FAMILIES + ["spin:3", "matrix:12"]
                             + REBASED)
    def test_stacked_rows_equal_single_products_bitwise(self, desc):
        a = algebra(desc)
        rng = np.random.default_rng(47)
        xs = np.array([random_element(a, rng, norm_cap=3.0).coeffs
                       for _ in range(9)])
        ys = np.array([random_element(a, rng, norm_cap=3.0).coeffs
                       for _ in range(9)])
        stacked = _product(xs, ys, a)
        for x, y, row in zip(xs, ys, stacked):
            assert np.array_equal(row, _product(x, y, a))
        assert np.array_equal(stacked, _product(ys, xs, a))

    def test_algebra_mismatch(self):
        x = make_function_algebra(2).one()
        y = make_function_algebra(3).one()
        with pytest.raises(AlgebraMismatch):
            jordan_mul(x, y)

    def test_matrix_oracle(self):
        # jordan_mul must equal (ab + ba)/2 by ordinary matrix products
        a = make_matrix_jordan(3)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x, y = random_element(a, rng), random_element(a, rng)
            xm, ym = as_matrix(x), as_matrix(y)
            oracle = from_matrix(a, 0.5 * (xm @ ym + ym @ xm))
            got = jordan_mul(x, y)
            assert (got - oracle).norm <= 1e-12 * max(oracle.norm, 1.0)


class TestOperators:
    def test_mult_operator_of_unit(self):
        for desc in FAMILIES:
            a = from_descriptor(desc)
            np.testing.assert_allclose(mult_operator(a.one()).entries,
                                       np.eye(a.dim), atol=1e-14)

    def test_mult_operator_of_zero(self):
        a = make_spin_factor(2)
        assert np.all(mult_operator(a.zero()).entries == 0)

    def test_fn_mult_operator_diagonal(self):
        f = make_function_algebra(4)
        x = f.element([1, 2, 3, 4])
        np.testing.assert_allclose(mult_operator(x).entries,
                                   np.diag([1, 2, 3, 4]))

    def test_U_of_unit_is_identity(self):
        for desc in FAMILIES:
            a = from_descriptor(desc)
            np.testing.assert_allclose(U_operator(a.one()).entries,
                                       np.eye(a.dim), atol=1e-14)

    def test_U_applied_to_unit_is_square(self):
        a = make_spin_factor(3)
        rng = np.random.default_rng(2)
        x = random_element(a, rng)
        got = U_operator(x).apply(a.one())
        assert (got - jordan_mul(x, x)).norm < 1e-13

    def test_U_pauli_conjugation(self):
        # U_{sigma_x}(sigma_z) = sigma_x sigma_z sigma_x = -sigma_z
        a = make_matrix_jordan(2)
        sx = a.element([0, 1, 1, 0])
        sz = a.element([1, 0, 0, -1])
        got = U_operator(sx).apply(sz)
        oracle = as_matrix(sx) @ as_matrix(sz) @ as_matrix(sx)
        np.testing.assert_allclose(as_matrix(got), oracle, atol=1e-14)
        np.testing.assert_allclose(got.coeffs, [-1, 0, 0, 1], atol=1e-14)

    def test_U_matrix_oracle(self):
        a = make_matrix_jordan(3)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x, y = random_element(a, rng), random_element(a, rng)
            oracle = as_matrix(x) @ as_matrix(y) @ as_matrix(x)
            got = as_matrix(U_operator(x).apply(y))
            assert np.linalg.norm(got - oracle) <= \
                1e-12 * max(np.linalg.norm(oracle), 1.0)

    def test_U_pair_symmetric_and_diagonal(self):
        a = make_spin_factor(4)
        rng = np.random.default_rng(3)
        x, c = random_element(a, rng), random_element(a, rng)
        np.testing.assert_allclose(U_pair_operator(x, c).entries,
                                   U_pair_operator(c, x).entries)
        np.testing.assert_allclose(U_pair_operator(x, x).entries,
                                   U_operator(x).entries)

    def test_linearized_U(self):
        for desc in FAMILIES:
            a = from_descriptor(desc)
            rng = np.random.default_rng(4)
            x, c = random_element(a, rng), random_element(a, rng)
            lhs = U_operator(x + c).entries
            rhs = (U_operator(x).entries
                   + 2.0 * U_pair_operator(x, c).entries
                   + U_operator(c).entries)
            assert np.linalg.norm(lhs - rhs) <= \
                1e-10 * max(np.linalg.norm(lhs), 1.0)


class TestMultMatrix:
    @pytest.mark.parametrize("desc", FAMILIES + ["spin:3"])
    def test_matches_the_contraction_bitwise(self, desc):
        a = from_descriptor(desc)
        rng = np.random.default_rng(41)
        for _ in range(5):
            x = random_element(a, rng, norm_cap=3.0)
            want = np.einsum("i,ijk->kj", x.coeffs, a.structure)
            assert np.array_equal(_mult_matrix(x.coeffs, a), want)
            assert np.array_equal(mult_operator(x).entries, want)

    @pytest.mark.parametrize("desc", FAMILIES + ["spin:3"])
    def test_applies_the_product(self, desc):
        a = from_descriptor(desc)
        rng = np.random.default_rng(43)
        for _ in range(5):
            x = random_element(a, rng, norm_cap=3.0)
            y = random_element(a, rng, norm_cap=3.0)
            got = _mult_matrix(x.coeffs, a) @ y.coeffs
            want = jordan_mul(x, y).coeffs
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


class TestGenerated:
    """The Arnoldi basis of C[x]: invariant under L_x and orthonormal."""

    @staticmethod
    def check(x):
        q, h = _generated(x)
        lx = _mult_matrix(x.coeffs, x.algebra)
        m = h.shape[0]
        assert q.shape == (x.algebra.dim, m)
        assert np.linalg.norm(lx @ q - q @ h) <= 1e-13 * np.linalg.norm(lx)
        assert np.abs(q.conj().T @ q - np.eye(m)).max() <= 1e-13
        return m

    @pytest.mark.parametrize("desc", FAMILIES + ["matrix:8"])
    def test_invariant_and_orthonormal(self, desc):
        a = from_descriptor(desc)
        rng = np.random.default_rng(17)
        for cap in (0.01, 1.0, 5.0):
            self.check(random_element(a, rng, norm_cap=cap))

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_dimension_is_the_matrix_size(self, n):
        a = from_descriptor(f"matrix:{n}")
        rng = np.random.default_rng(19)
        for _ in range(5):
            assert self.check(random_element(a, rng)) == n

    def test_dimension_of_jordan_block(self):
        a = make_matrix_jordan(3)
        assert self.check(from_matrix(a, np.eye(3) + np.eye(3, k=1))) == 3

    def test_dimension_of_spin_element(self):
        a = make_spin_factor(4)
        rng = np.random.default_rng(23)
        for _ in range(5):
            assert self.check(random_element(a, rng)) == 2

    def test_unit_and_zero_generate_the_scalars(self):
        a = make_matrix_jordan(3)
        assert self.check(a.one()) == 1
        assert self.check(a.zero()) == 1


def special_rows(desc):
    """Rows with short or extreme compressions: 3 * 1 (m = 1), 0, and per
    family a nilpotent, an idempotent or a Jordan block; on fn, a row whose
    h_{2,1} is 1.19 times its stop tolerance."""
    a = from_descriptor(desc)
    rows = [3.0 * a.unit, np.zeros(a.dim, dtype=complex)]
    if desc.startswith("spin"):
        u = np.zeros(a.dim, dtype=complex)
        u[1], u[2] = 1.0, 1j  # u o u = 0
        rows += [u, 2.0 * a.unit + u]
    elif desc.startswith("matrix"):
        n = int(desc.split(":")[1])
        rows += [np.eye(n, k=1).reshape(-1) + 0j,
                 (0.7 * np.eye(n) + np.eye(n, k=1)).reshape(-1) + 0j]
    elif desc.startswith("sum"):  # fn:2 + matrix:2
        rows += [np.array([0, 0, 0, 1, 0, 0], dtype=complex),
                 np.array([2, 2, 0.7, 1, 0, 0.7], dtype=complex)]
    else:
        rows += [a.basis_element(0).coeffs,
                 a.unit + 5.5e-12 * a.basis_element(0).coeffs]
    return rows


class TestGeneratedRows:
    """The stacked Arnoldi: each row's (Q, H, m) bitwise ``_generated``'s."""

    STACKED = ["fn:4", "spin:4", "matrix:3", "sum:fn:2+matrix:2"]

    @staticmethod
    def stack(desc):
        a = from_descriptor(desc)
        rng = np.random.default_rng(61)
        rows = [random_element(a, rng, norm_cap=cap).coeffs
                for cap in (0.1, 1.0, 5.0) for _ in range(4)]
        rows += special_rows(desc)
        rows += [r * scale for r in rows[2:4] + rows[-2:]
                 for scale in (1e200, 1e-200)]
        return a, np.array(rows)

    @staticmethod
    def assert_single(a, x, pairs):
        assert len(pairs) == len(x)
        for row, (q, h) in zip(x, pairs):
            want_q, want_h = _generated(a.element(row))
            assert np.array_equal(q, want_q)  # shapes too: m x m, d x m
            assert np.array_equal(h, want_h)

    @pytest.mark.parametrize("desc", STACKED)
    def test_rows_are_the_single_runs(self, desc):
        a, x = self.stack(desc)
        pairs = _generated_rows(x, a)
        sizes = [h.shape[0] for _, h in pairs]
        assert min(sizes) == 1 < max(sizes)
        self.assert_single(a, x, pairs)
        # random rows only: no row stops before the others
        self.assert_single(a, x[:12], _generated_rows(x[:12], a))

    @pytest.mark.parametrize("desc", STACKED)
    def test_chunked_rows_are_the_single_runs(self, desc, monkeypatch):
        a, x = self.stack(desc)
        whole = _generated_rows(x, a)
        monkeypatch.setattr(algebra_module, "_STACK_ENTRIES", 3 * a.dim ** 2)
        sizes, mult = [], algebra_module._mult_matrix

        def recorded(rows, algebra):
            sizes.append(int(np.prod(rows.shape[:-1])))
            return mult(rows, algebra)

        monkeypatch.setattr(algebra_module, "_mult_matrix", recorded)
        chunked = _generated_rows(x, a)
        assert len(sizes) > 1 and max(sizes) == 3 and sum(sizes) == len(x)
        for (q, h), (want_q, want_h) in zip(chunked, whole, strict=True):
            assert np.array_equal(q, want_q) and np.array_equal(h, want_h)
        self.assert_single(a, x, chunked)


class TestIdentities:
    @pytest.mark.parametrize("desc", FAMILIES)
    def test_jordan_identity_random(self, desc):
        a = from_descriptor(desc)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = random_element(a, rng, norm_cap=3.0)
            y = random_element(a, rng, norm_cap=3.0)
            sq = jordan_mul(x, x)
            lhs = jordan_mul(jordan_mul(sq, y), x)
            rhs = jordan_mul(jordan_mul(x, y), sq)
            bound = 1e-10 * (1 + x.norm) ** 3 * (1 + y.norm)
            assert (lhs - rhs).norm <= bound

    @pytest.mark.parametrize("desc", FAMILIES)
    def test_fundamental_formula(self, desc):
        a = from_descriptor(desc)
        rng = np.random.default_rng(19)
        for _ in range(10):
            x = random_element(a, rng)
            y = random_element(a, rng)
            lhs = U_operator(U_operator(x).apply(y)).entries
            ua, ub = U_operator(x).entries, U_operator(y).entries
            rhs = ua @ ub @ ua
            assert np.linalg.norm(lhs - rhs) <= \
                1e-9 * max(np.linalg.norm(rhs), 1.0)

    @pytest.mark.parametrize("desc", FAMILIES)
    def test_power_associativity(self, desc):
        a = from_descriptor(desc)
        rng = np.random.default_rng(23)
        x = random_element(a, rng)
        for n in range(0, 9):
            for m in range(0, 9 - n):
                lhs = jordan_mul(jordan_power(x, n), jordan_power(x, m))
                rhs = jordan_power(x, n + m)
                assert (lhs - rhs).norm <= 1e-9 * max(rhs.norm, 1.0)


class TestPowers:
    def test_zeroth_power_is_unit(self):
        a = make_spin_factor(2)
        rng = np.random.default_rng(5)
        x = random_element(a, rng)
        assert (jordan_power(x, 0) - a.one()).norm == 0.0

    def test_pauli_square_is_identity(self):
        a = make_matrix_jordan(2)
        sx = a.element([0, 1, 1, 0])
        np.testing.assert_allclose(jordan_power(sx, 2).coeffs, [1, 0, 0, 1])

    def test_spin_square_rule(self):
        s = make_spin_factor(3)
        x = s.element([0, 0.3, -0.2j, 0.7])
        u = x.coeffs[1:]
        expected = np.zeros(4, dtype=complex)
        expected[0] = np.sum(u * u)
        np.testing.assert_allclose(jordan_power(x, 2).coeffs, expected,
                                   atol=1e-14)

    def test_binary_matches_iterated(self):
        a = make_matrix_jordan(3)
        rng = np.random.default_rng(29)
        x = random_element(a, rng)
        iterated = a.one()
        for _ in range(11):
            iterated = jordan_mul(x, iterated)
        fast = jordan_power(x, 11)
        assert (fast - iterated).norm <= 1e-10 * max(iterated.norm, 1.0)

    def test_power_of_two_makes_only_squarings(self, monkeypatch):
        # 4096 = 2^12: twelve squarings, no product with the unit and no
        # squaring past the last bit; jordan_power multiplies through the
        # product kernel, on a one-row stack
        import jordannum.algebra as algebra_module
        x = make_function_algebra(2).element([1.0, 1j])
        calls = []
        product = algebra_module._product

        def counting(a, b, algebra):
            calls.append(1)
            return product(a, b, algebra)

        monkeypatch.setattr(algebra_module, "_product", counting)
        got = jordan_power(x, 4096)
        assert len(calls) == 12
        np.testing.assert_allclose(got.coeffs, [1.0, 1.0], atol=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            jordan_power(make_function_algebra(2).one(), -1)

    @pytest.mark.parametrize("n", [2.0, 2.5, 0.0, "2"])
    def test_non_integer_power_rejected(self, n):
        # a float once reached _power's bit tests and raised TypeError there,
        # or, as 0.0, returned the unit
        x = make_function_algebra(2).element([3.0, 0.5])
        with pytest.raises(ValueError, match="integer exponent"):
            jordan_power(x, n)

    def test_numpy_integer_power_accepted(self):
        x = make_function_algebra(2).element([3.0, 0.5])
        for n in (np.int64(0), np.int32(3), np.uint8(5)):
            assert np.array_equal(jordan_power(x, n).coeffs,
                                  jordan_power(x, int(n)).coeffs)

    def test_overflowing_power_raises_exp_overflow(self):
        # 3^1024 overflows: the squarings once went on through inf with
        # numpy RuntimeWarnings and then refused the infinite coefficients
        # with a StructureError
        x = make_function_algebra(2).element([3.0, 0.5])
        with pytest.raises(ExpOverflow, match="exponent up to 1024"):
            jordan_power(x, 1024)
        assert np.isfinite(jordan_power(x, 512).coeffs).all()


class TestLargeDimension:
    """matrix:16, d = 256, where the dense tensor alone would be 268 MB."""

    def test_builds_without_the_dense_tensor(self):
        tracemalloc.start()
        try:
            from_descriptor.__wrapped__("matrix:16")  # past the cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_matrix_32_builds_without_the_dense_operators(self):
        # d = 1024: the Jordan identity check needs the max-abs entries of
        # L_a, L_b and L_c, not their (2, 3, d, d) stack (100 MB)
        tracemalloc.start()
        try:
            from_descriptor.__wrapped__("matrix:32")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_matches_matrix_products(self):
        a = from_descriptor("matrix:16")
        rng = np.random.default_rng(53)
        for cap in (0.5, 2.0):
            x, y = (random_element(a, rng, norm_cap=cap) for _ in range(2))
            xm, ym = as_matrix(x), as_matrix(y)
            for got, want in (
                    (jordan_mul(x, y), 0.5 * (xm @ ym + ym @ xm)),
                    (U_operator(x).apply(y), xm @ ym @ xm),
                    (exp(x), scipy.linalg.expm(xm))):
                assert np.linalg.norm(as_matrix(got) - want) <= \
                    1e-12 * max(np.linalg.norm(want), 1.0)
            want = np.linalg.eigvals(xm)
            got = jordan_spectrum(x).points
            assert len(got) == 16
            assert max(min(abs(g - w) for w in want) for g in got) <= \
                1e-10 * (1.0 + np.abs(want).max())
