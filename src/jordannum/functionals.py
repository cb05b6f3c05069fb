"""Spectral-valued U-multiplicative functionals and character reconstruction.

A conforming black-box functional f (spectral-valued and U-multiplicative)
determines a linear character psi with f(e^x) = e^{psi(x)}; psi(x) is
recovered as the continuous-branch logarithm of t -> f(exp(t x)) tracked
from t = 0 to t = 1 with adaptive phase unwrapping.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import (AlgebraSpec, Element, U_operator, jordan_mul,
                      random_element)
from .calculus import _exp_path, exp
from .errors import (BranchTrackingFailed, JordanNumError, NotSelfAdjoint,
                     NotUMultiplicative, UnsupportedAlgebra, ZeroFunctional,
                     ZeroOnPath)
from .spectral import is_invertible, jordan_spectrum

_MIN_STEPS = 64
_MAX_STEPS = 2 ** 16
# refinement trigger for per-step phase increments; half the pi bound at
# which branch tracking becomes ambiguous
_PHASE_JUMP_LIMIT = 0.5 * np.pi


@dataclass(frozen=True)
class FunctionalHandle:
    """A deterministic black-box functional on an algebra."""

    eval: Callable[[Element], complex]
    label: str = ""

    def __call__(self, x: Element) -> complex:
        return complex(self.eval(x))


@dataclass
class CharacterReport:
    """Residuals collected while vetting a functional against the theory."""

    label: str = ""
    unit_value: complex = 0.0
    spectral_residual: float = 0.0
    U_mult_residual: float = 0.0
    linearity_residual: float = 0.0
    spectrum_membership_residual: float = 0.0
    exp_agreement_residual: float = 0.0
    multiplicativity_residual: float = 0.0
    principal_agreement_residual: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_lines(self):
        yield f"label={self.label}"
        yield f"unit_value={self.unit_value!r}"
        for name in ("spectral_residual", "U_mult_residual",
                     "linearity_residual", "spectrum_membership_residual",
                     "exp_agreement_residual", "multiplicativity_residual",
                     "principal_agreement_residual"):
            yield f"{name}={getattr(self, name):.6e}"
        yield f"passed={self.passed}"
        for msg in self.failures:
            yield f"failure={msg}"


def characters(algebra: AlgebraSpec) -> list[FunctionalHandle]:
    """The coordinate-evaluation characters of a function algebra C^k."""
    if not algebra.label.startswith("fn:"):
        raise UnsupportedAlgebra(
            f"characters are enumerated only for fn algebras, got "
            f"{algebra.label!r}"
        )

    def make(i):
        return FunctionalHandle(lambda x, i=i: complex(x.coeffs[i]),
                                label=f"char:{i}")

    return [make(i) for i in range(algebra.dim)]


def is_spectral_valued(f: FunctionalHandle, samples: Sequence[Element],
                       tol: float = 1e-8):
    """Max distance of f(x) from the spectrum of x over the samples."""
    if not samples:
        raise ValueError("need at least one sample")
    residual = max(jordan_spectrum(x).distance(f(x)) for x in samples)
    return residual, residual <= tol


def is_U_multiplicative(f: FunctionalHandle,
                        sample_pairs: Sequence[tuple],
                        tol: float = 1e-8):
    """Max residual of f(U_x(y)) = f(x)^2 f(y) over the sample pairs."""
    if not sample_pairs:
        raise ValueError("need at least one sample pair")
    residual = 0.0
    for x, y in sample_pairs:
        lhs = f(U_operator(x).apply(y))
        rhs = f(x) ** 2 * f(y)
        residual = max(residual, abs(lhs - rhs))
    return residual, residual <= tol


def unit_sign(f: FunctionalHandle, algebra: AlgebraSpec) -> int:
    """The sign dichotomy f(1) in {+1, -1} forced by U-multiplicativity."""
    v = f(algebra.one())
    if not cmath.isfinite(v):
        raise NotUMultiplicative(f"f(1) = {v} is not finite")
    if abs(v) < 0.5:
        raise ZeroFunctional(f"f(1) = {v} is numerically zero")
    if abs(v ** 3 - v) > 1e-8:
        raise NotUMultiplicative(f"f(1) = {v} does not satisfy f(1)^3 = f(1)")
    sign = 1 if v.real > 0 else -1
    if abs(v - sign) > 1e-6:
        raise NotUMultiplicative(f"f(1) = {v} is not within 1e-6 of {sign}")
    return sign


def _path_values(f: FunctionalHandle, x: Element, ts: np.ndarray):
    """f(exp(t x)) for each t in ts: one stacked pass of exp, one f call each."""
    values = np.array([f(Element(x.algebra, row))
                       for row in _exp_path(x, ts)])
    if not np.isfinite(values).all():
        raise BranchTrackingFailed(
            "functional is not finite along the tracking path")
    if (np.abs(values) < 1e-300).any():
        raise ZeroOnPath("functional vanishes along the tracking path")
    return values


def reconstruct_psi(f: FunctionalHandle, x: Element) -> complex:
    """psi(x) from the tracked logarithm of t -> f(exp(t x)) on [0, 1].

    The path points exp(t x) of each pass come from one stacked exp
    (``calculus._exp_path``), and f is called once at each. Doubling the
    steps keeps the old samples and adds the midpoints, so no point of the
    path is evaluated twice.
    """
    steps = _MIN_STEPS
    values = _path_values(f, x, np.linspace(0.0, 1.0, steps + 1))
    while True:
        phases = np.angle(values[1:] / values[:-1])
        if np.abs(phases).max() < _PHASE_JUMP_LIMIT:
            # the tracked branch: the log of f(exp(x)) / f(1), plus the
            # whole turns that the phase steps add up to
            end = complex(values[-1] / values[0])
            turns = round((phases.sum() - cmath.phase(end)) / (2 * np.pi))
            psi = cmath.log(end) + 2j * np.pi * turns
            # values[-1] is f(exp(x)), values[0] is f(1): e^psi reproduces
            # f(exp(x)) only if f(1) = 1
            if abs(values[-1] - cmath.exp(psi)) > 1e-7 * abs(cmath.exp(psi)):
                raise BranchTrackingFailed(
                    "tracked branch does not reproduce f(exp(x))"
                )
            return psi
        if steps >= _MAX_STEPS:
            raise BranchTrackingFailed(
                f"phase jump stayed >= {_PHASE_JUMP_LIMIT:.3f} at "
                f"{_MAX_STEPS} steps"
            )
        ts = np.linspace(0.0, 1.0, 2 * steps + 1)[1::2]  # old grid: [::2]
        merged = np.empty(2 * steps + 1, dtype=complex)
        merged[::2] = values
        merged[1::2] = _path_values(f, x, ts)
        values = merged
        steps *= 2


def linear_extension(f: FunctionalHandle, algebra: AlgebraSpec) -> np.ndarray:
    """psi on each basis vector, defining the linear functional coefficients."""
    return np.array(
        [reconstruct_psi(f, algebra.basis_element(i))
         for i in range(algebra.dim)],
        dtype=complex,
    )


def homogeneity_check(f: FunctionalHandle, x: Element, lam: complex) -> float:
    """|f(lam * x) - lam * f(x)|; small for any U-multiplicative f."""
    return abs(f(x * lam) - lam * f(x))


def affine_resolvent_check(f: FunctionalHandle, psi_x: complex, x: Element,
                           lam_grid: Sequence[complex]):
    """Max residual of f(lam*1 - x) = lam - psi(x) on lam off the spectrum.

    Every such lam*1 - x is principal (see ``principal_component_sample``).
    Grid points within the spectrum's ``dedupe_tol`` are skipped and
    returned alongside the residual.
    """
    spec = jordan_spectrum(x)
    one = x.algebra.one()
    residual = 0.0
    skipped = []
    for lam in lam_grid:
        if spec.distance(lam) <= spec.dedupe_tol:
            skipped.append(lam)
            continue
        residual = max(residual, abs(f(one * lam - x) - (lam - psi_x)))
    return residual, skipped


def pos_neg_parts(x: Element) -> tuple[Element, Element]:
    """Orthogonal positive/negative parts of a Hermitian matrix element."""
    label = x.algebra.label
    if not label.startswith("matrix:"):
        raise UnsupportedAlgebra(
            f"pos_neg_parts requires a matrix algebra, got {label!r}"
        )
    n = int(label.split(":")[1])
    m = x.coeffs.reshape(n, n)
    if np.linalg.norm(m - m.conj().T) > 1e-10:
        raise NotSelfAdjoint("element is not Hermitian")
    evals, q = np.linalg.eigh(m)
    pos = (q * np.maximum(evals, 0.0)) @ q.conj().T
    neg = (q * np.maximum(-evals, 0.0)) @ q.conj().T
    return (Element(x.algebra, pos.reshape(n * n)),
            Element(x.algebra, neg.reshape(n * n)))


def principal_component_sample(algebra: AlgebraSpec, depth: int,
                               seed: int) -> Element:
    """A random element U_{exp(a_1)} ... U_{exp(a_depth)}(1) of the principal
    component of the invertibles. In finite dimension every invertible is
    principal: the invertibles are the complement of the generic norm's
    zero set, a complex hypersurface, so they are connected."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rng = np.random.default_rng(seed)
    out = algebra.one()
    for _ in range(depth):
        a = random_element(algebra, rng, norm_cap=1.0)
        out = U_operator(exp(a)).apply(out)
    if not is_invertible(out):
        raise JordanNumError(
            "principal-component sample unexpectedly non-invertible"
        )
    return out


def verify_character_theorem(f: FunctionalHandle, algebra: AlgebraSpec,
                             seed: int = 0, n_samples: int = 20,
                             tol: float = 1e-6) -> CharacterReport:
    """Vet f against the character-reconstruction theory on random samples.

    Precondition failures (not spectral-valued, not U-multiplicative, wrong
    unit sign) are reported in the result, not raised.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    report = CharacterReport(label=f.label)
    report.unit_value = f(algebra.one())

    samples = [random_element(algebra, rng) for _ in range(n_samples)]
    pairs = [(random_element(algebra, rng), random_element(algebra, rng))
             for _ in range(n_samples)]

    spectra = [jordan_spectrum(x) for x in samples]
    report.spectral_residual = max(s.distance(f(x))
                                   for s, x in zip(spectra, samples))
    if not report.spectral_residual <= tol:
        report.failures.append(
            f"not spectral-valued (residual {report.spectral_residual:.3e})"
        )
    report.U_mult_residual, um_ok = is_U_multiplicative(f, pairs, tol)
    if not um_ok:
        report.failures.append(
            f"not U-multiplicative (residual {report.U_mult_residual:.3e})"
        )
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

    psi_coeffs = linear_extension(f, algebra)

    def psi(el):
        return complex(psi_coeffs @ el.coeffs)

    lin_res = 0.0
    for _ in range(max(4, n_samples // 4)):
        x = random_element(algebra, rng)
        y = random_element(algebra, rng)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        combo = x * alpha + y * beta
        lin_res = max(lin_res, abs(reconstruct_psi(f, combo) - psi(combo)))
    report.linearity_residual = lin_res

    spec_res = max(s.distance(psi(x)) for s, x in zip(spectra, samples))
    report.spectrum_membership_residual = spec_res

    exp_res = max(abs(f(exp(x)) - cmath.exp(psi(x))) for x in samples)
    report.exp_agreement_residual = exp_res

    mult_res = max(
        abs(psi(jordan_mul(x, y)) - psi(x) * psi(y)) for x, y in pairs
    )
    report.multiplicativity_residual = mult_res

    princ_res = 0.0
    for j in range(n_samples):
        s = principal_component_sample(algebra, depth=2,
                                       seed=int(rng.integers(2 ** 31)))
        princ_res = max(princ_res, abs(f(s) - psi(s)))
    report.principal_agreement_residual = princ_res

    for name, value in (
        ("linearity", lin_res),
        ("spectrum membership of psi", spec_res),
        ("exp agreement", exp_res),
        ("multiplicativity", mult_res),
        ("principal-component agreement", princ_res),
    ):
        if value > tol:
            report.failures.append(f"{name} residual {value:.3e} > {tol:.1e}")
    return report
