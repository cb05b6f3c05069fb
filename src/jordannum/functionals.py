"""Spectral-valued U-multiplicative functionals and character reconstruction.

A conforming black-box functional f (spectral-valued and U-multiplicative)
determines a linear character psi with f(e^x) = e^{psi(x)}; psi(x) is
recovered as the continuous-branch logarithm of t -> f(exp(t x)) tracked
from t = 0 to t = 1 with adaptive phase unwrapping.

A vetting (``verify_character_theorem``) runs each kernel once over a
stack, one row per element and each row bitwise its single call: a stacked
exp per pass over the psi paths of the basis and the linearity combinations
(``_track``), one over the exp-agreement samples, one over the principal
samples' exponentials with a stacked U-apply per level
(``_principal_samples``), a stacked U-apply over the U-multiplicative
pairs (``algebra._U_apply``), and one stacked Arnoldi pass each for the
samples' spectra and the principal samples' invertibility
(``spectral._spectra``, ``spectral._invertible_rows``), each cut by
``algebra._chunked``, and one stacked product over the pairs for the
multiplicativity residual.

The samples, the pairs and each principal sample's levels are drawn as
stacks (``algebra._random_rows``), each row bitwise the one-row draw
``random_element``. A row that a kernel made reaches f through
``algebra._rows``: one finiteness check per stack and no per-row check or
copy; the stack is read-only, so f cannot write to its argument. Only the
unit, the basis and the linearity combinations' arithmetic build checked
Elements.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import (AlgebraSpec, Element, _family_size, _finite, _product,
                      _random_rows, _rows, _U_apply)
from .calculus import _exp_rows
from .errors import (AlgebraMismatch, BranchTrackingFailed, ExpOverflow,
                     JordanNumError, NotSelfAdjoint, NotUMultiplicative,
                     ZeroFunctional, ZeroOnPath)
from .spectral import _invertible_rows, _spectra, jordan_spectrum

_MIN_STEPS = 64
_MAX_STEPS = 2 ** 16
# refinement trigger for per-step phase increments; half the pi bound at
# which branch tracking becomes ambiguous
_PHASE_JUMP_LIMIT = 0.5 * np.pi
_THEOREM_TOL = 1e-6  # bound on each residual of verify_character_theorem
_CHECK_TOL = 1e-8  # bound of is_spectral_valued and is_U_multiplicative
# CharacterReport's residual fields in report order, with their failure names
_RESIDUALS = (
    ("spectral_residual", "spectral-valued"),
    ("U_mult_residual", "U-multiplicative"),
    ("linearity_residual", "linearity"),
    ("spectrum_membership_residual", "spectrum membership of psi"),
    ("exp_agreement_residual", "exp agreement"),
    ("multiplicativity_residual", "multiplicativity"),
    ("principal_agreement_residual", "principal-component agreement"),
)


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
        for name, _ in _RESIDUALS:
            yield f"{name}={getattr(self, name):.6e}"
        yield f"passed={self.passed}"
        for msg in self.failures:
            yield f"failure={msg}"


def characters(algebra: AlgebraSpec) -> list[FunctionalHandle]:
    """The coordinate-evaluation characters of a function algebra C^k."""
    _family_size(algebra, "fn", "characters")

    def make(i):
        return FunctionalHandle(lambda x, i=i: complex(x.coeffs[i]),
                                label=f"char:{i}")

    return [make(i) for i in range(algebra.dim)]


def _largest(residuals: Sequence[float]) -> float:
    """The largest residual, or NaN if any is NaN (``max`` drops a NaN that
    is not first)."""
    return float(np.max(residuals))


def is_spectral_valued(f: FunctionalHandle, samples: Sequence[Element]):
    """(residual, residual <= _CHECK_TOL): max distance of f(x) to sigma(x),
    every sigma(x) from one stacked pass, so all x share one algebra."""
    if not samples:
        raise ValueError("need at least one sample")
    if len({x.algebra for x in samples}) > 1:
        raise AlgebraMismatch("samples belong to different algebras")
    spectra = _spectra(np.array([x.coeffs for x in samples]),
                       samples[0].algebra)
    residual = _largest([s.distance(f(x)) for s, x in zip(spectra, samples)])
    return residual, residual <= _CHECK_TOL


def is_U_multiplicative(f: FunctionalHandle, sample_pairs: Sequence[tuple]):
    """(residual, residual <= _CHECK_TOL): max |f(U_x(y)) - f(x)^2 f(y)|,
    every U_x(y) from one stacked U-apply, so all x and y share one algebra.
    """
    if not sample_pairs:
        raise ValueError("need at least one sample pair")
    if len({v.algebra for pair in sample_pairs for v in pair}) > 1:
        raise AlgebraMismatch("sample pairs belong to different algebras")
    algebra = sample_pairs[0][0].algebra
    xs, ys = (np.array([pair[k].coeffs for pair in sample_pairs])
              for k in (0, 1))
    u = _rows(algebra, _U_apply(xs, ys, algebra))
    residual = _largest([abs(f(v) - f(x) ** 2 * f(y))
                         for v, (x, y) in zip(u, sample_pairs)])
    return residual, residual <= _CHECK_TOL


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


def _path_values(f: FunctionalHandle, algebra: AlgebraSpec, rows):
    """f at each path point of ``rows``, checked finite and nonzero."""
    values = np.array([f(x) for x in _rows(algebra, rows)])
    if not np.isfinite(values).all():
        raise BranchTrackingFailed(
            "functional is not finite along the tracking path")
    if (np.abs(values) < 1e-300).any():
        raise ZeroOnPath("functional vanishes along the tracking path")
    return values


def _branch(values: np.ndarray, steps: int):
    """psi from the path values at ``steps`` equal steps, or None while a
    phase step is at or above ``_PHASE_JUMP_LIMIT`` and steps can double."""
    phases = np.angle(values[1:] / values[:-1])
    if not np.abs(phases).max() < _PHASE_JUMP_LIMIT:
        if steps >= _MAX_STEPS:
            raise BranchTrackingFailed(
                f"phase jump stayed >= {_PHASE_JUMP_LIMIT:.3f} at "
                f"{_MAX_STEPS} steps"
            )
        return None
    # the tracked branch: the log of f(exp(x)) / f(1), plus the whole turns
    # that the phase steps add up to
    end = complex(values[-1] / values[0])
    turns = round((phases.sum() - cmath.phase(end)) / (2 * np.pi))
    psi = cmath.log(end) + 2j * np.pi * turns
    # values[-1] is f(exp(x)), values[0] is f(1): e^psi reproduces f(exp(x))
    # only if f(1) = 1
    if abs(values[-1] - cmath.exp(psi)) > 1e-7 * abs(cmath.exp(psi)):
        raise BranchTrackingFailed(
            "tracked branch does not reproduce f(exp(x))"
        )
    return psi


def _track(f: FunctionalHandle, xs: Sequence[Element]) -> list[complex]:
    """psi(x) for each x of xs (of one algebra), the tracked logarithm of
    t -> f(exp(t x)) on [0, 1].

    A pass takes the path points of every x still open as the rows of one
    stacked exp and calls f once at each. Only the paths whose phase steps
    are still too large double their steps, keeping their old samples and
    adding the midpoints. So each x gets the psi or the error it would get
    alone, and the first failing x in list order raises its error.
    """
    algebra = xs[0].algebra
    found = [None] * len(xs)  # psi or exception, once x's path is done
    values = [None] * len(xs)
    todo, steps = list(range(len(xs))), _MIN_STEPS
    ts = np.linspace(0.0, 1.0, steps + 1)
    while True:
        args = np.array([ts[:, None] * xs[i].coeffs for i in todo])
        try:
            blocks = _exp_rows(args.reshape(-1, algebra.dim),
                               algebra).reshape(args.shape)
        except ExpOverflow:  # some path overflows: each one on its own
            blocks = [None] * len(todo)
        for i, path, rows in zip(todo, args, blocks):
            # what x's tracking raises, f's own errors too, waits for x's
            # turn in list order
            try:
                new = _path_values(f, algebra, _exp_rows(path, algebra)
                                   if rows is None else rows)
                if values[i] is not None:  # old samples at even positions
                    merged = np.empty(steps + 1, dtype=complex)
                    merged[::2], merged[1::2] = values[i], new
                    new = merged
                values[i] = new
                found[i] = _branch(new, steps)
            except Exception as exc:
                found[i] = exc
        todo = [i for i in todo if found[i] is None]
        if not todo:
            break
        steps *= 2
        ts = np.linspace(0.0, 1.0, steps + 1)[1::2]
    for result in found:
        if isinstance(result, Exception):
            raise result
    return found


def reconstruct_psi(f: FunctionalHandle, x: Element) -> complex:
    """psi(x) from the tracked logarithm of t -> f(exp(t x)) on [0, 1].

    It is ``_track`` on one x: each pass takes its path points from one
    stacked exp and calls f once at each; doubling the steps keeps the old
    samples and adds the midpoints.
    """
    return _track(f, [x])[0]


def linear_extension(f: FunctionalHandle, algebra: AlgebraSpec) -> np.ndarray:
    """psi on each basis vector, defining the linear functional coefficients
    (``_track`` on the basis)."""
    return np.array(_track(f, [algebra.basis_element(i)
                               for i in range(algebra.dim)]), dtype=complex)


def affine_resolvent_check(f: FunctionalHandle, psi_x: complex, x: Element,
                           lam_grid: Sequence[complex]):
    """Max residual of f(lam*1 - x) = lam - psi(x) on lam off the spectrum.

    Every such lam*1 - x is principal (see ``principal_component_sample``).
    Grid points within the spectrum's ``dedupe_tol`` are skipped and
    returned alongside the residual, which is NaN if any checked one is.
    """
    spec = jordan_spectrum(x)
    one = x.algebra.one()
    residuals, skipped = [0.0], []  # 0.0 when every lam is skipped
    for lam in lam_grid:
        if spec.distance(lam) <= spec.dedupe_tol:
            skipped.append(lam)
        else:
            residuals.append(abs(f(one * lam - x) - (lam - psi_x)))
    return _largest(residuals), skipped


def pos_neg_parts(x: Element) -> tuple[Element, Element]:
    """Orthogonal positive/negative parts of a Hermitian matrix element."""
    n = _family_size(x.algebra, "matrix", "pos_neg_parts")
    m = x.coeffs.reshape(n, n)
    if np.linalg.norm(m - m.conj().T) > 1e-10:
        raise NotSelfAdjoint("element is not Hermitian")
    evals, q = np.linalg.eigh(m)
    pos = (q * np.maximum(evals, 0.0)) @ q.conj().T
    neg = (q * np.maximum(-evals, 0.0)) @ q.conj().T
    return (Element(x.algebra, pos.reshape(n * n)),
            Element(x.algebra, neg.reshape(n * n)))


def _principal_samples(algebra: AlgebraSpec, depth: int,
                       seeds: Sequence[int]) -> list[Element]:
    """``principal_component_sample(algebra, depth, s)`` for each s of seeds:
    the depth x len(seeds) exponentials are one stacked exp, each level one
    stacked U-apply over the samples, and their invertibility one stacked
    check."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    draws = np.array([_random_rows(algebra, rng, depth)
                      for rng in map(np.random.default_rng, seeds)])
    e = _exp_rows(draws.reshape(-1, algebra.dim), algebra).reshape(
        draws.shape)
    out = np.broadcast_to(algebra.unit, (len(seeds), algebra.dim))
    for level in range(depth):
        out = _U_apply(e[:, level], out, algebra)
    samples = _rows(algebra, out)
    if not all(_invertible_rows(out, algebra)):
        raise JordanNumError(
            "principal-component sample unexpectedly non-invertible"
        )
    return samples


def principal_component_sample(algebra: AlgebraSpec, depth: int,
                               seed: int) -> Element:
    """A random element U_{exp(a_1)} ... U_{exp(a_depth)}(1) of the principal
    component of the invertibles. In finite dimension every invertible is
    principal: the invertibles are the complement of the generic norm's
    zero set, a complex hypersurface, so they are connected."""
    return _principal_samples(algebra, depth, [seed])[0]


def verify_character_theorem(f: FunctionalHandle, algebra: AlgebraSpec,
                             seed: int = 0,
                             n_samples: int = 20) -> CharacterReport:
    """Vet f against the character-reconstruction theory on random samples.

    Precondition failures (not spectral-valued, not U-multiplicative, wrong
    unit sign), a psi path that cannot be tracked and residuals above
    ``_THEOREM_TOL`` are reported in the result, not raised.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    report = CharacterReport(label=f.label)
    report.unit_value = f(algebra.one())

    # n_samples draws, then n_samples pairs: pair i is rows 2i and 2i + 1
    rows = _random_rows(algebra, rng, n_samples)
    samples = _rows(algebra, rows)
    pair_rows = _random_rows(algebra, rng, 2 * n_samples)
    members = _rows(algebra, pair_rows)
    pairs = list(zip(members[::2], members[1::2]))

    spectra = _spectra(rows, algebra)
    report.spectral_residual = _largest([s.distance(f(x))
                                         for s, x in zip(spectra, samples)])
    report.U_mult_residual, _ = is_U_multiplicative(f, pairs)
    for name, what in _RESIDUALS[:2]:
        value = getattr(report, name)
        if not value <= _THEOREM_TOL:
            report.failures.append(f"not {what} (residual {value:.3e})")
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

    combos = []
    for _ in range(max(4, n_samples // 4)):
        x, y = _rows(algebra, _random_rows(algebra, rng, 2))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        combos.append(x * alpha + y * beta)
    # linear_extension's basis paths and the combinations' in one tracking
    try:
        psis = _track(f, [algebra.basis_element(i)
                          for i in range(algebra.dim)] + combos)
    except JordanNumError as exc:
        report.failures.append(f"psi tracking: {exc}")
        return report
    psi_coeffs = np.array(psis[:algebra.dim], dtype=complex)

    def psi(v):  # psi of a coefficient row
        return complex(psi_coeffs @ v)

    report.linearity_residual = _largest(
        [abs(p - psi(c.coeffs)) for p, c in zip(psis[algebra.dim:], combos)])

    report.spectrum_membership_residual = _largest(
        [s.distance(psi(v)) for s, v in zip(spectra, rows)])

    exps = _rows(algebra, _exp_rows(rows, algebra))
    report.exp_agreement_residual = _largest(
        [abs(f(e) - cmath.exp(psi(v))) for e, v in zip(exps, rows)])

    # each row of the stacked product is bitwise its jordan_mul
    xs, ys = pair_rows[::2], pair_rows[1::2]
    products = _product(xs, ys, algebra)
    _finite(products)
    report.multiplicativity_residual = _largest(
        [abs(psi(xy) - psi(x) * psi(y)) for xy, x, y in zip(products, xs, ys)])

    seeds = [int(rng.integers(2 ** 31)) for _ in range(n_samples)]
    report.principal_agreement_residual = _largest(
        [abs(f(s) - psi(s.coeffs))
         for s in _principal_samples(algebra, 2, seeds)])

    for name, what in _RESIDUALS[2:]:
        value = getattr(report, name)
        if not value <= _THEOREM_TOL:
            report.failures.append(
                f"{what} residual {value:.3e} > {_THEOREM_TOL:.1e}")
    return report
