"""The benchmark's four workloads.

``setup(jn, seed)`` builds a workload's algebras through
``jn.from_descriptor`` and draws every input from
``numpy.random.default_rng(seed)``, except the inputs of a known-fault
experiment, which are fixed so that it fails on every round of every run.
It returns the round: a fixed list of experiments that the run repeats.
Each experiment calls the program through ``jn`` (or ``jn.cli``) at call
time, so that the tracer's wrappers are seen, and is judged by a check
built on ``oracles`` alone.
"""

from __future__ import annotations

import cmath
import functools
import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles as orc

# the convergence grid 16..4096, ratio 2
GRID = tuple(16 * 2 ** k for k in range(9))
FORMULAS = ("jordan_product", "U_single", "U_pair")
FN5_FAULT = "fn:5 product formulae are not exact (binary powering of a rounded base)"
JORDAN_BLOCK_FAULT = "spectrum of the Jordan block 1+N is not {1}"


@dataclass
class Experiment:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    fault: str = ""  # the named program fault that makes this one fail today


@dataclass
class Round:
    experiments: list
    algebras: list = field(default_factory=list)


def gaussian(rng, dim: int, cap: float = 1.0) -> np.ndarray:
    """Complex Gaussian coefficients scaled down to norm <= cap.

    The draw order is the one the CLI uses for ``--seed``, so a CLI run can
    be recomputed from its seed.
    """
    z = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)
    nrm = np.linalg.norm(z)
    return z * (cap / nrm) if nrm > cap else z


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


def _params(algebra, rng):
    return {k: algebra.element(gaussian(rng, algebra.dim)) for k in "abc"}


def _against(kind, run, reference, rtol):
    """An experiment whose Element result must match ``reference()``, a
    coefficient vector computed when the result is checked."""
    return Experiment(
        kind, run, lambda r: orc.close(r.coeffs, reference(), rtol))


# ---------------------------------------------------------------------------
# trotter


def _reference_errors(model, formula, coeffs):
    """The oracle's (errors, target norm), computed at the first check so
    that set-up time holds none of the oracle's work."""
    return functools.cache(lambda: orc.trotter_errors(
        model, formula, coeffs["a"], coeffs["b"], coeffs.get("c"), GRID))


def _report(jn, model, formula, params, exact=False, fault=""):
    reference = _reference_errors(
        model, formula, {k: v.coeffs for k, v in params.items()})

    def check(rep):
        want_errors, want_norm = reference()
        ok = (tuple(rep.n_grid) == GRID
              and orc.errors_match(rep.errors, want_errors)
              and abs(rep.target_norm - want_norm) <= 1e-9 * want_norm)
        if exact:
            return ok and rep.exact
        return ok and orc.second_order(rep.fitted_slope)
    return Experiment(
        "convergence_report",
        lambda: jn.convergence_report(formula, params, GRID), check, fault)


def _cli_trotter(jn, label, formula, seed):
    model = orc.model_for(label)
    rng = np.random.default_rng(seed)
    keys = "abc" if formula == "U_pair" else "ab"
    reference = _reference_errors(
        model, formula, {k: gaussian(rng, model.dim) for k in keys})
    argv = ["trotter", "--algebra", label, "--seed", str(seed),
            "--formula", formula]

    def run():
        out = io.StringIO()
        return jn.cli.run(argv, out=out), out.getvalue()

    def check(result):
        code, text = result
        want_errors, want_norm = reference()
        lines = text.splitlines()
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        footer = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
        return (code == 0
                and lines[0] == "formula,algebra,seed,n,error"
                and [int(r[3]) for r in rows] == list(GRID)
                and all(r[:3] == [formula, label, str(seed)] for r in rows)
                and orc.errors_match([float(r[4]) for r in rows], want_errors)
                and orc.second_order(float(footer["slope"]))
                and abs(float(footer["target_norm"]) - want_norm)
                <= 1e-9 * want_norm)
    return Experiment("cli.trotter", run, check)


def _general_trotter(jn, spin, rng):
    model = orc.model_for(spin.label)
    ea, eb, ec, ed = (gaussian(rng, spin.dim, cap=0.5) for _ in range(4))
    d3 = model.mul(ed, model.mul(ed, ed))
    ea, eb, ec, d3 = (spin.element(v) for v in (ea, eb, ec, d3))
    one = spin.one()

    def curve(z):
        poly = one + eb * z + d3 * z ** 3
        return jn.jordan_mul(jn.jordan_mul(jn.exp(ea * z), poly),
                             jn.cos(ec * z))

    f = jn.HolomorphicCurve(curve, radius_r=2.0)
    out = []
    # f'(0) = ea + eb, so the limit is exp(lambda (ea + eb)); the error is
    # O(lambda_n) with lambda_n = 1/n and 1/n^2
    for plan, slope, last in (
            (jn.SequencePlan(lambda n: 1.0 / n, lambda n: float(n), 1.0),
             -1.0, 2e-2),
            (jn.SequencePlan(lambda n: 1.0 / n ** 2,
                             lambda n: 3.0 * n ** 2, 3.0),
             -2.0, 5e-2)):
        want_norm = orc.norm(
            model.exp(plan.limit_lambda * (ea.coeffs + eb.coeffs)))

        def check(rep, want_norm=want_norm, slope=slope, last=last):
            return (rep.errors[-1] <= last and not rep.skipped
                    and abs(rep.fitted_slope - slope) <= 0.25
                    and abs(rep.target_norm - want_norm) <= 1e-7)
        out.append(Experiment(
            "general_trotter",
            lambda plan=plan: jn.general_trotter(f, plan, GRID), check))
    return out


def setup_trotter(jn, seed):
    rng = np.random.default_rng(seed)
    labels = ("matrix:2", "matrix:3", "spin:4", "sum:fn:2+matrix:2")
    algebras = [jn.from_descriptor(label) for label in labels]
    fn5 = jn.from_descriptor("fn:5")
    spin3 = jn.from_descriptor("spin:3")
    exps = []
    for label, algebra in zip(labels, algebras):
        model = orc.model_for(label)
        for _ in range(2):
            params = _params(algebra, rng)
            exps += [_report(jn, model, formula, params) for formula in FORMULAS]
    # fixed inputs on which all three formulae currently miss exactness
    params = _params(fn5, np.random.default_rng(5))
    exps += [_report(jn, orc.model_for("fn:5"), formula, params, exact=True,
                     fault=FN5_FAULT) for formula in FORMULAS]
    for label, formula in zip(labels, FORMULAS * 2):
        exps.append(_cli_trotter(jn, label, formula, _seed(rng)))
    # both curve plans on two seeded curves: four calls of about the same
    # cost make the top tenth of a round's latencies, so that its 90th
    # percentile falls among them and not in the tail of the short reports
    for _ in range(2):
        exps.extend(_general_trotter(jn, spin3, rng))
    return Round(exps, algebras + [fn5, spin3])


# ---------------------------------------------------------------------------
# calculus


def _exp_log(jn, model, x):
    def run():
        e = jn.exp(x)
        return e, jn.log(e)

    def check(result):
        e, back = result
        return (orc.close(e.coeffs, model.exp(x.coeffs), 1e-10)
                and orc.close(back.coeffs, x.coeffs, 1e-8))
    return Experiment("exp_log", run, check)


def _inverse(jn, model, w):
    return _against("inverse", lambda: jn.inverse(w),
                    lambda: model.inv(w.coeffs), 1e-9)


def _spectrum(jn, model, x, want=None, fault=""):
    def check(s):
        ref = model.spectrum(x.coeffs) if want is None else want
        return orc.same_spectrum(s.points, ref, 1e-7)
    return Experiment("jordan_spectrum", lambda: jn.jordan_spectrum(x),
                      check, fault)


def _radius(model, x) -> float:
    return float(np.max(np.abs(model.spectrum(x.coeffs))))


def _contour(jn, model, x):
    """The circle about 0 of radius 2 rho(x) + 1."""
    return jn.Contour(center=0.0, radius=2.0 * _radius(model, x) + 1.0)


def _holo_exp(jn, model, x):
    contour = _contour(jn, model, x)
    return _against("holomorphic_calculus.exp",
                    lambda: jn.holomorphic_calculus(cmath.exp, x, contour),
                    lambda: model.exp(x.coeffs), 1e-8)


def _calculus_battery(jn, algebra, rng):
    model = orc.model_for(algebra.label)
    x = algebra.element(gaussian(rng, algebra.dim))
    y = algebra.element(gaussian(rng, algebra.dim))
    w = algebra.element(2.0 * model.one() + y.coeffs)
    contour = _contour(jn, model, y)
    zeta = (_radius(model, y) + 1.0) * cmath.exp(2j * np.pi * rng.random())
    return [
        _exp_log(jn, model, x),
        _against("holomorphic_calculus.identity",
                 lambda: jn.holomorphic_calculus(lambda z: z, y, contour),
                 lambda: y.coeffs, 1e-9),
        _holo_exp(jn, model, y),
        Experiment("spectral_mapping", lambda: jn.jordan_spectrum(jn.exp(x)),
                   lambda s: orc.same_spectrum(
                       s.points, np.exp(model.spectrum(x.coeffs)), 1e-6)),
        _spectrum(jn, model, y),
        _inverse(jn, model, w),
        _against("resolvent", lambda: jn.resolvent(y, zeta),
                 lambda: model.inv(zeta * model.one() - y.coeffs), 1e-9),
    ]


def _spin_nilpotent(algebra, rng):
    """alpha + u with u.u = 0: u = r (p + i q) for orthonormal real p, q."""
    q, _ = np.linalg.qr(rng.standard_normal((algebra.dim - 1, 2)))
    u = (q[:, 0] + 1j * q[:, 1]) * rng.uniform(0.2, 0.7)
    alpha = rng.uniform(0.5, 1.0) * cmath.exp(2j * np.pi * rng.random())
    return algebra.element(np.concatenate([[alpha], u]))


def setup_calculus(jn, seed):
    rng = np.random.default_rng(seed)
    labels = ("matrix:2", "matrix:3", "spin:4", "fn:5", "sum:fn:2+matrix:2",
              "matrix:4")
    algebras = [jn.from_descriptor(label) for label in labels]
    exps = []
    for algebra in algebras:
        exps.extend(_calculus_battery(jn, algebra, rng))
    # adversarial, defective elements
    m3, spin4 = algebras[1], algebras[2]
    m3_model, spin_model = orc.model_for("matrix:3"), orc.model_for("spin:4")
    block = m3.element((np.eye(3) + np.eye(3, k=1)).reshape(9))
    exps += [_spectrum(jn, m3_model, block, want=[1.0], fault=JORDAN_BLOCK_FAULT),
             _inverse(jn, m3_model, block),
             _exp_log(jn, m3_model, block)]
    nil = _spin_nilpotent(spin4, rng)
    exps += [_inverse(jn, spin_model, nil),
             _exp_log(jn, spin_model, nil),
             _holo_exp(jn, spin_model, nil)]
    return Round(exps, algebras)


# ---------------------------------------------------------------------------
# characters


def _char(jn, i, label):
    return jn.FunctionalHandle(lambda x: complex(x.coeffs[i]), label=label)


def _theorem(jn, f, algebra, seed):
    def check(rep):
        residuals = (rep.spectral_residual, rep.U_mult_residual,
                     rep.linearity_residual, rep.spectrum_membership_residual,
                     rep.exp_agreement_residual, rep.multiplicativity_residual,
                     rep.principal_agreement_residual)
        return rep.passed and max(residuals) <= 1e-6
    return Experiment(
        "verify_character_theorem",
        lambda: jn.verify_character_theorem(f, algebra, seed=seed), check)


def _cli_functional(jn, label, functional, seed, code, wanted):
    """The CLI exits with ``code`` and prints a line starting with each of
    ``wanted``."""
    argv = ["functional", "--algebra", label, "--functional", functional,
            "--seed", str(seed)]

    def run():
        out = io.StringIO()
        return jn.cli.run(argv, out=out), out.getvalue()

    def check(result):
        got_code, text = result
        lines = text.splitlines()
        return got_code == code and all(
            any(ln.startswith(w) for ln in lines) for w in wanted)
    return Experiment("cli.functional", run, check)


def _principal(jn, model, algebra, seed, depth=2):
    # U_{e^{a_1}} ... U_{e^{a_depth}}(1) with |a_j| <= 1 has its spectrum in
    # the annulus e^{-2 depth} <= |z| <= e^{2 depth}
    def check(s):
        radii = np.abs(model.spectrum(s.coeffs))
        return bool(radii.min() >= np.exp(-2.0 * depth)
                    and radii.max() <= np.exp(2.0 * depth))
    return Experiment(
        "principal_component_sample",
        lambda: jn.principal_component_sample(algebra, depth=depth, seed=seed),
        check)


def setup_characters(jn, seed):
    rng = np.random.default_rng(seed)
    fn3, fn4, blk = (jn.from_descriptor(label)
                     for label in ("fn:3", "fn:4", "sum:fn:2+matrix:2"))
    m2 = jn.from_descriptor("matrix:2")
    i3, i4 = int(rng.integers(3)), int(rng.integers(4))
    chars = [(fn3, _char(jn, i3, f"char:{i3}"), i3),
             (fn4, _char(jn, i4, f"char:{i4}"), i4),
             (blk, _char(jn, 0, "block-char"), 0)]
    exps = [_theorem(jn, f, algebra, _seed(rng)) for algebra, f, _ in chars]
    exps.append(Experiment(
        "linear_extension", lambda: jn.linear_extension(chars[1][1], fn4),
        lambda psi: orc.close(psi, np.eye(4)[i4], 1e-8)))
    exps.append(_cli_functional(jn, "fn:3", f"negchar:{i3}", _seed(rng), 0,
                                ["passed=True", "sign_flipped=True"]))
    exps.append(_cli_functional(
        jn, "matrix:2", "trace", _seed(rng), 1,
        ["failure=not spectral-valued", "passed=False", "sign_flipped=False"]))
    winding = fn4.element([2j * np.pi, 0.0, 0.0, 0.0])
    exps.append(Experiment(
        "reconstruct_psi.winding",
        lambda: jn.reconstruct_psi(_char(jn, 0, "char:0"), winding),
        lambda psi: abs(psi - 2j * np.pi) <= 1e-8))
    for k in range(24):
        algebra, f, i = chars[k % 3]
        # norm exactly 2, so that what exp costs inside does not vary by seed
        v = gaussian(rng, algebra.dim, cap=np.inf)
        x = algebra.element(2.0 * v / np.linalg.norm(v))
        exps.append(Experiment(
            "reconstruct_psi", lambda f=f, x=x: jn.reconstruct_psi(f, x),
            lambda psi, want=x.coeffs[i]: abs(psi - want) <= 1e-8))
    for k in range(4):
        algebra = (fn4, blk)[k % 2]
        exps.append(_principal(jn, orc.model_for(algebra.label), algebra,
                               _seed(rng)))
    return Round(exps, [fn3, fn4, blk, m2])


# ---------------------------------------------------------------------------
# dense_scaling


def _dense_battery(jn, model, x, y, w):
    return [
        _against("jordan_mul", lambda: jn.jordan_mul(x, y),
                 lambda: model.mul(x.coeffs, y.coeffs), 1e-12),
        _against("U_apply", lambda: jn.U_operator(x).apply(y),
                 lambda: model.U(x.coeffs, y.coeffs), 1e-12),
        _against("exp", lambda: jn.exp(x), lambda: model.exp(x.coeffs), 1e-10),
        _spectrum(jn, model, x),
        _inverse(jn, model, w),
    ]


def setup_dense_scaling(jn, seed):
    rng = np.random.default_rng(seed)
    labels = ("matrix:8", "matrix:10", "matrix:12")
    algebras = [jn.from_descriptor(label) for label in labels]
    exps = []
    for algebra in algebras:
        model = orc.model_for(algebra.label)
        x = algebra.element(gaussian(rng, algebra.dim))
        y = algebra.element(gaussian(rng, algebra.dim))
        w = algebra.element(2.0 * model.one() + x.coeffs)
        exps += _dense_battery(jn, model, x, y, w)
    return Round(exps, algebras)


SETUPS = {
    "trotter": setup_trotter,
    "calculus": setup_calculus,
    "characters": setup_characters,
    "dense_scaling": setup_dense_scaling,
}
