"""Error of exp, expm1, log, inverse, the psi path, the contour, the spectrum.

For each family it prints one line per function: the median, 99th
percentile and maximum of the relative error |got - ref| / |ref| of the
coefficient vectors, over a fixed set of seeded inputs; for ``spectrum``,
of the Hausdorff distance from the spectrum points to the reference
eigenvalues, relative to 1 + R with R the largest reference modulus. The
references are computed with mpmath at 40 digits: ``expm``, ``logm``, the
inverse and ``eig`` on the matrix blocks (a double-precision eigvals errs
as much as what is measured), pointwise functions and the coordinates on
``fn``, and the closed forms on ``spin`` (exp(alpha + u) = e^alpha (cosh s
+ u sinh(s) / s) with s^2 = u.u, the spectral values alpha +- s, the log
through them, and (alpha + u)^-1 = (alpha - u) / (alpha^2 - u.u)). An
input the tree refuses (any ``JordanNumError``) is left out of the
figures, and the line ends with ``refused`` and their count. mpmath is
needed by this tool only. Two trees give the same lines
exactly when their errors are the same, so an accuracy comparison is one
``diff``:

    python tools/exp_accuracy.py > change.txt
    python tools/exp_accuracy.py --src ../other/src > other.txt
    diff other.txt change.txt

``exp`` and ``expm1`` take 198 inputs x, 33 at each norm cap 0.01-5,
``spectrum`` 360 (60 per cap), ``log`` 200 inputs y = exp(x), 50 at each
cap 0.5-3, ``inverse`` 160 inputs x, 40 at each cap 0.5-3, and ``path``
the rows exp(t x), t = 0, 1/16, ..., 1, for two x per cap 0.01-5 (204
rows) from one stacked ``calculus._exp_rows`` call per x. A run takes
50-110 s on one core of a 2-vCPU Intel Xeon, whose speed varies from
minute to minute.
``contour`` takes the inputs of ``exp`` through the contour calculus,
``holomorphic_calculus(cmath.exp, x, Contour(0, 2 R + 1))`` with R the
spectral radius of x.
The three ``cauchy`` lines take ``derivative_at_zero`` against the exact
f'(0) = x, for 198 x at caps 0.01-5, on curves given with radius_r = R =
2: ``cauchy_exp0.5`` is exp(x z) at rho = R / 2, and ``cauchy_pole0.5``
and ``cauchy_pole0.9`` are 1 + x z / (1 - z / R), which has a pole at R,
at rho = R / 2 and 0.9 R. They add about 25 s to a run.
``matrix:8`` prints only ``exp`` and ``spectrum`` lines, on 25 inputs per
cap 0.01-5 (150 each, seeded as the other families' lines are); its
40-digit references make these lines take about 25 s.
``matrix:2x100`` is matrix:2 with its structure tensor times c = 100 and
its unit over c, where a small coefficient norm does not bound L_x. It
prints ``exp`` and ``expm1`` lines, for 198 x at caps 0.01-5, and a
``log`` line, for 200 y = exp(x) with c x at caps 0.5-3, against
references taken through the isomorphism phi(v) = v / c from matrix:2:
exp'(x) = exp(c x) / c, expm1'(x) = expm1(c x) / c and log'(y) =
log(c y) / c (c x and c y in mpmath).
``log_far`` (``matrix:3``, ``matrix:4`` and ``spin:4``) takes ``log``
far from |lambda| = 1, on 900 inputs: the ``log`` line's 200 y times s =
1e-6, 1e6, 1e12 and 1e50, and, for s = 3 and 4, the 50 y = exp(s g) from
g = ``random_element(a, default_rng(0), norm_cap=inf)``, whose spectrum
moduli spread over factors up to e^(2 s |g|). The scaled references are
taken from log y: log(c) = ln(s) 1 + log(c / s) for c = fl(s y), and
log(c / s) = log(y) + L[c / s - y], up to (eps kappa)^2, with L the
Frechet derivative of log at y (``scaled_log_reference``). A spread
matrix y's reference is V diag(log lambda) V^-1 from ``mpmath.eig``,
where ``mpmath.logm`` would take 0.1-1 s an input. These lines add about
10 s to a run.
``spin:3 curve_limit`` takes each error that ``general_trotter`` reports
for the curve exp(a z) o (1 + b z + d^3 z^3) o cos(c z) on ``spin:3``
(a, b, c, d drawn at norm cap 0.5 from seeds 0-3, radius_r = 2), with the
plans lambda_n = 1/n, mu_n = n and lambda_n = 1/n^2, mu_n = 3n^2 (limit 3)
on ``geometric_grid()`` (72 errors), against the same quantity at 60
digits: the rounded base f(lambda_n) to the power mu_n, taken in the 2 x 2
model [[alpha, u.u], [1, alpha]]^mu_n of alpha + u, minus the closed form
of exp(lambda f'(0)), f'(0) being the computed ``derivative_at_zero``.
``--src`` names the source directory to import ``jordannum`` from; the
default is the ``src`` directory next to this script's parent.
"""

from __future__ import annotations

import argparse
import cmath
import sys
from pathlib import Path

import mpmath
import numpy as np

FAMILIES = ["matrix:2", "matrix:3", "matrix:4", "spin:4", "fn:5",
            "sum:fn:2+matrix:2"]
# exp and spectrum lines only, with this many inputs per cap
LARGE = {"matrix:8": 25}
CAPS = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
LOG_CAPS = (0.5, 1.0, 2.0, 3.0)
# inputs per cap: 198 per exp, expm1 and contour line, 200 per log line, so
# that medians and p99s at rounding level move by a few per cent at most
PER_CAP = 33
LOG_PER_CAP = 50
INV_PER_CAP = 40
PATH_TS = np.linspace(0.0, 1.0, 17)
RESCALE = 100
FAR_FAMILIES = ("matrix:3", "matrix:4", "spin:4")
FAR_SCALES = (1e-6, 1e6, 1e12, 1e50)
SPREAD_SCALES = (3, 4)
CAUCHY_R = 2.0
CURVE_SEEDS = range(4)
# (lambda_n, mu_n, lim lambda_n mu_n) of the curve_limit line
CURVE_PLANS = ((lambda n: 1.0 / n, lambda n: float(n), 1.0),
               (lambda n: 1.0 / n ** 2, lambda n: 3.0 * n ** 2, 3.0))


def _blocks(desc):
    """(kind, size) of each direct summand of a descriptor, in order."""
    if desc.startswith("sum:"):
        return [b for part in desc[4:].split("+") for b in _blocks(part)]
    kind, size = desc.split(":")
    return [(kind, int(size))]


def _block_reference(kind, n, x, fn):
    """fn ('exp', 'expm1', 'log', 'log_eig' or 'inverse') of one block's
    coefficients, in mpmath; 'log_eig' is 'log' with a matrix block's log
    taken as V diag(log lambda) V^-1 from ``mpmath.eig``."""
    if fn == "log_eig" and kind == "matrix":
        lam, v = mpmath.eig(mpmath.matrix(
            [[x[i * n + j] for j in range(n)] for i in range(n)]))
        f = v * mpmath.diag([mpmath.log(z) for z in lam]) * v ** -1
        return [f[i, j] for i in range(n) for j in range(n)]
    fn = "log" if fn == "log_eig" else fn
    if kind == "fn":
        if fn == "inverse":
            return [1 / v for v in x]
        return [getattr(mpmath, fn)(v) for v in x]
    if kind == "matrix":
        m = mpmath.matrix([[x[i * n + j] for j in range(n)] for i in range(n)])
        f = {"log": mpmath.logm, "inverse": lambda v: v ** -1}.get(
            fn, mpmath.expm)(m)
        if fn == "expm1":
            f = f - mpmath.eye(n)
        return [f[i, j] for i in range(n) for j in range(n)]
    alpha, u = x[0], x[1:]
    if fn == "inverse":
        det = alpha * alpha - mpmath.fsum(v * v for v in u)
        return [alpha / det] + [-v / det for v in u]
    s = mpmath.sqrt(mpmath.fsum(v * v for v in u))
    if fn == "log":
        lp, lm = mpmath.log(alpha + s), mpmath.log(alpha - s)
        scalar = (lp + lm) / 2
        vec = (lp - lm) / (2 * s) if s else 1 / alpha
    else:
        scalar = mpmath.exp(alpha) * mpmath.cosh(s)
        vec = mpmath.exp(alpha) * (mpmath.sinh(s) / s if s else 1)
        if fn == "expm1":
            scalar = scalar - 1
    return [scalar] + [vec * v for v in u]


def reference(desc, coeffs, fn):
    """fn of the coefficient vector in the algebra ``desc``, in mpmath."""
    x = [mpmath.mpc(complex(v)) for v in coeffs]
    out, lo = [], 0
    for kind, size in _blocks(desc):
        dim = size * size if kind == "matrix" else size + (kind == "spin")
        out += _block_reference(kind, size, x[lo:lo + dim], fn)
        lo += dim
    return out


def spectrum_reference(desc, coeffs):
    """The eigenvalues of each direct summand of ``desc``, in mpmath."""
    x = [mpmath.mpc(complex(v)) for v in coeffs]
    out, lo = [], 0
    for kind, size in _blocks(desc):
        dim = size * size if kind == "matrix" else size + (kind == "spin")
        block = x[lo:lo + dim]
        if kind == "fn":
            out += block
        elif kind == "matrix":
            out += mpmath.eig(mpmath.matrix(
                [block[i * size:(i + 1) * size] for i in range(size)]),
                left=False, right=False)
        else:
            s = mpmath.sqrt(mpmath.fsum(v * v for v in block[1:]))
            out += [block[0] + s, block[0] - s]
        lo += dim
    return out


def spectrum_errors(jn, desc, per_cap=60):
    """Hausdorff errors of jordan_spectrum relative to 1 + R on one family."""
    a = jn.from_descriptor(desc)
    rng = np.random.default_rng(223)
    errs = []
    for cap in CAPS:
        for _ in range(per_cap):
            x = jn.random_element(a, rng, norm_cap=cap)
            got = [mpmath.mpc(p) for p in jn.jordan_spectrum(x).points]
            want = spectrum_reference(desc, x.coeffs)
            hausdorff = max(
                max(min(abs(g - w) for w in want) for g in got),
                max(min(abs(g - w) for g in got) for w in want))
            errs.append(float(hausdorff / (1 + max(abs(w) for w in want))))
    return errs


def rel_error(got, want) -> float:
    diff = mpmath.sqrt(mpmath.fsum(abs(mpmath.mpc(complex(g)) - w) ** 2
                                   for g, w in zip(got, want)))
    return float(diff / mpmath.sqrt(mpmath.fsum(abs(w) ** 2 for w in want)))


def refusable(fn, x, want):
    """rel_error of fn(x).coeffs against want; None if fn refuses x."""
    from jordannum.errors import JordanNumError
    try:
        got = fn(x).coeffs
    except JordanNumError:
        return None
    return rel_error(got, want)


def inverse_errors(jn, desc):
    """Relative errors of the Jordan inverse on one family; None if refused."""
    a = jn.from_descriptor(desc)
    rng = np.random.default_rng(229)
    errs = []
    for cap in LOG_CAPS:
        for _ in range(INV_PER_CAP):
            x = jn.random_element(a, rng, norm_cap=cap)
            errs.append(refusable(jn.inverse, x,
                                  reference(desc, x.coeffs, "inverse")))
    return errs


def expm1(calculus, x):
    """The coefficients of e^x - 1 by ``calculus._expm1``."""
    return calculus._expm1(x.coeffs, x.algebra)


def family_errors(jn, calculus, desc):
    """Relative errors of exp, expm1, log, path and contour on one family."""
    a = jn.from_descriptor(desc)
    rng = np.random.default_rng(211)
    errs = {"exp": [], "expm1": [], "log": [], "path": [], "contour": []}
    for cap in CAPS:
        for _ in range(PER_CAP):
            x = jn.random_element(a, rng, norm_cap=cap)
            want = reference(desc, x.coeffs, "exp")
            errs["exp"].append(rel_error(jn.exp(x).coeffs, want))
            contour = jn.Contour(
                0.0, 2.0 * jn.jordan_spectrum(x).spectral_radius + 1.0)
            errs["contour"].append(rel_error(
                jn.holomorphic_calculus(cmath.exp, x, contour).coeffs, want))
            errs["expm1"].append(rel_error(expm1(calculus, x),
                                           reference(desc, x.coeffs, "expm1")))
        for _ in range(2):
            x = jn.random_element(a, rng, norm_cap=cap)
            rows = calculus._exp_rows(PATH_TS[:, None] * x.coeffs,
                                      x.algebra)
            errs["path"] += [rel_error(row, reference(desc, t * x.coeffs,
                                                      "exp"))
                             for t, row in zip(PATH_TS, rows)]
    logs = []
    for cap in LOG_CAPS:
        for _ in range(LOG_PER_CAP):
            y = jn.exp(jn.random_element(a, rng, norm_cap=cap))
            logs.append((y, reference(desc, y.coeffs, "log")))
    errs["log"] = [rel_error(jn.log(y).coeffs, want) for y, want in logs]
    if desc in FAR_FAMILIES:
        errs["log_far"] = far_errors(jn, desc, logs)
    return errs


def scaled_log_reference(desc, y, want, c, s):
    """log(c) in mpmath for c = fl(s y), from want = log(y).

    log(c) = ln(s) 1 + log(t), t = c / s = y + D exactly, with D of order
    eps |y|, and log(t) = log(y) + L[D] + O(|D|^2 |y^-1|^2). On a matrix
    block L[D] = V ((V^-1 D V) o F) V^-1, F the divided differences of log
    on the eigenvalues; that term is of order eps kappa(y), so it is taken
    in double. A spin or fn block takes its closed form at c directly.
    """
    if not desc.startswith("matrix:"):
        return reference(desc, c, "log")
    n = int(desc.split(":")[1])
    ms = mpmath.mpf(s)
    d = np.array([complex(mpmath.mpc(complex(cv)) / ms
                          - mpmath.mpc(complex(yv)))
                  for cv, yv in zip(c, y)]).reshape(n, n)
    lam, v = np.linalg.eig(y.reshape(n, n))
    gap = lam[:, None] - lam[None, :]
    np.fill_diagonal(gap, 1.0)
    f = (np.log(lam)[:, None] - np.log(lam)[None, :]) / gap
    np.fill_diagonal(f, 1.0 / lam)
    corr = (v @ (np.linalg.solve(v, d @ v) * f) @ np.linalg.inv(v)).ravel()
    shift = mpmath.log(ms)
    eye = np.eye(n).reshape(-1)
    return [w + shift * e + mpmath.mpc(complex(k))
            for w, e, k in zip(want, eye, corr)]


def far_errors(jn, desc, logs):
    """Relative errors of log far from |lambda| = 1 on one family; None if
    refused: the ``log`` inputs y times ``FAR_SCALES``, then the spread y =
    exp(s g) for s in ``SPREAD_SCALES``."""
    errs = []
    for y, want in logs:
        for s in FAR_SCALES:
            c = y * s
            errs.append(refusable(jn.log, c, scaled_log_reference(
                desc, y.coeffs, want, c.coeffs, s)))
    a = jn.from_descriptor(desc)
    for s in SPREAD_SCALES:
        rng = np.random.default_rng(0)
        for _ in range(LOG_PER_CAP):
            y = jn.exp(jn.random_element(a, rng, norm_cap=np.inf) * s)
            errs.append(refusable(jn.log, y,
                                  reference(desc, y.coeffs, "log_eig")))
    return errs


def cauchy_errors(jn, desc):
    """Relative errors of derivative_at_zero against f'(0) = x on one
    family."""
    a = jn.from_descriptor(desc)
    one = a.one()
    rng = np.random.default_rng(233)
    errs = {"cauchy_exp0.5": [], "cauchy_pole0.5": [], "cauchy_pole0.9": []}
    for cap in CAPS:
        for _ in range(PER_CAP):
            x = jn.random_element(a, rng, norm_cap=cap)
            want = [mpmath.mpc(complex(v)) for v in x.coeffs]

            def pole(z, x=x):
                return one + x * (complex(z) / (1.0 - complex(z) / CAUCHY_R))

            for name, curve, ratio in (
                    ("cauchy_exp0.5", lambda z, x=x: jn.exp(x * z), 0.5),
                    ("cauchy_pole0.5", pole, 0.5),
                    ("cauchy_pole0.9", pole, 0.9)):
                got = jn.derivative_at_zero(
                    jn.HolomorphicCurve(curve, radius_r=CAUCHY_R),
                    rho=ratio * CAUCHY_R)
                errs[name].append(rel_error(got.coeffs, want))
    return errs


def _spin_power(coeffs, k):
    """(alpha + u)^k in mpmath: u^2 = u.u, so multiplying p + q u by
    alpha + u is the matrix [[alpha, u.u], [1, alpha]] on (p, q)."""
    alpha, u = coeffs[0], coeffs[1:]
    m = mpmath.matrix([[alpha, mpmath.fsum(v * v for v in u)],
                       [1, alpha]]) ** k
    return [m[0, 0]] + [m[1, 0] * v for v in u]


def curve_limit_errors(jn):
    """Relative errors of general_trotter's reported errors on spin:3."""
    spin = jn.from_descriptor("spin:3")
    one = spin.one()
    grid = jn.geometric_grid()
    errs = []
    for seed in CURVE_SEEDS:
        rng = np.random.default_rng(seed)
        xa, xb, xc, xd = (jn.random_element(spin, rng, norm_cap=0.5)
                          for _ in range(4))
        d3 = jn.jordan_power(xd, 3)

        def curve(z, xa=xa, xb=xb, xc=xc, d3=d3):
            poly = one + xb * z + d3 * z ** 3
            return jn.jordan_mul(jn.jordan_mul(jn.exp(xa * z), poly),
                                 jn.cos(xc * z))

        f = jn.HolomorphicCurve(curve, radius_r=2.0)
        deriv = jn.derivative_at_zero(f, rho=1.0)
        for lam, mu, limit in CURVE_PLANS:
            rep = jn.general_trotter(f, jn.SequencePlan(lam, mu, limit),
                                     grid)
            with mpmath.workdps(60):
                target = _block_reference(
                    "spin", 3, [limit * mpmath.mpc(complex(v))
                                for v in deriv.coeffs], "exp")
                for n, got in zip(rep.n_grid, rep.errors):
                    base = [mpmath.mpc(complex(v))
                            for v in f.eval(lam(n)).coeffs]
                    row = _spin_power(base, int(mu(n)))
                    want = mpmath.sqrt(mpmath.fsum(
                        abs(r - t) ** 2 for r, t in zip(row, target)))
                    errs.append(float(abs(got - want) / want))
    return errs


def exp_errors(jn, desc, per_cap):
    """Relative errors of exp alone on one family."""
    a = jn.from_descriptor(desc)
    rng = np.random.default_rng(211)
    errs = []
    for cap in CAPS:
        for _ in range(per_cap):
            x = jn.random_element(a, rng, norm_cap=cap)
            errs.append(rel_error(jn.exp(x).coeffs,
                                  reference(desc, x.coeffs, "exp")))
    return errs


def rescaled_errors(jn, calculus):
    """Relative errors of exp, expm1 and log on matrix:2 rescaled by RESCALE.
    """
    m2 = jn.from_descriptor("matrix:2")
    a = jn.AlgebraSpec(4, m2.structure * RESCALE, m2.unit / RESCALE,
                       f"matrix:2x{RESCALE}")
    rng = np.random.default_rng(227)
    errs = {"exp": [], "expm1": []}
    for cap in CAPS:
        for _ in range(PER_CAP):
            x = jn.random_element(a, rng, norm_cap=cap)
            cx = [RESCALE * mpmath.mpc(complex(v)) for v in x.coeffs]
            for fn, got in (("exp", jn.exp(x).coeffs),
                            ("expm1", expm1(calculus, x))):
                want = [v / RESCALE
                        for v in _block_reference("matrix", 2, cx, fn)]
                errs[fn].append(rel_error(got, want))
    errs["log"] = []
    for cap in LOG_CAPS:
        for _ in range(LOG_PER_CAP):
            y = jn.exp(jn.random_element(a, rng, norm_cap=cap / RESCALE))
            cy = [RESCALE * mpmath.mpc(complex(v)) for v in y.coeffs]
            want = [v / RESCALE
                    for v in _block_reference("matrix", 2, cy, "log")]
            errs["log"].append(refusable(jn.log, y, want))
    return errs


def _print_lines(desc, errors):
    for fn, errs in errors.items():
        e = np.array([v for v in errs if v is not None])
        refused = len(errs) - e.size
        print(f"{desc} {fn} {e.size} {np.median(e):.2e} "
              f"{np.quantile(e, 0.99):.2e} {e.max():.2e}"
              + (f" refused {refused}" if refused else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parent.parent / "src"),
        help="directory to import jordannum from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import jordannum as jn
    from jordannum import calculus

    mpmath.mp.dps = 40
    print("family function n median p99 max")
    for desc in FAMILIES:
        errors = family_errors(jn, calculus, desc)
        errors["spectrum"] = spectrum_errors(jn, desc)
        errors["inverse"] = inverse_errors(jn, desc)
        errors.update(cauchy_errors(jn, desc))
        _print_lines(desc, errors)
    for desc, per_cap in LARGE.items():
        _print_lines(desc, {"exp": exp_errors(jn, desc, per_cap),
                            "spectrum": spectrum_errors(jn, desc, per_cap)})
    _print_lines(f"matrix:2x{RESCALE}", rescaled_errors(jn, calculus))
    _print_lines("spin:3", {"curve_limit": curve_limit_errors(jn)})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
