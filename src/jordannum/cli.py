"""Experiment runner: validate / spectrum / trotter / functional subcommands.

Output is deterministic for a fixed seed.  CSV rows use the schema
``formula,algebra,seed,n,error`` with 15 significant digits and LF line
endings; report footer lines are prefixed with ``# ``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import algebra as alg
from . import functionals as fn
from . import spectral
from . import trotter
from .errors import JordanNumError, ParseError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def parse_algebra(descriptor: str) -> alg.AlgebraSpec:
    """Parse ``matrix:<n> | spin:<k> | fn:<k> | sum:<desc>+<desc>``."""
    return alg.from_descriptor(descriptor)


def _parse_element(algebra: alg.AlgebraSpec, text: str) -> alg.Element:
    """Flat real,imag interleaved coefficients, inline or from a file."""
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    tokens = [t for t in text.replace("\n", ",").split(",") if t.strip()]
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"element coefficients must be numbers: {exc}") from exc
    if not np.isfinite(values).all():
        raise ParseError("element coefficients must be finite")
    if len(values) != 2 * algebra.dim:
        raise ParseError(
            f"expected {2 * algebra.dim} interleaved values for "
            f"{algebra.label}, got {len(values)}"
        )
    coeffs = np.array(values[0::2]) + 1j * np.array(values[1::2])
    return algebra.element(coeffs)


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _write(args, out, lines):
    """Write the report lines, LF-terminated, to --out if given, else out."""
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        out.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args, out):
    algebra = parse_algebra(args.algebra)
    rng = np.random.default_rng(args.seed)
    checks = []

    def sample():
        return alg.random_element(algebra, rng)

    jordan_res = 0.0
    fundamental_res = 0.0
    linearized_res = 0.0
    power_res = 0.0
    for _ in range(args.samples):
        a, b = sample(), sample()
        sq = alg.jordan_mul(a, a)
        lhs = alg.jordan_mul(alg.jordan_mul(sq, b), a)
        rhs = alg.jordan_mul(alg.jordan_mul(a, b), sq)
        scale = (1.0 + a.norm) ** 3 * (1.0 + b.norm)
        jordan_res = max(jordan_res, (lhs - rhs).norm / scale)

        u_a = alg.U_operator(a)
        uab = alg.U_operator(u_a.apply(b)).entries
        ua = u_a.entries
        ub = alg.U_operator(b).entries
        prod = ua @ ub @ ua
        fundamental_res = max(
            fundamental_res,
            np.linalg.norm(uab - prod) / max(np.linalg.norm(prod), 1e-30),
        )

        u_sum = alg.U_operator(a + b).entries
        u_split = ua + 2.0 * alg.U_pair_operator(a, b).entries + ub
        linearized_res = max(
            linearized_res,
            np.linalg.norm(u_sum - u_split) / max(np.linalg.norm(u_sum), 1e-30),
        )

        p5 = alg.jordan_power(a, 5)
        p23 = alg.jordan_mul(alg.jordan_power(a, 2), alg.jordan_power(a, 3))
        power_res = max(power_res,
                        (p5 - p23).norm / max(p5.norm, 1e-30))

    checks.append(("jordan_identity", jordan_res, 1e-10))
    checks.append(("fundamental_formula", fundamental_res, 1e-9))
    checks.append(("linearized_U", linearized_res, 1e-10))
    checks.append(("power_associativity", power_res, 1e-9))

    failed = False
    for name, value, tol in checks:
        ok = value <= tol
        failed = failed or not ok
        out.write(f"{name}: {'pass' if ok else 'FAIL'} "
                  f"(residual {_fmt(value)}, tol {_fmt(tol)})\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_spectrum(args, out):
    algebra = parse_algebra(args.algebra)
    if not args.element:
        raise ParseError("spectrum requires --element")
    element = _parse_element(algebra, args.element)
    spec = spectral.jordan_spectrum(element)
    for p in sorted(spec.points, key=lambda z: (z.real, z.imag)):
        out.write(f"{_fmt(p.real)},{_fmt(p.imag)}\n")
    return EXIT_OK


def _cmd_trotter(args, out):
    algebra = parse_algebra(args.algebra)
    if args.formula not in trotter.FORMULAE:
        raise ParseError(f"unknown formula {args.formula!r}; choose from "
                         f"{sorted(trotter.FORMULAE)}")
    n_min, n_max, ratio = _parse_grid(args.n_grid)
    try:
        grid = trotter.check_grid(trotter.geometric_grid(n_min, n_max, ratio))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    rng = np.random.default_rng(args.seed)
    params = {key: alg.random_element(algebra, rng)
              for key in trotter.FORMULAE[args.formula][0]}

    report = trotter.convergence_report(args.formula, params, grid)

    lines = ["formula,algebra,seed,n,error"]
    for n, err in zip(report.n_grid, report.errors):
        lines.append(
            f"{args.formula},{args.algebra},{args.seed},{n},{_fmt(err)}"
        )
    if report.exact:
        lines.append("# slope=exact")
    else:
        lines.append(f"# slope={_fmt(report.fitted_slope)}")
    lines.append(f"# target_norm={_fmt(report.target_norm)}")
    _write(args, out, lines)

    # convergence sanity: the last error above the floor must not exceed
    # the first one
    above = [e for e in report.errors if e > trotter.ERROR_FLOOR]
    if above and above[-1] > above[0]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _builtin_functional(name: str, algebra: alg.AlgebraSpec):
    if name.startswith(("char:", "negchar:", "sqchar:")):
        kind, _, idx_text = name.partition(":")
        try:
            idx = int(idx_text)
        except ValueError as exc:
            raise ParseError(f"bad functional index in {name!r}") from exc
        if not 0 <= idx < algebra.dim:
            raise ParseError(f"functional index {idx} out of range "
                             f"for {algebra.label}")
        if kind == "char":
            return fn.FunctionalHandle(
                lambda x: complex(x.coeffs[idx]), label=name)
        if kind == "negchar":
            return fn.FunctionalHandle(
                lambda x: -complex(x.coeffs[idx]), label=name)
        return fn.FunctionalHandle(
            lambda x: complex(x.coeffs[idx]) ** 2, label=name)
    if name == "trace":
        if not algebra.label.startswith("matrix:"):
            raise ParseError("trace functional requires a matrix algebra")
        n = int(algebra.label.split(":")[1])
        diag = [i * n + i for i in range(n)]
        return fn.FunctionalHandle(
            lambda x: complex(sum(x.coeffs[i] for i in diag)) / n,
            label=name)
    raise ParseError(f"unknown functional {name!r}")


def _cmd_functional(args, out):
    algebra = parse_algebra(args.algebra)
    if not args.functional:
        raise ParseError("functional subcommand requires --functional")
    handle = _builtin_functional(args.functional, algebra)
    report = fn.verify_character_theorem(
        handle, algebra, seed=args.seed, n_samples=args.samples)

    sign_flipped = False
    if any("unit sign is -1" in msg for msg in report.failures):
        flipped = fn.FunctionalHandle(lambda x: -handle(x),
                                      label=f"-({handle.label})")
        report = fn.verify_character_theorem(
            flipped, algebra, seed=args.seed, n_samples=args.samples)
        sign_flipped = True

    lines = list(report.as_lines())
    lines.append(f"sign_flipped={sign_flipped}")
    _write(args, out, lines)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument plumbing


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be MIN:MAX:RATIO, got {text!r}")
    try:
        n_min, n_max, ratio = (int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"grid values must be integers: {text!r}") from exc
    return n_min, n_max, ratio


def positive_int(text: str) -> int:
    """An argparse type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_config(path: str) -> dict:
    """Key-value config file, one ``key = value`` per line, '#' comments."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The argument parser; ``defaults`` replaces the subcommands' defaults."""
    parser = argparse.ArgumentParser(
        prog="jordannum",
        description="Jordan-algebra numerical experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("validate", "spectrum", "trotter", "functional"):
        p = sub.add_parser(name)
        p.add_argument("--algebra", required=False)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=positive_int, default=20)
        p.add_argument("--config")
        p.add_argument("--out")
        if name == "spectrum":
            p.add_argument("--element")
        if name == "trotter":
            p.add_argument("--formula", default=next(iter(trotter.FORMULAE)))
            p.add_argument("--n-grid", dest="n_grid", default="16:4096:2")
        if name == "functional":
            p.add_argument("--functional")
        p.set_defaults(**(defaults or {}))
    return parser


def _parse_args(argv):
    """Parse argv; values from a --config file fill the flags not given.

    The file's values become the parser's defaults before a second parse,
    so a flag given on the command line wins even when it equals the
    built-in default, and argparse converts the values as it would flags.
    """
    args = build_parser().parse_args(argv)
    if not args.config:
        return args
    file_values = {key: value
                   for key, value in _load_config(args.config).items()
                   if hasattr(args, key) and key not in ("subcommand", "config")}
    return build_parser(file_values).parse_args(argv)


_COMMANDS = {
    "validate": _cmd_validate,
    "spectrum": _cmd_spectrum,
    "trotter": _cmd_trotter,
    "functional": _cmd_functional,
}


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parse_args(argv)
        if not args.algebra:
            raise ParseError("an algebra descriptor is required")
        return _COMMANDS[args.subcommand](args, out)
    except SystemExit as exc:  # argparse's usage errors, --help
        return EXIT_USAGE if exc.code else EXIT_OK
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except JordanNumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def main():  # console entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
