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
from .errors import (JordanNumError, NotUMultiplicative, ParseError,
                     UnsupportedAlgebra, ZeroFunctional)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; one that is not UTF-8 is a ParseError that
    names it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _parse_element(algebra: alg.AlgebraSpec, text: str) -> alg.Element:
    """Flat real,imag interleaved coefficients, inline or from a file."""
    if os.path.isfile(text):
        text = _read_text(text)
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


def _write(path, out, lines):
    """Write the report lines, LF-terminated, to file ``path`` or to out."""
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        out.write(text)


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed flags and the algebra and returns the
# report lines and the exit code.


# validate's checks in report order: (name, tolerance of the worst residual)
_CHECKS = (("jordan_identity", 1e-10), ("fundamental_formula", 1e-9),
           ("linearized_U", 1e-10), ("power_associativity", 1e-9))


def _residuals(a, b):
    """The relative residuals of the ``_CHECKS`` identities at a and b."""
    sq = alg.jordan_mul(a, a)
    lhs = alg.jordan_mul(alg.jordan_mul(sq, b), a)
    rhs = alg.jordan_mul(alg.jordan_mul(a, b), sq)
    u_a = alg.U_operator(a)
    uab = alg.U_operator(u_a.apply(b)).entries
    ua = u_a.entries
    ub = alg.U_operator(b).entries
    prod = ua @ ub @ ua
    u_sum = alg.U_operator(a + b).entries
    u_split = ua + 2.0 * alg.U_pair_operator(a, b).entries + ub
    p5 = alg.jordan_power(a, 5)
    p23 = alg.jordan_mul(alg.jordan_power(a, 2), alg.jordan_power(a, 3))
    return ((lhs - rhs).norm / ((1.0 + a.norm) ** 3 * (1.0 + b.norm)),
            np.linalg.norm(uab - prod) / max(np.linalg.norm(prod), 1e-30),
            np.linalg.norm(u_sum - u_split)
            / max(np.linalg.norm(u_sum), 1e-30),
            (p5 - p23).norm / max(p5.norm, 1e-30))


def _cmd_validate(args, algebra):
    rng = np.random.default_rng(args.seed)
    worst = [0.0] * len(_CHECKS)
    for _ in range(args.samples):
        a, b = (alg.random_element(algebra, rng) for _ in range(2))
        worst = [max(w, r) for w, r in zip(worst, _residuals(a, b))]
    lines = [f"{name}: {'pass' if value <= tol else 'FAIL'} "
             f"(residual {_fmt(value)}, tol {_fmt(tol)})"
             for (name, tol), value in zip(_CHECKS, worst)]
    failed = any(value > tol for (_, tol), value in zip(_CHECKS, worst))
    return lines, EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_spectrum(args, algebra):
    if not args.element:
        raise ParseError("spectrum requires --element")
    element = _parse_element(algebra, args.element)
    points = sorted(spectral.jordan_spectrum(element).points,
                    key=lambda z: (z.real, z.imag))
    return [f"{_fmt(p.real)},{_fmt(p.imag)}" for p in points], EXIT_OK


def _cmd_trotter(args, algebra):
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

    lines = ["formula,algebra,seed,n,error"] + [
        f"{args.formula},{args.algebra},{args.seed},{n},{_fmt(err)}"
        for n, err in zip(report.n_grid, report.errors)]
    slope = "exact" if report.exact else _fmt(report.fitted_slope)
    lines += [f"# slope={slope}", f"# target_norm={_fmt(report.target_norm)}"]

    # convergence sanity: the last error above the floor must not exceed
    # the first one
    above = [e for e in report.errors if e > trotter.ERROR_FLOOR]
    return lines, (EXIT_CHECK_FAILED if above and above[-1] > above[0]
                   else EXIT_OK)


# kind: the value of the functional ``kind:i`` at coordinate c = x_i
_COORDINATE_FUNCTIONALS = {"char": lambda c: c, "negchar": lambda c: -c,
                           "sqchar": lambda c: c ** 2}


def _builtin_functional(name: str, algebra: alg.AlgebraSpec):
    kind, sep, idx_text = name.partition(":")
    if sep and kind in _COORDINATE_FUNCTIONALS:
        try:
            idx = int(idx_text)
        except ValueError as exc:
            raise ParseError(f"bad functional index in {name!r}") from exc
        if not 0 <= idx < algebra.dim:
            raise ParseError(f"functional index {idx} out of range "
                             f"for {algebra.label}")
        value = _COORDINATE_FUNCTIONALS[kind]
        return fn.FunctionalHandle(
            lambda x: value(complex(x.coeffs[idx])), label=name)
    if name == "trace":
        try:
            n = alg._family_size(algebra, "matrix", "trace functional")
        except UnsupportedAlgebra as exc:
            raise ParseError(str(exc)) from exc
        diag = [i * n + i for i in range(n)]
        return fn.FunctionalHandle(
            lambda x: complex(sum(x.coeffs[i] for i in diag)) / n,
            label=name)
    raise ParseError(f"unknown functional {name!r}")


def _cmd_functional(args, algebra):
    if not args.functional:
        raise ParseError("functional subcommand requires --functional")
    handle = _builtin_functional(args.functional, algebra)
    try:  # the dichotomy: f(1) = -1 puts -f under the theory
        sign_flipped = fn.unit_sign(handle, algebra) == -1
    except (ZeroFunctional, NotUMultiplicative):  # the vetting reports these
        sign_flipped = False
    if sign_flipped:
        handle = fn.FunctionalHandle(lambda x, f=handle: -f(x),
                                     label=f"-({handle.label})")
    report = fn.verify_character_theorem(
        handle, algebra, seed=args.seed, n_samples=args.samples)

    lines = list(report.as_lines())
    lines.append(f"sign_flipped={sign_flipped}")
    return lines, EXIT_OK if report.passed else EXIT_CHECK_FAILED


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


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(
            f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """An argparse type: an int >= 1."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """An argparse type: an int >= 0 (a seed)."""
    return _int_at_least(text, 0)


def _load_config(path: str) -> dict:
    """Key-value config file, one ``key = value`` per line, '#' comments."""
    values = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


# flag: (type, default); a flag's dest is its name, "--n-grid" -> n_grid
_FLAGS = {
    "algebra": (str, None),
    "config": (str, None),
    "out": (str, None),
    "seed": (non_negative_int, 0),
    "samples": (positive_int, 20),
    "element": (str, None),
    "formula": (str, next(iter(trotter.FORMULAE))),
    "n_grid": (str, "16:4096:2"),
    "functional": (str, None),
}

# subcommand: (command, the flags it reads besides --algebra, --config and
# --out, which every subcommand takes)
_COMMANDS = {
    "validate": (_cmd_validate, ("seed", "samples")),
    "spectrum": (_cmd_spectrum, ("element",)),
    "trotter": (_cmd_trotter, ("seed", "formula", "n_grid")),
    "functional": (_cmd_functional, ("seed", "samples", "functional")),
}


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The argument parser; ``defaults`` replaces the subcommands' defaults."""
    parser = argparse.ArgumentParser(
        prog="jordannum",
        description="Jordan-algebra numerical experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in ("algebra", "config", "out") + flags:
            kind, default = _FLAGS[flag]
            p.add_argument("--" + flag.replace("_", "-"), dest=flag,
                           type=kind, default=default)
        p.set_defaults(**(defaults or {}))
    return parser


def _parse_args(argv):
    """Parse argv; values from a --config file fill the flags not given.

    The file's values become the parser's defaults before a second parse,
    so a flag given on the command line wins even when it equals the
    built-in default, and argparse converts the values as it would flags.
    A key the subcommand does not read is ignored.
    """
    args = build_parser().parse_args(argv)
    if not args.config:
        return args
    file_values = {key: value
                   for key, value in _load_config(args.config).items()
                   if hasattr(args, key) and key not in ("subcommand", "config")}
    return build_parser(file_values).parse_args(argv)


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parse_args(argv)
        if not args.algebra:
            raise ParseError("an algebra descriptor is required")
        command, _ = _COMMANDS[args.subcommand]
        lines, code = command(args, alg.from_descriptor(args.algebra))
        _write(args.out, out, lines)
        return code
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
