"""Each workload check accepts the program's correct output and rejects a
perturbed copy of it; the two known-fault checks accept the right answer.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import jordannum as jn  # noqa: E402
import jordannum.cli  # noqa: E402,F401
import oracles as orc  # noqa: E402
import workloads  # noqa: E402


def _element(x, scale=1e-5):
    coeffs = x.coeffs.copy()
    coeffs[-1] += scale * (1.0 + x.norm)
    return x.algebra.element(coeffs)


def _cli_text(kind, text):
    lines = text.splitlines()
    if kind == "cli.trotter":
        head, _, err = lines[1].rpartition(",")
        lines[1] = f"{head},{float(err) * 1.001!r}"
    else:
        lines = [ln for ln in lines if not ln.startswith("passed=")]
    return "\n".join(lines) + "\n"


def perturb(kind, out):
    """A wrong answer of the same type, just outside the check's tolerance."""
    if kind == "principal_component_sample":
        return out * np.exp(5.0)  # out of the annulus the method guarantees
    if isinstance(out, jn.Element):
        return _element(out)
    if kind == "exp_log":
        return out[0], _element(out[1])
    if kind.startswith("cli."):
        return out[0], _cli_text(kind, out[1])
    if kind == "convergence_report":
        return dataclasses.replace(
            out, errors=(out.errors[0] * 1.001,) + out.errors[1:])
    if kind == "general_trotter":
        return dataclasses.replace(out, target_norm=out.target_norm * (1 + 1e-5))
    if isinstance(out, jn.SpectrumSet):
        moved = (out.points[0] + 1e-4 * (1 + out.spectral_radius),)
        return dataclasses.replace(out, points=moved + out.points[1:])
    if isinstance(out, jn.CharacterReport):
        bad = copy.copy(out)
        bad.linearity_residual = 1e-4
        return bad
    if isinstance(out, np.ndarray):
        return out + 1e-6
    if isinstance(out, complex):
        return out + 1e-6
    raise TypeError(f"no perturbation for {kind}: {type(out)}")


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_checks_accept_output_and_reject_perturbed(name):
    state = workloads.SETUPS[name](jn, 3)
    seen = set()
    for exp in state.experiments:
        if exp.fault:
            continue
        out = exp.run()
        assert exp.check(out), exp.kind
        assert not exp.check(perturb(exp.kind, out)), exp.kind
        seen.add(exp.kind)
    assert seen


def _fault(state, fault):
    return [e for e in state.experiments if e.fault == fault]


def test_fn5_fault_check_accepts_an_exact_report():
    state = workloads.setup_trotter(jn, 0)
    exps = _fault(state, workloads.FN5_FAULT)
    assert len(exps) == 3
    for exp in exps:
        rep = exp.run()
        exact = dataclasses.replace(rep, errors=tuple(0.0 for _ in rep.errors),
                                    fitted_slope=None)
        assert exp.check(exact)
        assert not exp.check(dataclasses.replace(exact, fitted_slope=-2.0))


def test_jordan_block_fault_check_accepts_the_point_one():
    state = workloads.setup_calculus(jn, 0)
    (exp,) = _fault(state, workloads.JORDAN_BLOCK_FAULT)
    right = jn.SpectrumSet(points=(1.0 + 0j,), dedupe_tol=1e-6,
                           spectral_radius=1.0)
    assert exp.check(right)
    assert not exp.check(dataclasses.replace(right, points=(1.0 + 1e-4j,)))
    assert not exp.check(dataclasses.replace(right, points=(1.0, 1.0 + 1e-4j)))


@pytest.mark.parametrize("label", ["matrix:3", "spin:4", "fn:5",
                                   "sum:fn:2+matrix:2"])
def test_models_agree_with_closed_forms(label):
    model = orc.model_for(label)
    rng = np.random.default_rng(7)
    x, y = (workloads.gaussian(rng, model.dim) for _ in range(2))
    one = model.one()
    assert orc.close(model.mul(one, x), x, 1e-14)
    assert orc.close(model.U(x, one), model.mul(x, x), 1e-14)
    assert orc.close(model.U_pair(x, x, y), model.U(x, y), 1e-14)
    assert orc.close(model.power(x, 3), model.mul(x, model.mul(x, x)), 1e-13)
    assert orc.close(model.mul(model.exp(x), model.exp(-x)), one, 1e-13)
    assert orc.close(model.mul(x, model.inv(x)), one, 1e-10)
    w = model.spectrum(x)
    assert orc.same_spectrum(w, w, 1e-7)
    assert not orc.same_spectrum(w + 1e-5, w, 1e-7)


def test_second_order_slope():
    assert orc.second_order(-2.0) and orc.second_order(-1.95)
    assert not orc.second_order(-1.0)
    assert not orc.second_order(None)
