"""End-to-end acceptance checks at production grid sizes.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured values (run with -s to see them as they complete).  The
spectra at N=2000 are window solves below each model's spectrum_window
(certified shift-invert Arnoldi, a fraction of a second each), shared
through one module-scoped fixture, which takes the compared states and
their matches from eigen.catalog_states, as the spectrum command does;
criterion 9 checks the dense full-spectrum path on plain matrices.  The
whole file takes a few seconds.
"""

import dataclasses
import time
from functools import partial

import numpy as np
import pytest

from pseudoherm.catalog import get, morse_eigenfunction, periodic_eigenfunction
from pseudoherm.eigen import catalog_states, eig
from pseudoherm.expressions import evaluate
from pseudoherm.generator import derive, effective_potential
from pseudoherm.operators import (
    Grid,
    build_eta,
    build_hamiltonian,
    compose,
    eigenfunction_residual,
    hermiticity_residual,
    intertwining_residual,
)

MODELS = (("scarf2", {"A": 4.0}), ("periodic", {}), ("morse", {"xi": 1.0}))


def criterion(num, label, checks):
    """checks: list of (ok, text-with-measured-value). Prints one line, then
    asserts, so the line is visible for red criteria too."""
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(text for _, text in checks)
    print("criterion %2d %-24s %s | %s" % (num, label, "PASS" if ok else "FAIL", detail))
    failing = "; ".join(text for flag, text in checks if not flag)
    assert ok, failing


@pytest.fixture(scope="module")
def pipelines():
    return {name: (get(name, env), derive(get(name, env).spec)) for name, env in MODELS}


@pytest.fixture(scope="module")
def fine_operators(pipelines):
    out = {}
    for name, (entry, model) in pipelines.items():
        out[name] = (entry, model, build_hamiltonian(model, entry.grid), build_eta(model, entry.grid))
    return out


@pytest.fixture(scope="module")
def spectra(fine_operators):
    """(window report, states, matches, solve seconds) of each model and of
    scarf2 at A=1, the states and matches as spectrum reports them."""
    cases = {name: (entry, hamiltonian)
             for name, (entry, _, hamiltonian, _) in fine_operators.items()}
    entry = get("scarf2", {"A": 1.0})
    cases["scarf2 A=1"] = (entry, build_hamiltonian(derive(entry.spec), entry.grid))
    out = {}
    for name, (entry, hamiltonian) in cases.items():
        t0 = time.perf_counter()
        report = eig(hamiltonian, below=entry.spectrum_window)
        elapsed = time.perf_counter() - t0
        out[name] = (report, *catalog_states(report, entry.grid, entry, 1e-2), elapsed)
    return out


def test_criterion_01_derived_potentials_match_closed_forms():
    t0 = time.perf_counter()
    checks = []
    for name, env in MODELS:
        entry = get(name, env)
        model = derive(entry.spec)
        x = np.linspace(entry.grid.a, entry.grid.b, 200)
        derived = model.V(x)
        reference = evaluate(entry.analytic_V, x, entry.spec.env)
        # normwise relative error; pointwise relative is meaningless where
        # V underflows in the tails
        rel = float(np.max(np.abs(derived - reference)) / np.max(np.abs(reference)))
        checks.append((rel <= 1e-8, "%s rel %.2e (tol 1e-8)" % (name, rel)))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 1.0, "runtime %.2fs (limit 1s)" % elapsed))
    criterion(1, "derived potentials", checks)


def test_criterion_02_intertwining_relation(fine_operators):
    checks = []
    for name, (entry, model, hamiltonian, eta) in fine_operators.items():
        t0 = time.perf_counter()
        res_fine = intertwining_residual(hamiltonian, eta)
        half = Grid(entry.grid.a, entry.grid.b, entry.grid.n // 2)
        res_half = intertwining_residual(
            build_hamiltonian(model, half), build_eta(model, half)
        )
        elapsed = time.perf_counter() - t0
        ratio = res_half / res_fine
        checks.append((res_fine <= 1e-4, "%s res %.2e (tol 1e-4)" % (name, res_fine)))
        checks.append((ratio >= 3.5, "%s refine x%.2f (want >=3.5)" % (name, ratio)))
        checks.append((elapsed < 30.0, "%s runtime %.1fs (limit 30s)" % (name, elapsed)))
    criterion(2, "intertwining", checks)


def test_criterion_03_metric_and_product_hermiticity(fine_operators):
    checks = []
    for name, (entry, model, hamiltonian, eta) in fine_operators.items():
        res_eta = hermiticity_residual(eta)
        res_product = hermiticity_residual(compose(eta, hamiltonian))
        checks.append((res_eta == 0.0, "%s eta herm %.1e (want exact 0)" % (name, res_eta)))
        checks.append(
            (res_product <= 1e-4, "%s etaH herm %.2e (tol 1e-4)" % (name, res_product))
        )
    criterion(3, "Hermiticity", checks)


def test_criterion_04_scarf_spectrum(spectra):
    _, filtered4, _, elapsed4 = spectra["scarf2"]
    _, filtered1, _, _ = spectra["scarf2 A=1"]
    values4 = np.sort_complex(filtered4.eigenvalues)
    checks = [
        (
            len(values4) == 2,
            "A=4 filtered count %d (want exactly 2): %s"
            % (len(values4), np.round(values4, 5)),
        )
    ]
    if len(values4) >= 2:
        checks.append(
            (
                abs(values4[0].real + 2.25) <= 1e-3,
                "A=4 |l0+2.25| = %.2e (tol 1e-3)" % abs(values4[0].real + 2.25),
            )
        )
        checks.append(
            (
                abs(values4[1].real + 0.25) <= 1e-3,
                "A=4 |l1+0.25| = %.2e (tol 1e-3)" % abs(values4[1].real + 0.25),
            )
        )
        im_max = float(np.max(np.abs(values4.imag)))
        checks.append((im_max <= 1e-5, "A=4 max|Im| %.2e (tol 1e-5)" % im_max))
    values1 = np.sort_complex(filtered1.eigenvalues)
    ok1 = len(values1) == 1 and abs(values1[0].real + 0.25) <= 1e-3
    checks.append(
        (ok1, "A=1 filtered count %d at %s (want one at -0.25+-1e-3)"
         % (len(values1), np.round(values1, 5)))
    )
    checks.append((elapsed4 < 120.0, "solve %.1fs (limit ~2min)" % elapsed4))
    criterion(4, "Scarf II spectrum", checks)


def test_criterion_05_periodic_spectrum(spectra, fine_operators):
    entry, _, _, _ = fine_operators["periodic"]
    grid = entry.grid
    periodic_report, _, matches, _ = spectra["periodic"]
    matches = [m for m in matches if m.level in (0.25, 2.25, 4.0, 6.25)]
    checks = []
    for match in matches:
        checks.append(
            (
                match.matched,
                "level %.2f dist %.2e (tol 1e-2)" % (match.level, match.distance),
            )
        )
        im = abs(match.eigenvalue.imag)
        checks.append(
            (im <= 1e-5, "level %.2f |Im| %.2e (tol 1e-5)" % (match.level, im))
        )
    closed = grid.a + grid.h * np.arange(0, grid.n + 2)
    psi2_max = float(np.max(np.abs(periodic_eigenfunction(2, closed))))
    checks.append((psi2_max < 1e-12, "max|psi_2| %.2e (want <1e-12)" % psi2_max))
    # the missing level: eigenvalues near 1.0 are reported, never asserted
    near = periodic_report.eigenvalues[
        np.abs(periodic_report.eigenvalues.real - 1.0) <= 0.25
    ]
    checks.append((True, "near 1.0 (reported only): %s" % np.round(near, 4)))
    criterion(5, "periodic spectrum", checks)


def test_criterion_06_periodic_eigenfunction_residuals(pipelines):
    entry, model = pipelines["periodic"]
    checks = []
    for n in (1, 3, 4):
        res = eigenfunction_residual(
            model, entry.grid, partial(periodic_eigenfunction, n), n**2 / 4.0
        )
        checks.append((res <= 5e-3, "n=%d res %.2e (tol 5e-3)" % (n, res)))
    criterion(6, "periodic eigenfunctions", checks)


def test_criterion_07_morse_bound_state(spectra, pipelines):
    entry, model = pipelines["morse"]
    _, filtered, _, _ = spectra["morse"]
    values = np.sort_complex(filtered.eigenvalues)
    ok_count = len(values) == 1
    if len(values) >= 1:
        nearest = values[np.argmin(np.abs(values + 0.25))]
        ok_level = abs(nearest + 0.25) <= 1e-3
        level_text = "nearest %.5f%+.5fj" % (nearest.real, nearest.imag)
    else:
        ok_level = False
        level_text = "no filtered state to compare"
    res_derived = eigenfunction_residual(
        model, entry.grid, morse_eigenfunction(1.0), -0.25
    )
    res_printed = eigenfunction_residual(
        model, entry.grid, morse_eigenfunction(1.0, z_scale=2j), -0.25
    )
    checks = [
        (ok_count, "filtered count %d (want 1): %s" % (len(values), np.round(values, 5))),
        (ok_level, "level check at -0.25+-1e-3: %s" % level_text),
        (res_derived <= 5e-3, "psi0 residual (z = i xi e^-x) %.2e (tol 5e-3)" % res_derived),
        (res_printed > 0.1, "psi0 residual (z = 2i xi e^-x) %.2e (want >0.1)" % res_printed),
    ]
    criterion(7, "Morse bound state", checks)


def test_criterion_08_constant_generator_degenerate_case():
    spec = get("constant_w", {"W0": 2.0, "C0": 0.0}).spec
    model = derive(spec)
    W0, C0 = spec.env["W0"], spec.env["C0"]
    x = np.linspace(-20.0, 20.0, 100)  # even count, so the pole at 0 is never sampled
    got = effective_potential(model, x)
    u = W0 * x + C0
    want = (spec.alpha - W0**2 / 4.0) / u**2 - 0.25 * u**2 + 1j * W0 + spec.beta
    diff = float(np.max(np.abs(got - want)))
    ends = effective_potential(model, np.array([-20.0, 20.0])).real
    checks = [
        (diff <= 1e-12, "formula max|diff| %.2e (tol 1e-12)" % diff),
        (
            float(ends.max()) < -50.0,
            "Re V_eff at ends %s (want < -50)" % np.round(ends, 2),
        ),
    ]
    criterion(8, "constant generator", checks)


def test_criterion_09_eigensolver_properties():
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    worst_trace = worst_det = worst_sim = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 25))
        matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        values = eig(matrix).eigenvalues
        trace = np.trace(matrix)
        worst_trace = max(worst_trace, abs(values.sum() - trace) / abs(trace))
        det = np.linalg.det(matrix)
        worst_det = max(worst_det, abs(np.prod(values) - det) / abs(det))
        basis = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        basis += 3.0 * np.eye(n)
        shuffled = eig(np.linalg.solve(basis, matrix @ basis)).eigenvalues
        worst_sim = max(
            worst_sim,
            float(np.max(np.abs(values - shuffled)) / max(1.0, np.max(np.abs(values)))),
        )
    elapsed = time.perf_counter() - t0
    checks = [
        (worst_trace <= 1e-8, "trace rel %.2e (tol 1e-8)" % worst_trace),
        (worst_det <= 1e-8, "det rel %.2e (tol 1e-8)" % worst_det),
        (worst_sim <= 1e-6, "similarity %.2e (tol 1e-6)" % worst_sim),
        (elapsed < 5.0, "runtime %.2fs (limit 5s)" % elapsed),
    ]
    criterion(9, "eigensolver properties", checks)


def test_criterion_10_generator_identities(pipelines):
    checks = []
    for name, (entry, model) in pipelines.items():
        lo, hi = entry.spec.check_interval
        x = np.linspace(lo + 1e-3, hi - 1e-3, 200)
        gp_defect = float(np.max(np.abs(-2.0 * model.Gp(x) - model.W(x))))
        v_defect = float(
            np.max(np.abs(model.V(x) - (model.Q(x) - model.G(x) ** 2 + entry.spec.beta)))
        )
        checks.append((gp_defect <= 1e-8, "%s |-2G'-W| %.2e (tol 1e-8)" % (name, gp_defect)))
        checks.append((v_defect <= 1e-8, "%s |V-(Q-G^2+b)| %.2e (tol 1e-8)" % (name, v_defect)))
        delta = 0.7
        shifted = dataclasses.replace(entry.spec, alpha=entry.spec.alpha + delta)
        integral = np.asarray(evaluate(shifted.antiderivative, x, shifted.env))
        predicted = delta / integral**2
        observed = derive(shifted).Q(x) - model.Q(x)
        shift_rel = float(np.max(np.abs(observed - predicted) / np.abs(predicted)))
        checks.append((shift_rel <= 1e-10, "%s alpha-shift rel %.2e (tol 1e-10)" % (name, shift_rel)))
    criterion(10, "generator identities", checks)
