import dataclasses
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from pseudoherm.expressions import EvaluationError, evaluate
from pseudoherm.generator import (
    ConstantWModel,
    GeneratorSpec,
    GZeroError,
    QuadratureError,
    SpecError,
    antiderivative,
    constant_w_effective,
    derive,
    effective_potential,
    riccati_F,
    spec_to_config,
)


def scarf_spec(A=2.0, **kw):
    return GeneratorSpec(
        W="-A*sinh(x)/cosh(x)^2",
        antiderivative="A/cosh(x)",
        alpha=0.0,
        beta=-0.25,
        env={"A": A},
        **kw,
    )


def periodic_spec(**kw):
    return GeneratorSpec(
        W="4*sin(2*x)/(3*(cos(x)^2-4/3)^2)",
        antiderivative="4/(3*(cos(x)^2-4/3))",
        alpha=0.0,
        beta=1.0,
        **kw,
    )


def morse_spec(xi=1.0, **kw):
    return GeneratorSpec(
        W="-xi*exp(-x)",
        antiderivative="xi*exp(-x)",
        alpha=0.0,
        beta=-0.25,
        env={"xi": xi},
        **kw,
    )


ALL_SPECS = [
    (scarf_spec(), np.linspace(-6.0, 6.0, 200)),
    (periodic_spec(), np.linspace(-3.0, 3.0, 200)),
    (morse_spec(), np.linspace(-2.0, 10.0, 200)),
]


# ---------------------------------------------------------------------------
# antiderivative


def test_closed_form_antiderivative_scarf():
    assert antiderivative(scarf_spec(), 0.0) == 2.0


def test_closed_form_antiderivative_morse():
    assert antiderivative(morse_spec(), 0.0) == 1.0


def test_numeric_antiderivative_matches_closed_form():
    closed = scarf_spec()
    numeric = GeneratorSpec(
        W="-A*sinh(x)/cosh(x)^2", alpha=0.0, beta=-0.25, env={"A": 2.0}
    )
    xs = np.linspace(-5.0, 5.0, 100)
    expected = antiderivative(closed, xs) - antiderivative(closed, 0.0)
    assert np.max(np.abs(antiderivative(numeric, xs) - expected)) < 1e-8


# the inline generators of the benchmark, with the parameter values it draws
INLINE_W = {
    "-A*sinh(x)/cosh(x)^2": ("A", (3.0, 4.0, 5.0)),
    "-xi*exp(-x)": ("xi", (0.5, 1.0, 2.0)),
    "4*sin(2*x)/(3*(cos(x)^2-4/3)^2)": (None, (None,)),
}


@st.composite
def inline_samples(draw):
    W = draw(st.sampled_from(sorted(INLINE_W)))
    name, values = INLINE_W[W]
    value = draw(st.sampled_from(values))
    a = draw(st.floats(-12.0, 12.0))
    b = draw(st.floats(a, 12.0))
    xs = np.linspace(a, b, draw(st.integers(1, 60)))
    return GeneratorSpec(W=W, env={} if name is None else {name: value}), xs


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=60, deadline=None)
@given(inline_samples())
def test_numeric_antiderivative_matches_quad(sample):
    spec, xs = sample

    def w(t):
        return evaluate(spec.W, t, spec.env)

    # one independent integral from 0 per point, so the reference carries
    # no accumulated rounding of its own
    reference = np.array(
        [integrate.quad(w, 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=200)[0] for x in xs]
    )
    got = antiderivative(spec, xs)
    assert np.max(np.abs(got - reference) / np.maximum(1.0, np.abs(reference))) <= 1e-12


def test_numeric_antiderivative_memory_stays_bounded_on_long_windows():
    # panels widen on long windows; at the narrowest panel width this grid
    # would take about 60 MB of nodes and samples
    spec = GeneratorSpec(W="1")
    xs = np.linspace(-2000.0, 2000.0, 1001)
    tracemalloc.start()
    try:
        values = antiderivative(spec, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_allclose(values, xs, rtol=1e-14)
    assert peak < 30e6


def test_unbound_parameter_is_a_spec_error():
    with pytest.raises(SpecError, match="unbound parameter 'A'"):
        GeneratorSpec(W="-A*x")
    with pytest.raises(SpecError, match="unbound parameter 'B'"):
        GeneratorSpec(W="-A*x", antiderivative="-B*x^2/2", env={"A": 1.0})


def test_antiderivative_validation_rejects_mismatch():
    with pytest.raises(SpecError, match="antiderivative mismatch"):
        GeneratorSpec(W="sinh(x)", antiderivative="2*cosh(x)")


def test_quadrature_failure_on_divergent_integrand():
    # the quadrature from 0 to -2 crosses the pole at x = -1
    spec = GeneratorSpec(W="1/(x+1)")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(EvaluationError):
            antiderivative(spec, -2.0)


# ---------------------------------------------------------------------------
# derive


def test_scarf_real_potential_at_origin():
    model = derive(scarf_spec())
    assert model.V(0.0) == pytest.approx(-1.75, abs=1e-12)


def test_morse_real_potential_at_origin():
    model = derive(morse_spec(xi=2.0))
    assert model.V(0.0) == pytest.approx(-1.0, abs=1e-12)


def test_periodic_real_potential_at_origin():
    model = derive(periodic_spec())
    assert model.V(0.0) == pytest.approx(-6.0, abs=1e-12)


def test_zero_generator_is_a_domain_error():
    model = derive(GeneratorSpec(W="0"))
    with pytest.raises(GZeroError, match="vanishes at x"):
        model.V(1.0)


def test_gzero_error_reports_offending_point():
    # the periodic antiderivative never vanishes, but x*exp(-x^2) has an
    # odd antiderivative crossing zero at the origin
    spec = GeneratorSpec(W="x*exp(-x^2)", antiderivative="-exp(-x^2)/2 + 0.5")
    model = derive(spec)
    with pytest.raises(GZeroError, match="x = 0"):
        model.Q(np.array([1.0, 0.0]))


@pytest.mark.parametrize("spec,xs", ALL_SPECS)
def test_minus_two_g_prime_equals_w(spec, xs):
    model = derive(spec)
    assert np.max(np.abs(-2.0 * model.Gp(xs) - model.W(xs))) < 1e-8


@pytest.mark.parametrize("spec,xs", ALL_SPECS)
def test_v_minus_q_is_minus_g_squared_plus_beta(spec, xs):
    model = derive(spec)
    lhs = model.V(xs) - model.Q(xs)
    rhs = -model.G(xs) ** 2 + spec.beta
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("spec,xs", ALL_SPECS)
def test_alpha_shift_law(spec, xs):
    base = derive(dataclasses.replace(spec, alpha=0.0))
    shifted = derive(dataclasses.replace(spec, alpha=0.7))
    integral = antiderivative(spec, xs)
    expected = 0.7 / integral**2
    delta = shifted.V(xs) - base.V(xs)
    assert np.max(np.abs(delta - expected) / np.maximum(1.0, np.abs(expected))) < 1e-10


@pytest.mark.parametrize("spec,xs", ALL_SPECS)
def test_eta_coefficients_wired_from_g_and_q(spec, xs):
    model = derive(spec)
    assert_allclose(model.eta_c1(xs), -2j * model.G(xs), rtol=0, atol=0)
    assert_allclose(
        model.eta_c0(xs),
        model.Q(xs) + model.G(xs) ** 2 - 1j * model.Gp(xs),
        rtol=0,
        atol=0,
    )


# ---------------------------------------------------------------------------
# effective potentials


def test_scarf_effective_potential_origin():
    model = derive(scarf_spec(A=2.0))
    assert effective_potential(model, 0.0) == pytest.approx(-1.75 + 0j, abs=1e-12)


def test_morse_effective_potential_origin():
    model = derive(morse_spec(xi=2.0))
    assert effective_potential(model, 0.0) == pytest.approx(-1.0 - 2.0j, abs=1e-12)


def test_periodic_effective_potential_closed_form():
    model = derive(periodic_spec())
    xs = np.linspace(-3.0, 3.0, 50)
    closed = -6.0 / (np.cos(xs) + 2j * np.sin(xs)) ** 2
    assert np.max(np.abs(effective_potential(model, xs) - closed)) < 1e-10


def test_constant_w_first_term_vanishes():
    model = ConstantWModel(W0=2.0, C0=0.0, alpha=1.0, beta=0.0)
    xs = np.array([0.5, 1.0, 3.0])
    assert_allclose(
        constant_w_effective(model, xs), -xs**2 + 2j, rtol=0, atol=1e-14
    )


def test_constant_w_spot_value():
    model = ConstantWModel(W0=2.0, C0=0.0)
    assert constant_w_effective(model, 1.0) == pytest.approx(-1.25 + 2j, abs=1e-14)


def test_constant_w_real_part_unbounded_below():
    model = ConstantWModel(W0=2.0, C0=1.0, alpha=3.0, beta=5.0)
    assert constant_w_effective(model, 40.0).real < -1000.0
    assert constant_w_effective(model, -40.0).real < -1000.0


def test_constant_w_requires_nonzero_w0():
    with pytest.raises(SpecError):
        ConstantWModel(W0=0.0, C0=1.0)


def test_constant_w_pole_is_reported():
    model = ConstantWModel(W0=2.0, C0=-4.0)
    with pytest.raises(GZeroError, match="x = 2"):
        constant_w_effective(model, 2.0)


# ---------------------------------------------------------------------------
# Riccati diagnostic


def test_riccati_zero_q_fixed_point():
    model = types.SimpleNamespace(Q=lambda t: 0.0)
    sol = riccati_F(model, 0.0, 0.0, np.linspace(0.0, 5.0, 51))
    assert not sol.blew_up
    assert np.max(np.abs(sol.F)) < 1e-12


def test_riccati_constant_q_gives_minus_tanh():
    model = types.SimpleNamespace(Q=lambda t: 1.0)
    xs = np.linspace(-2.0, 3.0, 101)
    sol = riccati_F(model, 0.0, 0.0, xs)
    assert not sol.blew_up
    assert_allclose(sol.F, -np.tanh(sol.x), rtol=0, atol=1e-8)


def test_riccati_scarf_defect():
    model = derive(scarf_spec(A=2.0))
    xs = np.linspace(-2.0, 2.0, 4001)
    f0 = 0.5 * np.tanh(-2.0)  # seed on the globally smooth branch tanh(x)/2
    sol = riccati_F(model, -2.0, f0, xs)
    f = sol.F
    fp = (f[2:] - f[:-2]) / (sol.x[2] - sol.x[0])
    defect = f[1:-1] ** 2 - fp - model.Q(sol.x[1:-1])
    assert np.max(np.abs(defect)) < 1e-6


def test_riccati_blowup_flagged():
    model = types.SimpleNamespace(Q=lambda t: -1.0)
    sol = riccati_F(model, 0.0, 0.0, np.linspace(0.0, 3.0, 61))
    assert sol.blew_up
    assert sol.x.size < 61


def test_riccati_rejects_unsorted_grid():
    model = types.SimpleNamespace(Q=lambda t: 0.0)
    with pytest.raises(SpecError):
        riccati_F(model, 0.0, 0.0, np.array([0.0, 2.0, 1.0]))


# ---------------------------------------------------------------------------
# config interchange


def test_spec_config_round_trip():
    spec = scarf_spec(A=3.0)
    config = spec_to_config(spec)
    assert config["alpha"] == 0.0
    assert config["params"] == {"A": 3.0}
    rebuilt = GeneratorSpec(env=config.pop("params"), **config)
    xs = np.linspace(-2.0, 2.0, 9)
    assert_allclose(derive(rebuilt).V(xs), derive(spec).V(xs), rtol=0, atol=0)
