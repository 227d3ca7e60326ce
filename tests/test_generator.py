import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate

from pseudoherm.expressions import EvaluationError
from pseudoherm.generator import (
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    GeneratorSpec,
    GZeroError,
    QuadratureError,
    SpecError,
    antiderivative,
    derive,
    effective_potential,
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


def constant_spec(W0=2.0, C0=0.0, alpha=0.0, beta=0.0):
    return GeneratorSpec(
        W="W0",
        antiderivative="W0*x + C0",
        alpha=alpha,
        beta=beta,
        env={"W0": W0, "C0": C0},
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
# and the same function written independently with math, for the reference
INLINE_W = {
    "-A*sinh(x)/cosh(x)^2": (
        "A", (3.0, 4.0, 5.0), lambda t, A: -A * math.sinh(t) / math.cosh(t) ** 2
    ),
    "-xi*exp(-x)": ("xi", (0.5, 1.0, 2.0), lambda t, xi: -xi * math.exp(-t)),
    "4*sin(2*x)/(3*(cos(x)^2-4/3)^2)": (
        None,
        (None,),
        lambda t, _: 4.0 * math.sin(2.0 * t) / (3.0 * (math.cos(t) ** 2 - 4.0 / 3.0) ** 2),
    ),
}


@st.composite
def inline_samples(draw):
    W = draw(st.sampled_from(sorted(INLINE_W)))
    name, values, closed = INLINE_W[W]
    value = draw(st.sampled_from(values))
    a = draw(st.floats(-12.0, 12.0))
    b = draw(st.floats(a, 12.0))
    xs = np.linspace(a, b, draw(st.integers(1, 60)))
    spec = GeneratorSpec(W=W, env={} if name is None else {name: value})
    return spec, xs, lambda t: closed(t, value)


def test_kronrod_table_embeds_the_gauss_rule():
    nodes, weights = leggauss(10)
    assert_array_equal(KRONROD_NODES[1::2], nodes)
    assert_allclose(KRONROD_WEIGHTS[1::2, 1], weights, rtol=1e-14)
    assert_array_equal(KRONROD_WEIGHTS[::2, 1], 0.0)
    assert_allclose(KRONROD_WEIGHTS.sum(axis=0), [2.0, 2.0], rtol=1e-15)


def test_kronrod_rule_is_exact_up_to_degree_31():
    # the 21-point Kronrod rule extending the 10-point Gauss rule has degree 3 * 10 + 1
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert KRONROD_WEIGHTS[:, 0] @ KRONROD_NODES**k == pytest.approx(exact, abs=1e-14)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=60, deadline=None)
@given(inline_samples())
def test_numeric_antiderivative_matches_quad(sample):
    spec, xs, w = sample
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
    # integrated from 0, G is defined at the origin while Q is not
    inline = derive(GeneratorSpec(W="x*exp(-x^2)"))
    assert inline.G(0.0) == 0.0
    with pytest.raises(GZeroError, match="x = 0"):
        inline.Q(0.0)


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


INLINE_MORSE = (GeneratorSpec(W="-xi*exp(-x)", env={"xi": 1.0}), np.linspace(0.5, 14.0, 200))


@pytest.mark.parametrize("spec,xs", [*ALL_SPECS, INLINE_MORSE])
def test_samples_are_kept_by_content_not_identity(spec, xs):
    def sampled(model, x):
        return [f(x) for f in (model.G, model.Q, model.V, model.W)]

    model = derive(spec)
    x = xs.copy()
    model.V(x)
    x += 0.1  # the same array, holding new points
    assert_array_equal(sampled(model, x), sampled(derive(spec), x))
    other = xs - 0.05  # a second array of the same shape
    assert_array_equal(sampled(model, other), sampled(derive(spec), other))
    # a value handed out is the caller's to change
    model.W(other)[:] = 0.0
    model.G(other)[:] = 0.0
    assert_array_equal(sampled(model, other), sampled(derive(spec), other))


@pytest.mark.parametrize("spec,xs", ALL_SPECS)
def test_alpha_shift_law(spec, xs):
    base = derive(dataclasses.replace(spec, alpha=0.0))
    shifted = derive(dataclasses.replace(spec, alpha=0.7))
    integral = antiderivative(spec, xs)
    expected = 0.7 / integral**2
    delta = shifted.V(xs) - base.V(xs)
    assert np.max(np.abs(delta - expected) / np.maximum(1.0, np.abs(expected))) < 1e-10


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
    model = derive(constant_spec(W0=2.0, C0=0.0, alpha=1.0, beta=0.0))
    xs = np.array([0.5, 1.0, 3.0])
    assert_allclose(
        effective_potential(model, xs), -xs**2 + 2j, rtol=0, atol=1e-14
    )


def test_constant_w_spot_value():
    model = derive(constant_spec(W0=2.0, C0=0.0))
    assert effective_potential(model, 1.0) == pytest.approx(-1.25 + 2j, abs=1e-14)


def test_constant_w_real_part_unbounded_below():
    model = derive(constant_spec(W0=2.0, C0=1.0, alpha=3.0, beta=5.0))
    assert effective_potential(model, 40.0).real < -1000.0
    assert effective_potential(model, -40.0).real < -1000.0


def test_constant_w_pole_is_reported():
    model = derive(constant_spec(W0=2.0, C0=-4.0))
    with pytest.raises(GZeroError, match="x = 2"):
        effective_potential(model, 2.0)


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


def test_spec_with_infinite_constant_serializes():
    assert spec_to_config(GeneratorSpec(W="1e999*x"))["W"] == "1e999 * x"
