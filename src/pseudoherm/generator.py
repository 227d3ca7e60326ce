"""Pipeline from an imaginary potential part to the real part and metric data.

Given a generator function W(x), an antiderivative I(x) = int^x W (closed
form, or numeric quadrature from x = 0), and constants alpha, beta, this
produces

    G = -I/2
    Q = W'/(2I) - (W/(2I))^2 + alpha/I^2
    V = Q - G^2 + beta

together with the coefficient functions of the second-order metric
operator, c1 = -2iG and c0 = Q + G^2 - iG'.  The pipeline is undefined
where I vanishes; such points raise a domain error instead of returning
infinities.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .expressions import (
    EvaluationError,
    _first_offender,
    differentiate,
    evaluate,
    parse,
    to_source,
)

ANTIDERIVATIVE_CHECK_TOL = 1e-8
ANTIDERIVATIVE_ZERO_TOL = 1e-12
QUADRATURE_TOL = 1e-10
RICCATI_BLOWUP = 1e8


class SpecError(ValueError):
    """A model specification is malformed or incomplete."""


class GZeroError(EvaluationError):
    """The antiderivative of W vanishes at a requested evaluation point."""


class QuadratureError(EvaluationError):
    """Numeric antiderivative did not reach the requested tolerance."""


def _as_expr(source):
    return parse(source) if isinstance(source, str) else source


@dataclass(frozen=True)
class GeneratorSpec:
    """Input data for the derivation pipeline.

    W is the generator expression; antiderivative, when supplied, must be
    a closed form of int^x W with zero integration constant (verified
    against W at construction).  Without it, evaluation falls back to
    adaptive quadrature of W from x = 0, so I(0) = 0 and V, Q are undefined
    at the origin.
    """

    W: object
    antiderivative: object = None
    alpha: float = 0.0
    beta: float = 0.0
    env: dict = field(default_factory=dict)
    check_interval: tuple = (-1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "W", _as_expr(self.W))
        object.__setattr__(self, "antiderivative", _as_expr(self.antiderivative))
        if self.antiderivative is not None:
            self._check_antiderivative()

    def _check_antiderivative(self):
        lo, hi = self.check_interval
        xs = np.linspace(lo, hi, 100)
        derived = evaluate(differentiate(self.antiderivative), xs, self.env)
        w = evaluate(self.W, xs, self.env)
        err = np.max(np.abs(derived - w))
        if not err < ANTIDERIVATIVE_CHECK_TOL:
            raise SpecError(
                "antiderivative mismatch: |d/dx(%s) - W| reaches %.3g on [%g, %g]"
                % (to_source(self.antiderivative), err, lo, hi)
            )


def spec_to_config(spec):
    """JSON-ready dict form of a GeneratorSpec."""
    return {
        "W": to_source(spec.W),
        "antiderivative": None
        if spec.antiderivative is None
        else to_source(spec.antiderivative),
        "alpha": spec.alpha,
        "beta": spec.beta,
        "params": dict(spec.env),
    }


def antiderivative(spec, x):
    """Evaluate I(x) = int^x W, closed form when available."""
    if spec.antiderivative is not None:
        return evaluate(spec.antiderivative, x, spec.env)
    return _numeric_antiderivative(spec, x)


def _quad(w, lo, hi):
    value, abserr = integrate.quad(w, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
    if abserr > QUADRATURE_TOL * max(1.0, abs(value)):
        raise QuadratureError(
            "quadrature error %.3g over [%g, %g] exceeds %g"
            % (abserr, lo, hi, QUADRATURE_TOL)
        )
    return value


def _numeric_antiderivative(spec, x):
    def w(t):
        return evaluate(spec.W, t, spec.env)

    scalar = np.ndim(x) == 0
    xs = np.asarray(x, dtype=float).ravel()
    order = np.argsort(xs)
    sorted_xs = xs[order]
    # one short quad per gap between consecutive sample points, accumulated
    # from x = 0, instead of N long integrals
    stops = np.concatenate(([0.0], sorted_xs))
    gaps = [_quad(w, stops[i], stops[i + 1]) for i in range(len(sorted_xs))]
    values = np.cumsum(gaps)
    out = np.empty_like(values)
    out[order] = values
    return float(out[0]) if scalar else out.reshape(np.shape(x))


@dataclass(frozen=True)
class DerivedModel:
    """Callable bundle produced by derive(); every callable accepts scalar
    or ndarray x and is pure."""

    spec: GeneratorSpec
    G: object
    Gp: object
    Q: object
    V: object
    W: object
    eta_c0: object
    eta_c1: object


def derive(spec):
    """Wire the full pipeline for one GeneratorSpec."""
    env = spec.env
    w_expr = spec.W
    wp_expr = differentiate(w_expr)

    if spec.antiderivative is not None:
        anti_deriv_expr = differentiate(spec.antiderivative)

        def integral(x):
            return evaluate(spec.antiderivative, x, env)

        def g_prime(x):
            return -0.5 * evaluate(anti_deriv_expr, x, env)

    else:

        def integral(x):
            return _numeric_antiderivative(spec, x)

        def g_prime(x):
            return -0.5 * evaluate(w_expr, x, env)

    def w(x):
        return evaluate(w_expr, x, env)

    def g(x):
        return -0.5 * integral(x)

    def q(x):
        i = integral(x)
        w_x = evaluate(w_expr, x, env)
        wp_x = evaluate(wp_expr, x, env)
        # relative to W and W', so a tail where I, W and W' decay together
        # is not a zero, while a double zero of I (W = 0, W' != 0) still is
        scale = np.maximum(np.abs(w_x), np.abs(wp_x))
        bad = np.abs(i) <= ANTIDERIVATIVE_ZERO_TOL * scale
        if np.any(bad):
            raise GZeroError(
                "antiderivative of W vanishes at x = %g; V and Q diverge there"
                % _first_offender(x, bad)
            )
        half = w_x / (2.0 * i)
        return wp_x / (2.0 * i) - half**2 + spec.alpha / i**2

    def v(x):
        return q(x) - g(x) ** 2 + spec.beta

    def eta_c0(x):
        return q(x) + g(x) ** 2 - 1j * g_prime(x)

    def eta_c1(x):
        return -2j * g(x)

    return DerivedModel(
        spec=spec, G=g, Gp=g_prime, Q=q, V=v, W=w, eta_c0=eta_c0, eta_c1=eta_c1
    )


def effective_potential(model, x):
    """V(x) + iW(x)."""
    return model.V(x) + 1j * model.W(x)


@dataclass(frozen=True)
class ConstantWModel:
    """Constant generator W(x) = W0: the pipeline degenerates to a closed
    form whose real part is unbounded below, so no bound states exist."""

    W0: float
    C0: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.W0 == 0.0:
            raise SpecError("constant generator requires W0 != 0")


def constant_w_effective(model, x):
    """Effective potential of the constant-W degenerate case."""
    u = model.W0 * np.asarray(x, dtype=float) + model.C0
    bad = np.abs(u) < ANTIDERIVATIVE_ZERO_TOL
    if np.any(bad):
        raise GZeroError(
            "pole of the constant-W effective potential at x = %g"
            % (-model.C0 / model.W0)
        )
    value = (
        (model.alpha - model.W0**2 / 4.0) / u**2
        - 0.25 * u**2
        + 1j * model.W0
        + model.beta
    )
    return complex(value) if np.ndim(x) == 0 else value


@dataclass(frozen=True)
class RiccatiSolution:
    """Samples of F along the requested grid; blew_up marks an early stop."""

    x: np.ndarray
    F: np.ndarray
    blew_up: bool


def riccati_F(model, x0, F0, xs):
    """Integrate F' = F^2 - Q from (x0, F0) across the sorted sample grid xs.

    Integration stops where |F| reaches 1e8; the partial samples are
    returned with blew_up set.  Only Q enters the metric construction, so
    this is a diagnostic, not part of the verification path.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or np.any(np.diff(xs) <= 0):
        raise SpecError("riccati_F needs a strictly increasing sample grid")
    if not (xs[0] <= x0 <= xs[-1]):
        raise SpecError("x0 must lie inside the sample grid")

    def rhs(t, y):
        return [y[0] ** 2 - model.Q(t)]

    def blowup(t, y):
        return abs(y[0]) - RICCATI_BLOWUP

    blowup.terminal = True

    collected_x = []
    collected_f = []
    blew_up = False
    for t_eval in (xs[xs < x0][::-1], xs[xs >= x0]):
        if t_eval.size == 0:
            continue
        sol = integrate.solve_ivp(
            rhs,
            (x0, t_eval[-1]),
            [F0],
            t_eval=t_eval,
            events=blowup,
            method="RK45",
            rtol=1e-10,
            atol=1e-12,
        )
        collected_x.append(sol.t)
        collected_f.append(sol.y[0])
        blew_up = blew_up or sol.status == 1
    order = np.argsort(np.concatenate(collected_x))
    return RiccatiSolution(
        x=np.concatenate(collected_x)[order],
        F=np.concatenate(collected_f)[order],
        blew_up=blew_up,
    )
