"""Pipeline from an imaginary potential part to the real part and metric data.

Given a generator function W(x), an antiderivative I(x) = int^x W (closed
form, or composite Gauss-Kronrod quadrature from x = 0), and constants
alpha, beta, this produces

    G = -I/2
    Q = W'/(2I) - (W/(2I))^2 + alpha/I^2
    V = Q - G^2 + beta

and G' = -W/2.  operators.build_eta builds the second-order metric operator
eta from G and Q.  The pipeline is undefined where I vanishes; such points
raise a domain error instead of returning infinities.

The numeric antiderivative cuts the gaps between 0 and the sorted points
into equal panels of at most QUADRATURE_PANEL (wider on a span longer than
QUADRATURE_MAX_PANELS of them) and samples W at the 21 nodes of each: the
Kronrod rule gives the panel's value, and its difference to the embedded
10-point Gauss rule the error estimate (QUADPACK's qk21).  The values are
summed outwards from 0, and a gap whose estimate exceeds QUADRATURE_TOL is
a QuadratureError, a domain error.

G, Q and V all come from three samples, I, W and W', so a derived model
takes each of them once per point set and reuses them: G, Q, V and W on
the same points cost one quadrature pass and one evaluation each of W and
W'.  The model keeps only the last point set.
"""

from dataclasses import dataclass, field

import numpy as np

from .expressions import (
    EvaluationError,
    _first_offender,
    differentiate,
    evaluate,
    free_parameters,
    parse,
    to_source,
)

ANTIDERIVATIVE_CHECK_TOL = 1e-8
ANTIDERIVATIVE_ZERO_TOL = 1e-12
QUADRATURE_TOL = 1e-10
QUADRATURE_PANEL = 0.05
QUADRATURE_MAX_PANELS = 2**14
# QUADPACK's qk21 (Piessens et al., 1983): the 21-point Gauss-Kronrod rule
# on [-1, 1] (Kronrod, 1965) with its embedded 10-point Gauss rule, as rows
# (node, Kronrod weight, Gauss weight) of the nonnegative nodes from 1 down to
# 0.  The Gauss rule's nodes are the odd-indexed ones; it has weight 0 at the rest.
_QK21 = np.array([
    (0.995657163025808080736, 0.011694638867371874278, 0.0),
    (0.973906528517171720078, 0.032558162307964727479, 0.066671344308688137594),
    (0.930157491355708226001, 0.054755896574351996031, 0.0),
    (0.865063366688984510732, 0.075039674810919952767, 0.149451349150580593146),
    (0.780817726586416897064, 0.093125454583697605535, 0.0),
    (0.679409568299024406234, 0.109387158802297641899, 0.219086362515982043996),
    (0.562757134668604683339, 0.123491976262065851077, 0.0),
    (0.433395394129247190799, 0.134709217311473325928, 0.269266719309996355091),
    (0.294392862701460198131, 0.142775938577060080797, 0.0),
    (0.148874338981631210885, 0.147739104901338491375, 0.295524224714752870174),
    (0.0, 0.149445554002916905665, 0.0),
])
# mirrored: the 21 nodes in ascending order, and the Kronrod and Gauss weights
# at each as the two columns of a (21, 2) matrix
KRONROD_NODES = np.concatenate((-_QK21[:, 0], _QK21[-2::-1, 0]))
KRONROD_WEIGHTS = np.concatenate((_QK21[:, 1:], _QK21[-2::-1, 1:]))


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
    a closed form of int^x W: at construction its derivative must agree with
    W to ANTIDERIVATIVE_CHECK_TOL * max(1, max|W|) at 100 points of
    check_interval.  Without it, evaluation falls back to composite
    Gauss-Kronrod quadrature of W from x = 0, so I(0) = 0 and V, Q are
    undefined at the origin.  Every parameter of either expression must be
    bound in env.
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
        names = free_parameters(self.W) | free_parameters(self.antiderivative)
        unbound = names - set(self.env)
        if unbound:
            raise SpecError("unbound parameter '%s'" % "', '".join(sorted(unbound)))
        if self.antiderivative is not None:
            self._check_antiderivative()

    def _check_antiderivative(self):
        lo, hi = self.check_interval
        xs = np.linspace(lo, hi, 100)
        derived = evaluate(differentiate(self.antiderivative), xs, self.env)
        w = evaluate(self.W, xs, self.env)
        err = np.max(np.abs(derived - w))
        if not err < ANTIDERIVATIVE_CHECK_TOL * max(1.0, np.max(np.abs(w))):
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


def _numeric_antiderivative(spec, x):
    scalar = np.ndim(x) == 0
    xs = np.asarray(x, dtype=float).ravel()
    order = np.argsort(xs)
    # the gaps between consecutive sorted stops, 0 among them, are cut into
    # equal panels; W is sampled once at the 21 Gauss-Kronrod nodes of each
    zero = np.searchsorted(xs[order], 0.0)
    stops = np.insert(xs[order], zero, 0.0)
    gaps = np.diff(stops)
    # long windows get wider panels, so the node count stays bounded
    widest = max(QUADRATURE_PANEL, (stops[-1] - stops[0]) / QUADRATURE_MAX_PANELS)
    panels = np.maximum(1, np.ceil(gaps / widest)).astype(int)
    first = np.cumsum(panels) - panels
    owner = np.repeat(np.arange(gaps.size), panels)
    # panel k of gap j spans stops[j] + 2 * half * [k, k + 1]
    k = (np.arange(owner.size) - first[owner])[:, None]
    half = 0.5 * (gaps / panels)[owner, None]
    nodes = stops[owner, None] + half * (2 * k + 1 + KRONROD_NODES)
    # each panel's value is the Kronrod rule's, and its error estimate that of
    # the Gauss rule, |Kronrod - Gauss|
    kronrod, gauss = (half * (evaluate(spec.W, nodes, spec.env) @ KRONROD_WEIGHTS)).T
    values = np.add.reduceat(kronrod, first)
    errors = np.add.reduceat(np.abs(kronrod - gauss), first)
    # negated, so that a NaN estimate (W overflowing on a node) also fails
    bad = ~(errors <= QUADRATURE_TOL * np.maximum(1.0, np.abs(values)))
    if np.any(bad):
        i = np.argmax(bad)
        raise QuadratureError(
            "quadrature error %.3g over [%g, %g] exceeds %g"
            % (errors[i], stops[i], stops[i + 1], QUADRATURE_TOL)
        )
    # accumulated outwards from x = 0 on each side, so no value carries the
    # rounding of a detour through the far end of the other side
    below, above = np.cumsum(values[:zero][::-1])[::-1], np.cumsum(values[zero:])
    out = np.empty_like(values)
    out[order] = np.concatenate((-below, above))
    return float(out[0]) if scalar else out.reshape(np.shape(x))


class DerivedModel:
    """The pipeline of one GeneratorSpec, returned by derive().  G, Gp, Q, V
    and W accept scalar or ndarray x and return new values each call.

    Each point set is sampled once and reused: I, W and W' are each taken
    at most once per point set, when first needed.  The model keeps the
    last point set (a copy of x, compared by content, so an array changed
    in place counts as new points) with the samples taken on it; a new
    point set replaces it.
    """

    def __init__(self, spec):
        self.spec = spec
        env = spec.env
        w_prime = differentiate(spec.W)
        # G' = -W/2, taken from the closed form's own derivative when there is one
        closed = spec.antiderivative
        self._gp = spec.W if closed is None else differentiate(closed)
        self._samplers = {
            "I": lambda x: antiderivative(spec, x),
            "W": lambda x: evaluate(spec.W, x, env),
            "Wp": lambda x: evaluate(w_prime, x, env),
        }
        self._points = None
        self._samples = {}

    def _sample(self, name, x):
        """I, W or W' at x, taken once per point set."""
        points = (np.shape(x), np.asarray(x, dtype=float).tobytes())
        if points != self._points:
            self._points, self._samples = points, {}
        if name not in self._samples:
            self._samples[name] = self._samplers[name](x)
        return self._samples[name]

    def G(self, x):
        return -0.5 * self._sample("I", x)

    def Gp(self, x):
        return -0.5 * evaluate(self._gp, x, self.spec.env)

    def W(self, x):
        w = self._sample("W", x)
        return w.copy() if isinstance(w, np.ndarray) else w

    def Q(self, x):
        bad = _antiderivative_zero(self, x)
        if np.any(bad):
            raise GZeroError(
                "antiderivative of W vanishes at x = %g; V and Q diverge there"
                % _first_offender(x, bad)
            )
        i, w, wp = (self._sample(name, x) for name in ("I", "W", "Wp"))
        half = w / (2.0 * i)
        q = wp / (2.0 * i) - half**2
        # without alpha the term is absent, not 0 / I^2, which is NaN where
        # I^2 underflows (constant W0 = 1e-300)
        return q + self.spec.alpha / i**2 if self.spec.alpha else q

    def V(self, x):
        return self.Q(x) - self.G(x) ** 2 + self.spec.beta


def _antiderivative_zero(model, x):
    """Where I = int W counts as zero at x, so that Q and V diverge:
    |I| <= ANTIDERIVATIVE_ZERO_TOL max(|W|, |W'|).  Relative to W and W', so
    a tail where I, W and W' decay together is not a zero, while a double
    zero of I (W = 0, W' != 0) still is."""
    i, w, wp = (model._sample(name, x) for name in ("I", "W", "Wp"))
    return np.abs(i) <= ANTIDERIVATIVE_ZERO_TOL * np.maximum(np.abs(w), np.abs(wp))


def derive(spec):
    """The derived model (G, G', Q, V, W) of one GeneratorSpec."""
    return DerivedModel(spec)


def effective_potential(model, x):
    """V(x) + iW(x)."""
    return model.V(x) + 1j * model.W(x)
