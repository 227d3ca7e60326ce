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
QUADRATURE_MAX_PANELS of them) and applies QUADPACK's qk21 to each: the
21-point Kronrod rule gives its value, and the difference to the embedded
10-point Gauss rule its error estimate.  A gap's tolerance, QUADRATURE_TOL *
max(1, |gap integral|), is shared by its panels, and one loop halves each
panel over its share, with half the share, up to QUADRATURE_DEPTH times.  A
gap whose summed error still exceeds its tolerance, as at a pole at 0, is a
QuadratureError, a domain error.  The values are summed outwards from 0.

G, Q and V all come from three samples, I, W and W', so a derived model
takes one sample set per point set, the three together: G, Q, V and W on
the same points cost one quadrature pass and one evaluation each of W and
W', and Q, which V holds, is formed once from them.  The model keeps only
the last point set.  Where I counts as zero, so that Q and V diverge, is
one model method, antiderivative_zero, which Q and the CLI's derive both
call.
"""

from dataclasses import dataclass, field

import numpy as np

from .expressions import (
    EvaluationError,
    _first_offender,
    _refuse,
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
QUADRATURE_DEPTH = 60  # halvings of a failing panel, which a gap next to 0 may need
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
        unread = set(self.env) - names
        if unread:
            raise SpecError("unread parameter '%s'" % "', '".join(sorted(unread)))
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
    _refuse(~np.isfinite(xs), "quadrature to a non-finite point", xs)
    order = np.argsort(xs)
    # the gaps between the sorted stops, 0 among them, are cut into equal panels
    zero = np.searchsorted(xs[order], 0.0)
    stops = np.insert(xs[order], zero, 0.0)
    gaps = np.diff(stops)
    # long windows get wider panels, so the node count stays bounded; the
    # span is taken in Python floats, whose overflow is a silent inf, so a
    # span past the float range gets one panel per gap
    span = float(stops[-1]) - float(stops[0])
    widest = max(QUADRATURE_PANEL, span / QUADRATURE_MAX_PANELS)
    panels = np.maximum(1, np.ceil(gaps / widest)).astype(int)
    first = np.cumsum(panels) - panels
    # each live panel is one entry: panel k of gap owner at depth d spans
    # stops[owner] + 2 * half * [k, k + 1], half = widths[owner] / 2^d, and
    # k is a float, which no halving can overflow
    owner = np.repeat(np.arange(gaps.size), panels)
    k = np.arange(owner.size, dtype=float) - first[owner]
    widths = 0.5 * (gaps / panels)
    values, errors, halved = np.zeros((3, gaps.size))
    for depth in range(QUADRATURE_DEPTH + 1):
        # W is sampled once at the 21 nodes of each live panel: its value is
        # the Kronrod rule's, and its error estimate |Kronrod - Gauss|
        half = widths[owner, None] * 0.5**depth
        nodes = stops[owner, None] + half * (2 * k[:, None] + 1 + KRONROD_NODES)
        kronrod, gauss = (half * (evaluate(spec.W, nodes, spec.env) @ KRONROD_WEIGHTS)).T
        misses = np.abs(kronrod - gauss)
        if depth == 0:
            whole = np.add.reduceat(kronrod, first)
            tol = QUADRATURE_TOL * np.maximum(1.0, np.abs(whole))
        # a panel's share of its gap's tolerance halves with its width;
        # negated, so that a NaN estimate (W overflowing on a node) also fails
        fail = ~(misses <= (tol / panels)[owner] * 0.5**depth)
        if not fail.any() or depth == QUADRATURE_DEPTH or 2 * fail.sum() > QUADRATURE_MAX_PANELS:
            break
        # the passing panels are done, and a failing panel k is halved into
        # panels 2k and 2k + 1
        values += np.bincount(owner, np.where(fail, 0.0, kronrod), gaps.size)
        errors += np.bincount(owner, np.where(fail, 0.0, misses), gaps.size)
        halved[owner[fail]] = 1
        owner, k = np.repeat(owner[fail], 2), (2 * k[fail, None] + (0, 1)).ravel()
    # the panels of the last depth count as they are, passing or not
    errors += np.bincount(owner, misses, gaps.size)
    for i in np.flatnonzero(~(errors <= tol)):
        raise QuadratureError(
            "quadrature error %.3g over [%g, %g] exceeds %g"
            % (errors[i], stops[i], stops[i + 1], QUADRATURE_TOL)
        )
    # a gap with no halved panel keeps the sum of its equal panels
    values = np.where(halved, values + np.bincount(owner, kronrod, gaps.size), whole)
    # accumulated outwards from x = 0 on each side, so no value carries the
    # rounding of a detour through the far end of the other side
    below, above = np.cumsum(values[:zero][::-1])[::-1], np.cumsum(values[zero:])
    out = np.empty_like(values)
    out[order] = np.concatenate((-below, above))
    return float(out[0]) if scalar else out.reshape(np.shape(x))


class DerivedModel:
    """The pipeline of one GeneratorSpec, returned by derive().  G, Gp, Q, V
    and W accept scalar or ndarray x and return new values each call.

    Each point set is sampled once: the first call on new points takes I, W
    and W' there, in that order, and the model keeps the three with a copy
    of the points (compared by content, so an array changed in place counts
    as new points) until a call on other points replaces them.  Q is formed
    once per point set too, by the first call of Q or V there, and kept
    next to the samples until they are replaced.
    """

    def __init__(self, spec):
        self.spec = spec
        self._w_prime = differentiate(spec.W)
        self._points = self._samples = self._q = None

    def _sampled(self, x):
        """(I, W, W') at x, taken once per point set; new points also drop Q."""
        points = (np.shape(x), np.asarray(x, dtype=float).tobytes())
        if points != self._points:
            i, env = antiderivative(self.spec, x), self.spec.env
            self._samples = i, evaluate(self.spec.W, x, env), evaluate(self._w_prime, x, env)
            self._points, self._q = points, None
        return self._samples

    def antiderivative_zero(self, x):
        """Where I = int W counts as zero at x, so that Q and V diverge:
        |I| <= ANTIDERIVATIVE_ZERO_TOL max(|W|, |W'|).  Relative to W and W',
        so a tail where I, W and W' decay together is not a zero, while a
        double zero of I (W = 0, W' != 0) still is."""
        i, w, wp = self._sampled(x)
        return np.abs(i) <= ANTIDERIVATIVE_ZERO_TOL * np.maximum(np.abs(w), np.abs(wp))

    def G(self, x):
        return -0.5 * self._sampled(x)[0]

    def Gp(self, x):
        # G' = -W/2, taken from the closed form's own derivative when there is one
        closed = self.spec.antiderivative
        gp = self.spec.W if closed is None else differentiate(closed)
        return -0.5 * evaluate(gp, x, self.spec.env)

    def W(self, x):
        w = self._sampled(x)[1]
        return w.copy() if isinstance(w, np.ndarray) else w

    def _kept_q(self, x):
        """Q at x, formed once per point set and kept with its samples; the
        array itself, which Q copies.  A zero of I is refused on every call,
        since nothing is kept then."""
        i, w, wp = self._sampled(x)
        if self._q is None:
            bad = self.antiderivative_zero(x)
            if np.any(bad):
                raise GZeroError(
                    "antiderivative of W vanishes at x = %g; V and Q diverge there"
                    % _first_offender(x, bad)
                )
            half = w / (2.0 * i)
            q = wp / (2.0 * i) - half**2
            # without alpha the term is absent, not 0 / I^2, which is NaN where
            # I^2 underflows (constant W0 = 1e-300)
            self._q = q + self.spec.alpha / i**2 if self.spec.alpha else q
        return self._q

    def Q(self, x):
        q = self._kept_q(x)
        return q.copy() if isinstance(q, np.ndarray) else q

    def V(self, x):
        return self._kept_q(x) - self.G(x) ** 2 + self.spec.beta


def derive(spec):
    """The derived model (G, G', Q, V, W) of one GeneratorSpec."""
    return DerivedModel(spec)


def effective_potential(model, x):
    """V(x) + iW(x)."""
    return model.V(x) + 1j * model.W(x)
