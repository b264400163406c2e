"""Evaluation of the Bessel / cylinder function family.

Wraps the vetted backend routines (scipy.special) in raw vectorized
evaluators (``jv``, ``jvp``, ``cyl``, ...; ``Y_nu`` as Im ``H1_nu``, bit for bit
``scipy.special.yv``; ``phase_step``, a root estimate from the phase of one
Hankel call), which every algorithm calls.  Each
contract function checks the domain, takes its value from one of them and
returns an :class:`EvalResult` with a conservative absolute-error estimate,
validated against an independent high-precision oracle on the fixture grid
shipped with the package (see ``data/accuracy_grid.csv``).

Supported members:

* ``J_nu``            Bessel function of the first kind,
* ``Y_nu``            Bessel function of the second kind,
* ``C_nu^alpha``      cylinder function ``cos(alpha) J_nu - sin(alpha) Y_nu``,
* ``J'_nu``           derivative, computed as ``(J_{nu-1} - J_{nu+1}) / 2``,
* scaled function     ``JJ_nu(x) = Gamma(nu+1) (x/2)^{-nu} J_nu(x)``,
* ``K_0``             modified Bessel function of the second kind, order 0.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp


class DomainError(ValueError):
    """Argument outside the supported domain of an operation."""


class Kind(enum.Enum):
    BESSEL_J = "j"
    BESSEL_Y = "y"
    CYLINDER = "c"
    BESSEL_J_PRIME = "jp"


@dataclass(frozen=True)
class FunctionId:
    """Identifies one member of the Bessel family.

    ``alpha`` is meaningful only for ``Kind.CYLINDER`` (angle in [0, pi)).
    Lommel polynomials are identified by ``LommelCoefficients`` instead.
    """

    kind: Kind
    order: float
    alpha: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.order).all():  # an array of orders is checked whole
            raise DomainError(f"the order must be finite; got {self.order}")
        if self.kind is Kind.CYLINDER:
            if self.alpha is None or not 0.0 <= self.alpha < math.pi:
                raise DomainError("cylinder kind requires alpha in [0, pi)")
        elif self.alpha is not None:
            raise DomainError("alpha is only meaningful for the cylinder kind")

    def label(self) -> str:
        if self.kind is Kind.CYLINDER:
            return f"C[nu={self.order:g}, alpha={self.alpha:g}]"
        name = {Kind.BESSEL_J: "J", Kind.BESSEL_Y: "Y", Kind.BESSEL_J_PRIME: "J'"}[self.kind]
        return f"{name}[nu={self.order:g}]"


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_error_estimate: float


def _envelope_j(nu: float, x: float) -> float:
    # Coarse amplitude bound for J_nu, used to scale error estimates.
    if x >= max(1.0, abs(nu)):
        return math.sqrt(2.0 / (math.pi * x))
    if nu >= 0.0:
        return 1.0
    t = nu * math.log(x / 2.0) - _sp.gammaln(nu + 1.0)
    return math.exp(min(t, 700.0))


# --- raw vectorized values (no wrapping); used by every algorithm ------------

def jv(nu, x):
    return _sp.jv(nu, x)


def _y(nu, x):
    """Im H1_nu(x), bit for bit Y_nu(x) from one AMOS call where `scipy.special.yv` makes
    two; `yv` answers for nu < 0, x < 0 and wherever H1 is not finite (x = 0, x >~ 1e17)."""
    y = _sp.hankel1(nu, x).imag.copy()  # contiguous, as yv returns it
    if y.ndim == 0:
        return y if nu >= 0 and x >= 0 and math.isfinite(y) else _sp.yv(nu, x)
    redo = (np.asarray(nu) < 0) | (np.asarray(x) < 0) | ~np.isfinite(y)
    if redo.any():
        nu, x = np.broadcast_arrays(nu, x)
        y[redo] = _sp.yv(nu[redo], x[redo])
    return y


def yv(nu, x):
    """Y_nu(x) from `_y`: scipy's `yv`, bit for bit, at about half its cost for nu >= 0."""
    return _y(nu, x)


def jvp(nu, x):
    return 0.5 * (_sp.jv(nu - 1.0, x) - _sp.jv(nu + 1.0, x))


def yvp(nu, x):
    return 0.5 * (_y(nu - 1.0, x) - _y(nu + 1.0, x))


def jvpp(nu, x):
    # from the Bessel differential equation
    x = np.asarray(x, dtype=float)
    return -jvp(nu, x) / x - (1.0 - (nu * nu) / (x * x)) * _sp.jv(nu, x)


def cyl(alpha, nu, x):
    return math.cos(alpha) * _sp.jv(nu, x) - math.sin(alpha) * _y(nu, x)


def cylp(alpha, nu, x):
    return math.cos(alpha) * jvp(nu, x) - math.sin(alpha) * yvp(nu, x)


def phase_step(alpha, nu, x, prime=False):
    """One Newton step in log x towards a zero of f = cos(alpha) J_nu - sin(alpha) Y_nu, on the
    phase of H1_nu = J_nu + i Y_nu (DLMF 10.18): f + i d = exp(i alpha) H1_nu is atan(f / d) in
    phase short of the zero, and the phase grows by 2 / (pi (f^2 + d^2)) per unit of log x.
    With `prime`, the phase of H1'_nu = (H1_{nu-1} - H1_{nu+1}) / 2 grows (1 - nu^2 / x^2) times as fast."""
    x = np.asarray(x, dtype=float)
    h = 0.5 * (_sp.hankel1(nu - 1.0, x) - _sp.hankel1(nu + 1.0, x)) if prime else _sp.hankel1(nu, x)
    w = h * complex(math.cos(alpha), math.sin(alpha))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.arctan(w.real / w.imag) * (0.5 * math.pi) * (w.real**2 + w.imag**2)
        return x * np.exp(t / (1.0 - (nu / x) ** 2) if prime else t)


def jj_scaled(nu, x):
    """Scaled function JJ_nu(x) = Gamma(nu+1) (x/2)^(-nu) J_nu(x); JJ_nu(0) = 1."""
    x = np.asarray(x, dtype=float)
    scale = np.exp(_sp.gammaln(nu + 1.0) - nu * np.log(np.where(x > 0, x, 1.0) / 2.0))
    out = np.where(x > 0, scale * _sp.jv(nu, x), 1.0)
    return out if out.ndim else float(out)


def jj_scaled_prime(nu, x):
    # d/dx of the scaled function, by direct differentiation of the product
    x = np.asarray(x, dtype=float)
    scale = np.exp(_sp.gammaln(nu + 1.0) - nu * np.log(x / 2.0))
    out = scale * (jvp(nu, x) - (nu / x) * _sp.jv(nu, x))
    return out if out.ndim else float(out)


# --- contract-level operations: the values above with error estimates -------

def bessel_j(nu: float, x: float) -> EvalResult:
    """J_nu(x) for nu > -1 or a negative integer order; J_nu(0) is infinite for -1 < nu < 0."""
    if x < 0.0:
        raise DomainError("bessel_j requires x >= 0")
    envelope_order = nu
    if nu <= -1.0:
        if nu != round(nu):
            raise DomainError("bessel_j requires nu > -1 (or a negative integer order)")
        # J_{-n} = (-1)^n J_n has the amplitude of order n
        envelope_order = -nu
    elif nu < 0.0 and x == 0.0:
        raise DomainError("bessel_j at x = 0 requires nu >= 0 or a negative integer order")
    value = float(jv(nu, x))
    est = 2e-13 * (abs(value) + _envelope_j(envelope_order, x))
    return EvalResult(value, est)


def bessel_j_scaled(nu: float, x: float) -> EvalResult:
    """JJ_nu(x) = Gamma(nu+1) (x/2)^(-nu) J_nu(x), normalized so JJ_nu(0) = 1."""
    if nu <= -1.0:
        raise DomainError("bessel_j_scaled requires nu > -1")
    if x < 0.0:
        raise DomainError("bessel_j_scaled requires x >= 0")
    if x == 0.0:
        return EvalResult(1.0, 0.0)
    value = float(jj_scaled(nu, x))
    scale = math.exp(_sp.gammaln(nu + 1.0) - nu * math.log(x / 2.0))
    est = 2e-13 * (abs(value) + scale * _envelope_j(nu, x))
    return EvalResult(value, est)


def bessel_y(nu: float, x: float) -> EvalResult:
    """Y_nu(x) for x > 0."""
    if x <= 0.0:
        raise DomainError("bessel_y requires x > 0")
    value = float(yv(nu, x))
    if x >= max(1.0, abs(nu)):
        env = math.sqrt(2.0 / (math.pi * x))
    else:
        env = abs(value)
    est = 5e-13 * (abs(value) + env)
    return EvalResult(value, est)


def bessel_j_prime(nu: float, x: float) -> EvalResult:
    """J'_nu(x) via (J_{nu-1}(x) - J_{nu+1}(x)) / 2, wherever J_{nu-1}(x) is finite."""
    if x < 0.0:
        raise DomainError("bessel_j_prime requires x >= 0")
    # the domain check on order nu - 1 leaves nu > 0 or an integer nu, and at
    # x = 0 also refuses 0 < nu < 1, where J'_nu(0) is infinite
    lo = bessel_j(nu - 1.0, x)
    hi = bessel_j(nu + 1.0, x)
    value = float(jvp(nu, x))
    est = 0.5 * (lo.abs_error_estimate + hi.abs_error_estimate)
    return EvalResult(value, est)


def cylinder(alpha: float, nu: float, x: float) -> EvalResult:
    """C_nu^alpha(x) = cos(alpha) J_nu(x) - sin(alpha) Y_nu(x); x > 0 unless alpha = 0."""
    if not 0.0 <= alpha < math.pi:
        raise DomainError("cylinder requires alpha in [0, pi)")
    if alpha == 0.0:
        return bessel_j(nu, x)
    j = bessel_j(nu, x)
    y = bessel_y(nu, x)
    value = float(cyl(alpha, nu, x))
    est = abs(math.cos(alpha)) * j.abs_error_estimate + abs(math.sin(alpha)) * y.abs_error_estimate
    return EvalResult(value, est)


def cylinder_prime(alpha: float, nu: float, x: float) -> EvalResult:
    """d/dx of the cylinder function."""
    if not 0.0 <= alpha < math.pi:
        raise DomainError("cylinder_prime requires alpha in [0, pi)")
    if x <= 0.0:
        raise DomainError("cylinder_prime requires x > 0")
    value = float(cylp(alpha, nu, x))
    jl = bessel_j(nu - 1.0, x) if nu - 1.0 > -1.0 else bessel_j(nu + 1.0, x)
    est = jl.abs_error_estimate + 1e-13 * abs(value)
    return EvalResult(value, est)


def modified_k0(x: float) -> EvalResult:
    """K_0(x) for x > 0."""
    if x <= 0.0:
        raise DomainError("modified_k0 requires x > 0")
    value = float(_sp.k0(x))
    est = 1e-13 * (abs(value) + 1e-300)
    return EvalResult(value, est)


def watson_integrand(u, c: float, nu: float):
    """Integrand of the order-derivative integral after substituting u = sinh t.

    Equals K_0(2 c u) (u + sqrt(1 + u^2))^(-2 nu) / sqrt(1 + u^2); integrating
    over u in (0, inf) and multiplying by 2c gives the derivative of a cylinder
    zero c with respect to the order nu.
    """
    u = np.asarray(u, dtype=float)
    root = np.sqrt(1.0 + u * u)
    return _sp.k0(2.0 * c * u) * (u + root) ** (-2.0 * nu) / root


def evaluate(fid: FunctionId, x: float) -> EvalResult:
    """Evaluate any supported FunctionId at x."""
    if fid.kind is Kind.BESSEL_J:
        return bessel_j(fid.order, x)
    if fid.kind is Kind.BESSEL_Y:
        return bessel_y(fid.order, x)
    if fid.kind is Kind.CYLINDER:
        return cylinder(fid.alpha, fid.order, x)
    return bessel_j_prime(fid.order, x)


def evaluators(kind: Kind, alpha: float | None = None):
    """The vectorized (value, derivative, `phase_step` towards a zero) of a kind, each f(order, x);
    `alpha` is the cylinder angle.  Every evaluation over a column of orders calls these."""
    pairs = {Kind.BESSEL_J: (jv, jvp), Kind.BESSEL_Y: (yv, yvp), Kind.BESSEL_J_PRIME: (jvp, jvpp),
             Kind.CYLINDER: ((lambda nu, x: cyl(alpha, nu, x)), (lambda nu, x: cylp(alpha, nu, x)))}
    angle = {Kind.CYLINDER: alpha, Kind.BESSEL_Y: 0.5 * math.pi}.get(kind, 0.0)
    return (*pairs[kind], lambda nu, x: phase_step(angle, nu, x, kind is Kind.BESSEL_J_PRIME))


def value_fn(fid: FunctionId):
    """Vectorized plain-value callable for a FunctionId (no error metadata)."""
    value = evaluators(fid.kind, fid.alpha)[0]
    return lambda x: value(fid.order, x)


def derivative_fn(fid: FunctionId):
    """Vectorized x-derivative callable for a FunctionId."""
    derivative = evaluators(fid.kind, fid.alpha)[1]
    return lambda x: derivative(fid.order, x)
