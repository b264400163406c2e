"""Merged zero sequences, common-zero detection, and interlacing verification.

For a base function f (one of J_nu, C_nu, J'_nu) and the shifted J_{nu+m} (or
C_{nu+m}), the classical interlacing of zeros breaks down once the order gap
exceeds 2.  It is restored by merging the higher-order zeros with the roots of
the compensating Lommel-type polynomial:

    base J_nu   ->  merge zeros of J_{nu+m} with roots of R_{m-1,nu+1},
    base C_nu   ->  merge zeros of C_{nu+m} with roots of R_{m-1,nu+1},
    base J'_nu  ->  merge zeros of J_{nu+m} with roots of R*_{m,nu}.

Common zeros (points where the base function vanishes together with the
higher-order one, decided from the higher-order function alone by `Pair.common`)
are removed from the base sequence and appear exactly once in the merged one;
the strict alternation base < merged < base < ... is then verified, on certified
stage-one intervals (`zeros.Intervals`): only zeros they cannot order, that the screen
of `Pair.common_in` (every query over the first K base zeros) cannot clear or that the
report prints are finished; no other zero is finished or residual-checked.

The module also evaluates the Wronskians W[J_nu, R_{m-1,nu+1} J_{nu+m}] and
W[J'_nu, R*_{m,nu} J_{nu+m}] both from analytic derivatives and from their
series expansions over the squared higher-order zeros, with explicit
truncation-tail bounds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lommel as _lommel
from . import special as _special
from .special import DomainError, FunctionId, Kind
from .zeros import _MAX_ZEROS, Intervals, _zero_stages, zeros


class Family(enum.Enum):
    BESSEL_J = "j"
    CYLINDER = "c"
    DERIVATIVE = "jp"


# --- the family triple ----------------------------------------------------------

COMMON_TOL = 1e-8  # default tolerance of the common-zero test `Pair.common`
# per family: (lower bound on nu, excluded; least m)
_DOMAIN = {Family.BESSEL_J: (-1.0, 1), Family.CYLINDER: (0.0, 1), Family.DERIVATIVE: (0.0, 0)}


@dataclass(frozen=True)
class Pair:
    """A base function, its order-shifted partner and their compensating polynomial.

        family   base     shifted     polynomial
        j        J_nu     J_{nu+m}    R_{m-1,nu+1}
        c        C_nu     C_{nu+m}    R_{m-1,nu+1}
        jp       J'_nu    J_{nu+m}    R*_{m,nu}

    The shifted function vanishes at a base zero exactly where the polynomial
    does, so the common zeros are base zeros that are polynomial roots; there
    are at most `max_common` of them.  `common` decides them from the shifted
    function alone: the polynomial's value at a float zero carries no sign.
    Construction checks the family's domain; `poly`, whose roots the merge
    takes, is built on first use and kept.  `alpha` is the cylinder angle; the
    other families reject a nonzero one.
    """

    family: Family
    m: int
    nu: float
    alpha: float = 0.0

    def __post_init__(self):
        nu_floor, m_min = _DOMAIN[self.family]
        if self.nu <= nu_floor:
            raise DomainError(f"family '{self.family.value}' requires nu > {nu_floor:g}")
        if self.m < m_min:
            raise DomainError(f"family '{self.family.value}' requires m >= {m_min}")
        if self.alpha != 0.0 and self.family is not Family.CYLINDER:
            raise DomainError(f"family '{self.family.value}' takes no alpha; alpha is for family 'c'")

    @property
    def base(self) -> FunctionId:
        kind = Kind(self.family.value)
        return FunctionId(kind, self.nu, self.alpha if kind is Kind.CYLINDER else None)

    @property
    def shifted(self) -> FunctionId:
        kind = Kind.BESSEL_J if self.family is Family.DERIVATIVE else Kind(self.family.value)
        return FunctionId(kind, self.nu + self.m, self.alpha if kind is Kind.CYLINDER else None)

    @cached_property
    def poly(self) -> _lommel.LommelCoefficients:
        """The compensating polynomial, built on first use and kept."""
        if self.family is Family.DERIVATIVE:
            return _lommel.lommel_coefficients(self.m, self.nu, _lommel.PolyKind.ASSOCIATED)
        return _lommel.lommel_coefficients(self.m - 1, self.nu + 1.0)

    @property
    def max_common(self) -> int:
        """Bound on the number of common zeros: half the polynomial's degree, rounded down."""
        return self.m // 2 if self.family is Family.DERIVATIVE else (self.m - 1) // 2

    @property
    def floor(self) -> float:
        """No common zero lies at or below it: every zero of J_mu lies above mu >= 0 (Watson
        §15.3), so a J or J' base zero at or below nu + m is none; C_{nu+m} has no such bound."""
        return 0.0 if self.family is Family.CYLINDER else self.nu + self.m

    def common(self, xs, tol: float = COMMON_TOL) -> np.ndarray:
        """The one common-zero test: which base zeros `xs` lie above `floor` and give the shifted
        function h a Newton step |h(x) / h'(x)| below tol min(1, x), read from h alone.  More than
        `max_common` hits is a RuntimeError; `tol` must satisfy 0 < tol < inf."""
        if not 0.0 < tol < math.inf:
            raise DomainError(f"the common-zero test requires 0 < tol < inf; got {tol}")
        xs = np.asarray(xs, dtype=float)
        mask = xs > self.floor  # h is evaluated above the floor only
        near = xs[mask]
        with np.errstate(invalid="ignore"):  # 0 * inf is nan, which fails the test
            hval = _special.value_fn(self.shifted)(near)
            hder = _special.derivative_fn(self.shifted)(near)
            mask[mask] = np.abs(hval) < tol * np.fmin(1.0, near) * np.abs(hder)
        if mask.sum() > self.max_common:
            raise RuntimeError(
                f"detected {mask.sum()} common zeros but at most {self.max_common} are possible; "
                "the tolerance is too loose"
            )
        return mask

    def common_in(self, base: Intervals, tol: float = COMMON_TOL) -> np.ndarray:
        """`common` on a stage-one row `base` (`_zero_stages`), finishing only the zeros a screen
        keeps: it clears an interval [lo, hi] that reaches no higher than `floor`, or where the
        shifted function h has one nonzero sign and |h| >= 2 tol min(1, hi) |h'(mid)| at both
        ends, as no zero there passes `common`."""
        if not 0.0 < tol < math.inf:  # before the screen finishes any zero
            raise DomainError(f"the common-zero test requires 0 < tol < inf; got {tol}")
        box = base.box.reshape(-1, 2)
        mask = box[:, 1] > self.floor  # h is evaluated above the floor only
        above = box[mask]
        h = _special.value_fn(self.shifted)(above)
        with np.errstate(invalid="ignore"):  # NaN (an unbounded interval's midpoint) clears nothing
            dh = np.abs(_special.derivative_fn(self.shifted)(above.mean(axis=1)))
            bound = 2.0 * tol * np.fmin(1.0, above[:, 1]) * dh
            mask[mask] = ~((np.sign(h[:, 0]) * np.sign(h[:, 1]) > 0.0) & (np.abs(h).min(axis=1) >= bound))
        mask[mask] = self.common(base.finish(np.flatnonzero(mask)), tol)
        return mask


class Source(enum.Enum):
    HIGHER_ORDER_ZERO = "higher-order-zero"
    LOMMEL_ROOT = "lommel-root"
    COMMON_ZERO = "common-zero"


@dataclass(frozen=True)
class MergedZeros:
    m: int
    nu: float
    family: Family
    entries: tuple  # of (value, Source), ascending
    alpha: float = 0.0

    def values(self) -> np.ndarray:
        return np.asarray([v for v, _ in self.entries], dtype=float)


@dataclass(frozen=True)
class CommonZeroSet:
    family: Family
    m: int
    nu: float
    points: tuple  # of (x, |f_base(x)|, |f_high(x)|)
    tolerance: float
    alpha: float = 0.0

    def values(self):
        return [p[0] for p in self.points]

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class InterlaceReport:
    family: Family
    m: int
    nu: float
    pattern: str
    ok: bool
    first_violation: int | None
    skipped_base_zeros: tuple
    violations: tuple = ()
    common_zeros: tuple = ()
    alpha: float = 0.0
    checked: int = 0

    def as_dict(self) -> dict:
        return {
            "family": self.family.value,
            "m": self.m,
            "nu": self.nu,
            "alpha": self.alpha,
            "pattern": self.pattern,
            "ok": self.ok,
            "first_violation": self.first_violation,
            "checked": self.checked,
            "violations": [list(v) for v in self.violations],
            "common_zeros": list(self.common_zeros),
            "skipped_base_zeros": list(self.skipped_base_zeros),
        }


@dataclass(frozen=True)
class WronskianSample:
    x: float
    direct: float
    series: float
    truncation_n: int
    tail_bound: float
    near_singularity: bool = False


@dataclass(frozen=True)
class PartialFractionResult:
    residual: float
    tail_estimate: float
    term_identity_error: float
    near_pole: bool = False


# --- operations ----------------------------------------------------------------


def detect_common_zeros(
    family: Family,
    m: int,
    nu: float,
    K: int,
    tol: float = COMMON_TOL,
    alpha: float = 0.0,
) -> CommonZeroSet:
    """Base-function zeros at which the higher-order function also vanishes,
    among the first K, as decided by `Pair.common_in`."""
    pair = Pair(family, m, nu, alpha)
    base = _zero_stages([pair.base], K)
    bval = _special.value_fn(pair.base)
    hval = _special.value_fn(pair.shifted)
    points = tuple((x, abs(float(bval(x))), abs(float(hval(x))))
                   for x in base.box[0, pair.common_in(base, tol), 0].tolist())
    return CommonZeroSet(family, m, nu, points, tol, alpha)


def _merged(pair: Pair, high: Intervals, common):
    """The shifted zeros `high` merged with the roots: (intervals, sources), as `_report` takes a
    list.  A common zero with a partner, the shifted zero within 0.5 (zeros lie at least 1 apart),
    tags it and drops its nearest root.  A shifted zero is read exact where its interval holds a
    root, which then follows it if equal, or lies within 1.0 of a common zero, as a partner does."""
    roots, box = pair.poly.roots(), high.box.reshape(-1, 2)
    at, reach = np.concatenate([roots, common]), np.repeat([0.0, 1.0], [roots.size, len(common)])
    high.finish(np.flatnonzero(((box[:, :1] - reach <= at) & (at <= box[:, 1:] + reach)).any(axis=1)))
    sources = [Source.HIGHER_ORDER_ZERO] * len(box)
    for c in common:
        partner = np.flatnonzero(np.abs(box[:, 0] - c) <= 0.5)
        if partner.size:
            sources[partner[0]] = Source.COMMON_ZERO
            roots = np.delete(roots, np.argmin(np.abs(roots - c)))
    sources += [Source.LOMMEL_ROOT] * roots.size
    merged = Intervals(np.concatenate([box, np.stack([roots, roots], axis=-1)]), high.finish)
    rows = np.argsort(merged.box[:, 0], kind="stable")
    return merged.take(rows), [sources[r] for r in rows]


def merged_sequence(
    family: Family,
    m: int,
    nu: float,
    K: int,
    alpha: float = 0.0,
) -> MergedZeros:
    """Ascending merge of the first K higher-order zeros with the polynomial roots,
    each common zero once, as COMMON_ZERO.  `Pair.common_in` tests the first K +
    max_common base zeros, which hold every common zero among the shifted ones."""
    pair = Pair(family, m, nu, alpha)
    base = _zero_stages([pair.base], K + pair.max_common)
    common = base.box[0, pair.common_in(base), 0]
    merged, sources = _merged(pair, _zero_stages([pair.shifted], K), common)
    entries = tuple(zip(merged.finish().tolist(), sources))
    return MergedZeros(pair.m, pair.nu, pair.family, entries, pair.alpha)


def _lists(pair: Pair, K: int):
    """Stage one of the first K base and shifted zeros, (base, shifted), from one `_zero_stages`
    pass where both are of one kind, as for J and C; the zero cap holds for each list alone."""
    if pair.base.kind is not pair.shifted.kind or 2 * K > _MAX_ZEROS:
        return _zero_stages([pair.base], K), _zero_stages([pair.shifted], K)
    both = _zero_stages([pair.base, pair.shifted], K)
    return both.take(np.arange(K)), both.take(np.arange(K, 2 * K))


def _report(pair: Pair, pattern: str, lower, middle, common: tuple = ()) -> InterlaceReport:
    """Check lower[i] < middle[i] < lower[i+1] as far as both lists reach, each `Intervals`
    around its zeros, in order.  A triple that the intervals do not order is finished in
    place and compared exactly; a verdict with no triple left to check is a RuntimeError,
    as `Pair.common`'s loose tolerance."""
    low, mid = lower.box.reshape(-1, 2), middle.box.reshape(-1, 2)
    n = min(len(low) - 1, len(mid))
    if n < 1:
        raise RuntimeError(f"no interlacing triple is left to check once {len(common)} base zeros "
                           "are taken for common zeros; the tolerance is too loose")
    unsure = np.flatnonzero((low[:n, 1] >= mid[:n, 0]) | (mid[:n, 1] >= low[1 : n + 1, 0]))
    lower.finish(np.concatenate([unsure, unsure + 1]))
    middle.finish(unsure)
    violations = [(i + 1, float(low[i, 0]), float(mid[i, 0]), float(low[i + 1, 0]))
                  for i in unsure.tolist() if not (low[i, 0] < mid[i, 0] < low[i + 1, 0])]
    ok = not violations
    return InterlaceReport(family=pair.family, m=pair.m, nu=pair.nu, pattern=pattern, ok=ok,
                           first_violation=None if ok else violations[0][0], skipped_base_zeros=common,
                           violations=tuple(violations), common_zeros=common, alpha=pair.alpha, checked=n)


def verify_plain_interlacing(
    family: Family, m: int, nu: float, K: int, alpha: float = 0.0
) -> InterlaceReport:
    """Strict alternation of the base zeros with the higher-order zeros alone."""
    pair = Pair(family, m, nu, alpha)
    if K < 3:
        raise DomainError("interlacing verification needs K >= 3")
    return _report(pair, "plain", *_lists(pair, K))


def verify_generalized_interlacing(
    family: Family, m: int, nu: float, K: int, tol: float = COMMON_TOL, alpha: float = 0.0
) -> InterlaceReport:
    """Alternation of the base zeros (common zeros removed) with the merged set.

    Takes each list once, as stage-one intervals; `Pair.common_in` finishes and decides the base
    zeros its screen does not clear, and only the zeros a verdict prints or cannot order are finished.
    """
    pair = Pair(family, m, nu, alpha)
    if K < 3:
        raise DomainError("interlacing verification needs K >= 3")
    base, high = _lists(pair, K)
    box, common = base.box.reshape(-1, 2), pair.common_in(base, tol)
    middle, sources = _merged(pair, high, box[common, 0])
    pattern = "generalized" if common.any() or {*sources} - {Source.HIGHER_ORDER_ZERO} else "classical"
    return _report(pair, pattern, base.take(np.flatnonzero(~common)), middle, tuple(box[common, 0].tolist()))


def no_consecutive_common_zeros(
    m: int, nu: float, K: int, tol: float = COMMON_TOL, family: Family = Family.BESSEL_J, alpha: float = 0.0
) -> bool:
    """No two adjacent base zeros are both common zeros."""
    pair = Pair(family, m, nu, alpha)
    flags = pair.common_in(_zero_stages([pair.base], K), tol)
    return not bool((flags[:-1] & flags[1:]).any())


def common_zero_sandwich(
    family: Family, m: int, nu: float, zeta: float, K: int = 40, alpha: float = 0.0
) -> bool:
    """Local pattern around a common zero zeta = base_s = high_k:

        high_{k-1} < base_{s-1} < zeta < base_{s+1} < high_{k+1},

    with the convention high_0 = base_0 = 0 for the leading indices; base_s,
    the base zero nearest zeta, must pass `Pair.common`.
    """
    pair = Pair(family, m, nu, alpha)
    if K < 2:  # before any zero is sought
        raise DomainError("K too small to bracket the common zero")
    base = zeros(pair.base, K).as_array()
    high = zeros(pair.shifted, K).as_array()
    s = int(np.argmin(np.abs(base - zeta)))
    k = int(np.argmin(np.abs(high - base[s])))
    if s + 1 >= base.size or k + 1 >= high.size:  # before the test: zeta may lie past base_K
        raise DomainError("K too small to bracket the common zero")
    if not pair.common(base[s : s + 1])[0]:
        raise ValueError("zeta is not a common zero of the base and higher-order functions")
    lo_high = high[k - 1] if k >= 1 else 0.0
    lo_base = base[s - 1] if s >= 1 else 0.0
    return bool(lo_high < lo_base < zeta < base[s + 1] < high[k + 1])


# --- Wronskian formulas ---------------------------------------------------------


def _tail_bound_factor(x: float, zs: np.ndarray) -> float:
    # sum_{k>N} (x^2+t^2)/(t^2-x^2)^2 over zeros t beyond zs[-1]; the summand is
    # decreasing in t for t > x and consecutive zeros are separated by > 3, so
    # the sum is below (1/3) * integral_{j_N}^inf = (1/3) * j_N / (j_N^2 - x^2).
    jn = float(zs[-1])
    if jn <= abs(x) + 1.0:
        raise DomainError("truncation too small: last zero must exceed x")
    return (1.0 / 3.0) * jn / (jn * jn - x * x)


def _wronskian(m, nu, x, N, f, fp, poly, s2, extra) -> WronskianSample:
    """W[f, poly * J_{nu+m}](x) from f and its derivative fp at x, and its series form
    with the weighted sum s2 and the term `extra` (0.0 for J, which keeps the bits)."""
    zs = zeros(FunctionId(Kind.BESSEL_J, nu + m), N).as_array()
    near = bool(np.min(np.abs(x - zs)) < 1e-6)

    jm = float(_special.jv(nu + m, x))
    jmp = float(_special.jvp(nu + m, x))
    R = float(poly(x))
    Rp = float(poly.prime(x))

    direct = f * (Rp * jm + R * jmp) - fp * R * jm

    s1 = float(np.sum((x * x + zs * zs) / (x * x - zs * zs) ** 2))
    series = 2.0 * jm * jm * (R * R * s1 + s2 / (x * x) + extra)
    tail = 2.0 * jm * jm * R * R * _tail_bound_factor(x, zs)
    return WronskianSample(x, direct, series, N, tail, near)


def wronskian_series(m: int, nu: float, x: float, N: int) -> WronskianSample:
    """W[J_nu, R_{m-1,nu+1} J_{nu+m}](x): analytic derivative form vs series form.

    The series form is

        2 J_{nu+m}^2(x) [ R_{m-1,nu+1}^2(x) * sum_k (x^2+j_k^2)/(x^2-j_k^2)^2
                          + (1/x^2) sum_{k=0}^{m-1} (nu+k+1) R_{k,nu+1}^2(x) ],

    summed over the positive zeros j_k of J_{nu+m}, truncated at N with an
    explicit bound on the discarded tail.
    """
    if nu <= -1.0 or m < 1 or not 0.0 < x < math.inf or N < 1:
        raise DomainError("wronskian_series requires nu > -1, m >= 1, 0 < x < inf, N >= 1")
    s2 = sum(
        (nu + k + 1.0) * float(_lommel.lommel_eval(k, nu + 1.0, x)) ** 2 for k in range(m)
    )
    f, fp = float(_special.jv(nu, x)), float(_special.jvp(nu, x))
    return _wronskian(m, nu, x, N, f, fp, _lommel.lommel_coefficients(m - 1, nu + 1.0), s2, 0.0)


def derivative_wronskian_series(m: int, nu: float, x: float, N: int) -> WronskianSample:
    """W[J'_nu, R*_{m,nu} J_{nu+m}](x): analytic derivative form vs series form.

    The series form carries the extra nu/(2x^2) term; at m = 0 it reduces to
    W[J'_nu, J_nu](x) = J_nu^2(x) (nu/x^2 + 2 sum_k (x^2+j_k^2)/(x^2-j_k^2)^2).
    """
    if not 0.0 < x < math.inf or N < 1:
        raise DomainError("derivative_wronskian_series requires 0 < x < inf, N >= 1")
    if not (nu > 0.0 and m >= 0) and not (nu == 0.0 and m >= 2):
        raise DomainError("requires nu > 0 with m >= 0, or nu = 0 with m >= 2")
    s2 = sum((nu + k) * float(_lommel.assoc_eval(k, nu, x)) ** 2 for k in range(1, m + 1))
    f, fp = float(_special.jvp(nu, x)), float(_special.jvpp(nu, x))
    poly = _lommel.lommel_coefficients(m, nu, _lommel.PolyKind.ASSOCIATED)
    return _wronskian(m, nu, x, N, f, fp, poly, s2, nu / (2.0 * x * x))


def partial_fraction_check(nu: float, x: float, N: int) -> PartialFractionResult:
    """Residual of the partial-fraction expansion of JJ_nu / JJ_{nu+1}.

        JJ_nu(x)/JJ_{nu+1}(x)
          = 1 + x sum_k a_k (1/(x - j_k) + 1/(x + j_k)),
        a_k = JJ_nu(j_k) / (j_k JJ'_{nu+1}(j_k)),   j_k = j_{nu+1,k}.

    The coefficients satisfy a_k = 1/(2(nu+1)) exactly; that identity is
    checked per term, and it also lets the discarded tail be estimated
    accurately from asymptotic zero positions.
    """
    if nu <= -1.0 or not 0.0 < x < math.inf or N < 1:
        raise DomainError("partial_fraction_check requires nu > -1, 0 < x < inf, N >= 1")
    zl = zeros(FunctionId(Kind.BESSEL_J, nu + 1.0), N)
    zs = zl.as_array()
    near = bool(np.min(np.abs(x - zs)) < 1e-6)

    jj_top = _special.jj_scaled(nu, zs)
    jjp_bot = _special.jj_scaled_prime(nu + 1.0, zs)
    coeff = jj_top / (zs * jjp_bot)
    expansion = 1.0 + x * float(np.sum(coeff * (1.0 / (x - zs) + 1.0 / (x + zs))))

    ident = np.max(np.abs(jj_top - zs / (2.0 * (nu + 1.0)) * jjp_bot))
    scale = np.max(np.abs(jj_top)) + 1e-300
    term_identity_error = float(ident / max(1.0, scale))

    # tail estimate: exact coefficient, asymptotic zero positions, then an
    # integral remainder for the far range
    M_EXT = 20000
    ks = np.arange(N + 1, N + 1 + M_EXT, dtype=float)
    a_shift = 0.5 * (nu + 1.0) - 0.25
    zt = (ks + a_shift) * math.pi
    mu4 = 4.0 * (nu + 1.0) ** 2
    zt = zt - (mu4 - 1.0) / (8.0 * zt)
    tail = x / (2.0 * (nu + 1.0)) * float(np.sum(2.0 * x / (x * x - zt * zt)))
    T = (N + M_EXT + a_shift + 1.0) * math.pi
    tail -= x * x / (nu + 1.0) * (1.0 / (2.0 * math.pi * x)) * math.log((T + x) / (T - x))

    ratio = float(_special.jj_scaled(nu, x)) / float(_special.jj_scaled(nu + 1.0, x))
    residual = abs(ratio - expansion - tail)
    return PartialFractionResult(residual, tail, term_identity_error, near)


# --- cylinder-specific structure -------------------------------------------------


@dataclass(frozen=True)
class CylinderPrefixReport:
    alpha: float
    nu: float
    m: int
    n_base: int
    n_poly: int
    count_ok: bool
    alternation_ok: bool
    sign_claims_ok: bool

    @property
    def ok(self) -> bool:
        return self.count_ok and self.alternation_ok and self.sign_claims_ok


def cylinder_prefix_alternation(alpha: float, nu: float, m: int) -> CylinderPrefixReport:
    """Structure of the zeros below the first zero of C_{nu+m}.

    On (0, c_{nu+m,1}) the base zeros c_1 < ... < c_N and the polynomial roots
    rho_1 < ... < rho_M strictly alternate with the base leading and M = N-1;
    alongside the sign claims (-1)^(k+1) R_{m-1,nu+1}(c_k) > 0 and
    (-1)^l C_nu(rho_l) > 0.
    """
    pair = Pair(Family.CYLINDER, m, nu, alpha)
    chi = zeros(pair.shifted, 1).zeros[0]
    k = 8
    while True:
        zl = zeros(pair.base, k).as_array()
        if zl[-1] >= chi:
            base = [float(c) for c in zl if c < chi]
            break
        k *= 2
    rho = [float(r) for r in pair.poly.roots() if r < chi]

    n_base, n_poly = len(base), len(rho)
    count_ok = n_poly == n_base - 1

    merged = sorted([(c, "c") for c in base] + [(r, "r") for r in rho])
    alternation_ok = bool(merged) and merged[0][1] == "c" and all(
        merged[i][1] != merged[i + 1][1] for i in range(len(merged) - 1)
    )

    cfun = _special.value_fn(pair.base)
    claims = all(
        (-1.0) ** (idx + 2) * pair.poly(c) > 0.0 for idx, c in enumerate(base)
    ) and all((-1.0) ** (idx + 1) * float(cfun(r)) > 0.0 for idx, r in enumerate(rho))

    return CylinderPrefixReport(alpha, nu, m, n_base, n_poly, count_ok, alternation_ok, claims)


def cylinder_wronskian_positivity(alpha: float, nu: float, m: int) -> bool:
    """x * W[C_{nu+m-1}, C_{nu+m}](x) > 0 past the first zero of C_{nu+m-1}."""
    if nu <= 0.0:
        raise DomainError("requires nu > 0")
    c1 = zeros(FunctionId(Kind.CYLINDER, nu + m - 1.0, alpha=alpha), 1).zeros[0]
    xs = np.linspace(c1 + 1e-3, c1 + 30.0, 60)
    f = _special.cyl(alpha, nu + m - 1.0, xs)
    fp = _special.cylp(alpha, nu + m - 1.0, xs)
    g = _special.cyl(alpha, nu + m, xs)
    gp = _special.cylp(alpha, nu + m, xs)
    w = f * gp - fp * g
    return bool(np.all(xs * w > 0.0))
