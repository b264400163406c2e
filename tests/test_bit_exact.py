"""The fast Lommel root solver and zero scan return the same floats, bit for
bit, as the straightforward versions they replaced.

The references below are the earlier implementations, kept verbatim: the
numpy-array polynomial kernels `_poly_eval`/`_poly_prime`, the Lommel root
refinement through them with a fixed 80-step bisection, and a zero scan that
evaluates whole 256-point batches.  Results are compared as `float.hex`, so
any change of the last bit fails.
"""

import importlib
import math
import random

import numpy as np
import pytest

from bessel_lommel import lommel as L
from bessel_lommel import special as S
from bessel_lommel.lommel import PolyKind
from bessel_lommel.special import FunctionId, Kind

Z = importlib.import_module("bessel_lommel.zeros")


def _hex(values):
    return [float(v).hex() for v in values]


def _poly_eval(coeffs, m: int, x):
    x = np.asarray(x, dtype=float)
    u = (x / 2.0) ** 2
    acc = np.zeros_like(u)
    for c in reversed(coeffs):
        acc = acc * u + c
    out = acc * (x / 2.0) ** (-m)
    return out if out.ndim else float(out)


def _poly_prime(coeffs, m: int, x):
    # d/dx sum c_k (x/2)^(2k-m) = (1/x) sum c_k (2k-m) (x/2)^(2k-m)
    x = np.asarray(x, dtype=float)
    u = (x / 2.0) ** 2
    acc = np.zeros_like(u)
    for k in range(len(coeffs) - 1, -1, -1):
        acc = acc * u + coeffs[k] * (2 * k - m)
    out = acc * (x / 2.0) ** (-m) / x
    return out if out.ndim else float(out)


def reference_root_positions(n, lam, kind=PolyKind.PLAIN):
    if kind is PolyKind.PLAIN:
        coeffs = L._plain_coeffs(n, lam + 1.0)
    else:
        coeffs = L._assoc_coeffs(n, lam)
    f = lambda x: _poly_eval(coeffs, n, x)
    fp = lambda x: _poly_prime(coeffs, n, x)

    if len(coeffs) < 2:
        return np.empty(0)
    candidates = np.polynomial.Polynomial(coeffs).roots()
    roots = []
    for u in candidates:
        if abs(u.imag) > 1e-8 * (1.0 + abs(u)) or u.real <= 0.0:
            continue
        x0 = 2.0 * math.sqrt(u.real)
        h = 1e-6 * (1.0 + x0)
        a, b = x0 - h, x0 + h
        fa, fb = f(a), f(b)
        for _ in range(60):
            if fa * fb <= 0.0:
                break
            h *= 2.0
            a, b = max(x0 - h, 1e-12), x0 + h
            fa, fb = f(a), f(b)
        if fa * fb > 0.0:
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = f(mid)
            if fa * fm <= 0.0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        x1 = 0.5 * (a + b)
        for _ in range(4):
            d = fp(x1)
            if d == 0.0:
                break
            step = f(x1) / d
            x2 = x1 - step
            if not a - 1e-9 <= x2 <= b + 1e-9:
                break
            x1 = x2
        roots.append(x1)
    roots.sort()
    return np.asarray(roots)


def reference_scan_brackets(f, x0, count, step, x_limit):
    brackets = []
    x = x0
    fx = float(f(np.asarray([x]))[0])
    batch = 256
    while len(brackets) < count:
        if x > x_limit:
            raise Z.ConvergenceError(
                f"found only {len(brackets)}/{count} sign changes scanning up to x={x:.6g}"
            )
        grid = x + step * np.arange(1, batch + 1)
        vals = np.asarray(f(grid), dtype=float)
        seq = np.concatenate(([fx], vals))
        bad = ~np.isfinite(seq)
        if bad.any():
            raise Z.ConvergenceError(f"non-finite function value near x={x:.6g}")
        flips = np.nonzero((seq[:-1] == 0.0) | (np.sign(seq[:-1]) != np.sign(seq[1:])))[0]
        for i in flips:
            a = x + step * i
            brackets.append((a, a + step))
            if len(brackets) == count:
                break
        x = float(grid[-1])
        fx = float(vals[-1])
    return brackets


def _root_cases():
    rng = random.Random(20231020)
    cases = []
    for _ in range(80):
        n = rng.randint(0, 69)
        lam = rng.uniform(0.0, 60.0) or 60.0
        cases.append((n, lam, rng.choice(list(PolyKind))))
    # high degree at small lam: the bracket search clamps its left end to
    # 1e-12, where (x/2)**(-n) overflows
    for _ in range(12):
        cases.append((rng.randint(50, 69), rng.uniform(0.001, 2.0), rng.choice(list(PolyKind))))
    cases.append((65, 11.686269377239014, PolyKind.ASSOCIATED))
    cases.append((67, 46.84961088264986, PolyKind.ASSOCIATED))
    return cases


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_root_positions_match_reference_bitwise():
    for n, lam, kind in _root_cases():
        # the reference takes the plain kind's offset lam = nu - 1
        got = L.root_positions(n, lam + 1.0 if kind is PolyKind.PLAIN else lam, kind)
        want = reference_root_positions(n, lam, kind)
        assert _hex(got) == _hex(want), (n, lam, kind)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("derivative", [False, True])
def test_scalar_kernel_matches_array_kernel_bitwise(derivative):
    rng = random.Random(7 + derivative)
    array_kernel = _poly_prime if derivative else _poly_eval
    for _ in range(1000):
        m = rng.randint(0, 70)
        nu = rng.uniform(0.01, 61.0)
        coeffs = L._assoc_coeffs(m, nu) if rng.random() < 0.5 else L._plain_coeffs(m, nu)
        kernel = L._scalar_kernel(coeffs, m, derivative)
        xs = [math.exp(rng.uniform(math.log(1e-3), math.log(400.0))) for _ in range(10)]
        if m >= 50:
            xs.append(1e-12)  # (x/2)**(-m) overflows: numpy gives inf
        for x in xs:
            want, got = array_kernel(coeffs, m, x), kernel(x)
            assert type(got) is float
            assert float(want).hex() == got.hex() or (math.isnan(want) and math.isnan(got)), (
                m, nu, x,
            )


def _scan_functions():
    rng = random.Random(99)
    for kind in (Kind.BESSEL_J, Kind.CYLINDER, Kind.BESSEL_J_PRIME):
        for _ in range(8):
            nu = rng.uniform(0.0, 40.0)
            if kind is Kind.CYLINDER:
                fid = FunctionId(kind, nu, alpha=rng.uniform(0.01, math.pi - 0.01))
            else:
                fid = FunctionId(kind, nu)
            yield fid, rng.randint(1, 200)


def test_scan_brackets_match_reference_bitwise():
    step = math.pi / 2.0
    for fid, _ in _scan_functions():
        f = S.value_fn(fid)
        x0 = Z._scan_start(fid)
        for count in (1, 2, 5, 60, 127, 128, 129, 200):
            limit = x0 + (count + 20) * math.pi * 2.0 + 100.0
            got = Z._scan_brackets(f, x0, count, step, limit)
            want = reference_scan_brackets(f, x0, count, step, limit)
            assert len(got) == len(want) == count
            assert _hex(np.ravel(got)) == _hex(np.ravel(want)), (fid, count)


def test_scan_brackets_limit_error_matches_reference():
    f = S.value_fn(FunctionId(Kind.BESSEL_J, 3.0))
    messages = []
    for scan in (Z._scan_brackets, reference_scan_brackets):
        with pytest.raises(Z.ConvergenceError, match="found only") as exc:
            scan(f, 3.0, 300, math.pi / 2.0, 10.0)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_zeros_match_reference_scan_bitwise(monkeypatch):
    cases = list(_scan_functions())
    got = [Z.zeros(fid, K) for fid, K in cases]
    monkeypatch.setattr(Z, "_scan_brackets", reference_scan_brackets)
    want = [Z.zeros(fid, K) for fid, K in cases]
    for (fid, K), g, w in zip(cases, got, want):
        assert _hex(g.zeros) == _hex(w.zeros), (fid, K)
        assert _hex(g.residuals) == _hex(w.residuals), (fid, K)
        assert g.method == w.method
