"""AGM oracles: K, E, theta3, the quarter constant, and the nome."""

import ast
import math
import pathlib
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellseries import (DomainError, E_ref, K_ref, agm, b_quarter, make_context,
                       nome, oracle, solve_kr, theta3)

# Reference values, 60 digits (standard tables / lemniscatic constants).
AGM_1_SQRT2 = "1.19814023473559220743992249228032387822721266321565155826367"
K_LEMN = "1.85407467730137191843385034719526004621759882352176690558593"
E_LEMN = "1.35064388104767550252017473533872584134952236692435454532325"
THETA3_EPI = "1.08643481121330801457531612151022345707020570724521888592079"
GAMMA_QUARTER = "3.62560990822190831193068515586767200299516768288006546743338"
B_QUARTER_OVER_PI = "2.36068119803219245209067588111697717446743326976289459903173"
EXP_MINUS_PI = "0.0432139182637722497744177371717280112757281098106330829807197"


def test_agm_fixed_point(ctx50):
    assert agm(1, 1, ctx50).value == 1


def test_agm_reference(ctx50):
    assert abs(agm(1, ctx50.sqrt(2), ctx50).value - ctx50.mpf(AGM_1_SQRT2)) <= ctx50.tol(58)


def test_agm_rejects_nonpositive(ctx50):
    with pytest.raises(DomainError):
        agm(0, 1, ctx50)
    with pytest.raises(DomainError):
        agm(1, -2, ctx50)


@settings(deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
       st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_agm_symmetry(a, b):
    ctx = make_context(30)
    x, y = ctx.mpf(a), ctx.mpf(b)
    assert abs(agm(x, y, ctx).value - agm(y, x, ctx).value) <= ctx.tol(32) * max(1, x, y)


@settings(deadline=None)
@given(st.floats(min_value=0.01, max_value=100, allow_nan=False))
def test_agm_homogeneity(lam):
    ctx = make_context(30)
    lam = ctx.mpf(lam)
    lhs = agm(lam, 2 * lam, ctx).value
    rhs = lam * agm(1, 2, ctx).value
    assert abs(lhs - rhs) <= ctx.tol(32) * rhs


def _mpmath_at(ctx, extra=20):
    mp = mpmath.MPContext()
    mp.dps = ctx.working_digits + extra
    return mp


@settings(max_examples=40, deadline=None)
@given(st.floats(-60, 6), st.floats(-60, 6), st.integers(30, 600))
def test_agm_matches_mpmath(log10_a, log10_b, digits):
    # log-uniform a, b in [1e-60, 1e6]: ratios up to 1e66 take the mpf
    # steps before the fixed-point ones
    ctx = make_context(digits)
    a, b = ctx.mpf(10.0 ** log10_a), ctx.mpf(10.0 ** log10_b)
    mp = _mpmath_at(ctx)
    ref = mp.agm(mp.mpf(a), mp.mpf(b))
    assert abs(agm(a, b, ctx).value - ref) <= ctx.tol(ctx.working_digits - 2) * ref


@pytest.mark.parametrize("digits, a, b", [
    (250, "0.4285714285714285714", "0.4285714285714285714"),
    (500, "1", "1e-54"),  # k_6400's size
    (50, "1", "1e-48000"),  # the size of k'_r at r = 1/5e9
])
def test_agm_rows(digits, a, b):
    ctx = make_context(digits)
    a, b = ctx.mpf(a), ctx.mpf(b)
    t0 = time.perf_counter()
    value = agm(a, b, ctx).value
    # 1e-3 s here; a fixed point widened by the exponent gap takes seconds
    assert time.perf_counter() - t0 < 0.5
    if a == b:
        assert value == a
    mp = _mpmath_at(ctx)
    ref = mp.agm(mp.mpf(a), mp.mpf(b))
    assert abs(value - ref) <= ctx.tol(ctx.working_digits - 2) * ref


@settings(max_examples=40, deadline=None)
@given(st.floats(-300, -1e-3), st.integers(30, 2000))
def test_side_sum_agm_limit_is_agm_bit_for_bit(log10_k_prime, digits):
    # E's side sum reads the iterates of the run agm takes its limit from;
    # k' down to 1e-300 takes the mpf steps
    ctx = make_context(digits)
    kp = ctx.mpf(10) ** log10_k_prime
    k = ctx.sqrt((1 - kp) * (1 + kp))
    run = agm(ctx.one, kp, ctx)
    csum = run.side_sum(k)
    assert 0 < csum < 1
    # the same sum stepped directly in mpmath, 20 digits wider
    mp = _mpmath_at(ctx)
    a, b, c = mp.mpf(1), mp.mpf(kp), mp.mpf(k)
    total, weight = c * c / 2, mp.mpf(1)
    while abs(c) > mp.mpf(10) ** -(ctx.working_digits + 10):
        a, b, c = (a + b) / 2, mp.sqrt(a * b), (a - b) / 2
        total += weight * c * c
        weight *= 2
    assert abs(csum - total) <= ctx.tol(ctx.working_digits - 2)


@pytest.mark.parametrize("k", ["0", "1e-30", "0.3", "0.5", "0.99999999999999999999"])
def test_K_E_ref_is_K_ref_and_E_ref_from_one_run(ctx50, k):
    assert oracle.K_E_ref(k, ctx50) == (K_ref(k, ctx50), E_ref(k, ctx50))


def test_every_K_and_E_is_read_from_the_agm_run(ctx50, monkeypatch):
    # K = pi/(2 agm(1, k')) and E's side-sum formula are written once, on
    # the run; every oracle and every modulus pair reads them there
    def unreadable(*args):
        raise LookupError("read from the run")

    monkeypatch.setattr(oracle.AGMRun, "K", property(unreadable), raising=False)
    monkeypatch.setattr(oracle.AGMRun, "E", unreadable, raising=False)
    for read in (K_ref, E_ref, oracle.K_E_ref):
        with pytest.raises(LookupError):
            read("0.5", ctx50)
    pair = solve_kr(3, ctx50)  # its gate reads only the runs' limits
    with pytest.raises(LookupError):
        pair.K
    with pytest.raises(LookupError):
        pair.E


@pytest.mark.parametrize("k", ["1e-30", "0.5", "0.99999999999999999999"])
def test_E_ref_matches_mpmath_ellipe(ctx50, k):
    k = ctx50.mpf(k)
    mp = _mpmath_at(ctx50)
    ref = mp.ellipe(mp.mpf(k) ** 2)
    assert abs(E_ref(k, ctx50) - ref) <= ctx50.tol(ctx50.working_digits - 2) * ref


def test_K_at_zero(ctx50):
    assert abs(K_ref(0, ctx50) - ctx50.pi / 2) <= ctx50.tol(55)


def test_K_lemniscatic(ctx50):
    assert abs(K_ref(ctx50.sqrt(2) / 2, ctx50) - ctx50.mpf(K_LEMN)) <= ctx50.tol(58)


def test_K_strictly_increasing(ctx50):
    grid = [K_ref(ctx50.mpf(i) / 10, ctx50) for i in range(1, 10)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_K_domain(ctx50):
    with pytest.raises(DomainError):
        K_ref(1, ctx50)
    with pytest.raises(DomainError):
        K_ref(-0.5, ctx50)


def test_E_endpoints(ctx50):
    assert abs(E_ref(0, ctx50) - ctx50.pi / 2) <= ctx50.tol(55)
    assert E_ref(1, ctx50) == 1


def test_E_reference(ctx50):
    assert abs(E_ref(ctx50.sqrt(2) / 2, ctx50) - ctx50.mpf(E_LEMN)) <= ctx50.tol(58)


def test_E_domain(ctx50):
    with pytest.raises(DomainError):
        E_ref(ctx50.mpf("1.0001"), ctx50)


def _simpson(f, a, b, n):
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3


def test_K_E_against_quadrature(ctx30):
    # low-precision float quadrature of the defining integrals
    k = 0.37
    kk = K_ref(ctx30.mpf("0.37"), ctx30)
    ee = E_ref(ctx30.mpf("0.37"), ctx30)
    f_k = lambda t: 1.0 / math.sqrt(1 - k * k * math.sin(t) ** 2)
    f_e = lambda t: math.sqrt(1 - k * k * math.sin(t) ** 2)
    qk = _simpson(f_k, 0.0, math.pi / 2, 4096)
    qe = _simpson(f_e, 0.0, math.pi / 2, 4096)
    assert abs(float(kk) - qk) < 1e-10
    assert abs(float(ee) - qe) < 1e-10


def test_legendre_relation(ctx50):
    for i in range(1, 10):
        k = ctx50.mpf(i) / 10
        kp = ctx50.sqrt(1 - k * k)
        lhs = (E_ref(k, ctx50) * K_ref(kp, ctx50)
               + E_ref(kp, ctx50) * K_ref(k, ctx50)
               - K_ref(k, ctx50) * K_ref(kp, ctx50))
        assert abs(lhs - ctx50.pi / 2) <= ctx50.tol(45)


def test_theta3_trivial(ctx50):
    assert theta3(0, ctx50) == 1


def test_theta3_reference(ctx50):
    q = ctx50.exp(-ctx50.pi)
    t = theta3(q, ctx50)
    assert abs(t - ctx50.mpf(THETA3_EPI)) <= ctx50.tol(58)
    # theta3(e^-pi) = sqrt(2 K(1/sqrt2)/pi)
    assert abs(t - ctx50.sqrt(2 * K_ref(ctx50.sqrt(2) / 2, ctx50) / ctx50.pi)) \
        <= ctx50.tol(45)


@pytest.mark.parametrize("digits, q", [(50, "0.0432139182637722497744"), (300, "0.99"),
                                       (300, "1e-30"), (600, "1e-109")])
def test_theta3_matches_mpmath_jtheta(digits, q):
    ctx = make_context(digits)
    q = ctx.mpf(q)
    mp = _mpmath_at(ctx)
    ref = mp.jtheta(3, 0, mp.mpf(q))
    assert abs(theta3(q, ctx) - ref) <= ctx.tol(ctx.working_digits - 2) * ref


def test_theta3_domain(ctx50):
    with pytest.raises(DomainError):
        theta3(1, ctx50)
    with pytest.raises(DomainError):
        theta3(-0.1, ctx50)


def test_theta3_nome_K_identity(ctx50):
    for r in (1, 2, 4):
        pair = solve_kr(r, ctx50)
        t = theta3(nome(r, ctx50), ctx50)
        assert abs(t * t * ctx50.pi / 2 - K_ref(pair.k, ctx50)) <= ctx50.tol(45)


def test_b_quarter_vs_gamma_table(ctx50):
    g2 = ctx50.mpf(GAMMA_QUARTER) ** 2
    assert abs(b_quarter(ctx50) * ctx50.sqrt(ctx50.pi) - g2) <= ctx50.tol(54)


def test_b_quarter_over_pi(ctx50):
    got = b_quarter(ctx50) / ctx50.pi
    assert abs(got - ctx50.mpf(B_QUARTER_OVER_PI)) <= ctx50.tol(55)
    assert abs(got - 2 / agm(1, ctx50.sqrt(2) / 2, ctx50).value) <= ctx50.tol(55)


def test_b_quarter_is_four_K(ctx50):
    assert abs(K_ref(ctx50.sqrt(2) / 2, ctx50) - b_quarter(ctx50) / 4) <= ctx50.tol(45)


def test_nome_values(ctx50):
    q1 = nome(1, ctx50)
    assert abs(q1 - ctx50.mpf(EXP_MINUS_PI)) <= ctx50.tol(55)
    assert 0 < q1 < 1
    # strictly decreasing in r
    assert nome(2, ctx50) < q1
    assert nome(Fraction(1, 2), ctx50) > q1
    # magnitude at r = 6400: q = e^(-80 pi) ~ 1e-109.15
    mag = float(ctx50.log10(nome(6400, ctx50)))
    assert -109.2 < mag < -109.1


def test_nome_domain(ctx50):
    with pytest.raises(DomainError):
        nome(0, ctx50)
    with pytest.raises(DomainError):
        nome(Fraction(-3, 2), ctx50)


def test_first_kind_theta_identity_via_solver(ctx50):
    # 2 K(k_r)/pi = theta3(q)^2; k_r comes from the theta quotient in
    # moduli.py, so this checks the two theta codes against each other and
    # K through the AGM
    for r in (1, 2, 3, 4):
        pair = solve_kr(r, ctx50)
        t = theta3(nome(r, ctx50), ctx50)
        assert abs(2 * K_ref(pair.k, ctx50) / ctx50.pi - t * t) <= ctx50.tol(45)


def test_oracle_imports_only_the_precision_substrate():
    # the oracles may share only the arithmetic substrate with the code they check
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            package_imports.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ellseries"):
            package_imports.add(node.module)
        elif isinstance(node, ast.Import):
            package_imports.update(a.name for a in node.names if a.name.startswith("ellseries"))
    assert package_imports == {".precision"}
