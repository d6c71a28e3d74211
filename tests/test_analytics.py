import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bidiagonal_purity, rational_moment
from scipy import integrate
from scipy.special import xlogy

from qmeasure import Bures, Induced, ProductDirichlet, analytics
from qmeasure.analytics import (
    bures_joint_density,
    bures_mean_entropy_exact,
    bures_norm_constant,
    bures_purity_exact,
    dirichlet_moment_exact,
    hs_mean_entropy_exact,
    hs_moment_exact,
    induced_mean_entropy_exact,
    induced_moment_exact,
    joint_eigenvalue_density,
    log_bures_norm_constant,
    log_norm_constant,
    pure_state_mean_entropy_exact,
    purity_induced_exact,
    radial_cdf_n2,
    radial_density_n2,
    uniform_rescale_cdf_n2,
)
from qmeasure.errors import DomainError


def page_entropy(n: int, k: int | None = None) -> float:
    # independent harmonic-sum oracle for the mean entropy under the induced
    # measure (Hilbert-Schmidt when k is omitted)
    small, big = sorted((n, n if k is None else k))
    return sum(1.0 / j for j in range(big + 1, small * big + 1)) - (small - 1) / (2.0 * big)


def _arcsin_cdf(r):
    theta = np.arcsin(2.0 * r)
    return (2.0 * theta - np.sin(2.0 * theta)) / np.pi


UNITARY, ORTHOGONAL, HS, BURES = (ProductDirichlet(2, 1.0), ProductDirichlet(2, 0.5),
                                  Induced(2, 2, 2), Bures(2))

# the four named N=2 radial laws as closed (density, CDF) pairs in r
NAMED_RADIAL_LAWS = {
    UNITARY: (lambda r: np.full_like(r, 2.0), lambda r: 2.0 * r),
    ORTHOGONAL: (lambda r: 4.0 / (np.pi * np.sqrt(1.0 - 4.0 * r * r)),
                 lambda r: (2.0 / np.pi) * np.arcsin(2.0 * r)),
    HS: (lambda r: 24.0 * r * r, lambda r: 8.0 * r**3),
    BURES: (lambda r: 32.0 * r * r / (np.pi * np.sqrt(1.0 - 4.0 * r * r)), _arcsin_cdf),
}


def density(measure, r):
    return radial_density_n2(r, *measure.radial_law())


def cdf(measure, r):
    return radial_cdf_n2(r, *measure.radial_law())


# ------------------------------------------------------------ normalization

def test_log_norm_constant_values():
    assert log_norm_constant(2, 2, 2) == pytest.approx(np.log(3.0), abs=1e-12)
    assert log_norm_constant(2, 3, 2) == pytest.approx(np.log(30.0), abs=1e-12)
    assert log_norm_constant(2, 2, 1) == pytest.approx(np.log(0.5), abs=1e-12)


def test_log_norm_constant_unit_mass_oracle():
    # quadrature oracle: the normalized N=2 marginals integrate to one
    c22 = np.exp(log_norm_constant(2, 2, 2))
    mass, _ = integrate.quad(lambda x: c22 * (2 * x - 1) ** 2, 0.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-10)
    c23 = np.exp(log_norm_constant(2, 3, 2))
    mass, _ = integrate.quad(lambda x: c23 * x * (1 - x) * (2 * x - 1) ** 2, 0.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_log_norm_constant_validation():
    with pytest.raises(DomainError):
        log_norm_constant(3, 2, 2)
    with pytest.raises(DomainError):
        log_norm_constant(2, 2, 0.0)


# ------------------------------------------------------------ joint density

def test_joint_density_pure_point():
    assert joint_eigenvalue_density([1.0, 0.0], 2, 2, 2) == pytest.approx(3.0)


def test_joint_density_vanishes_on_degeneracy():
    assert joint_eigenvalue_density([0.5, 0.5], 2, 2, 2) == 0.0
    assert joint_eigenvalue_density([0.4, 0.3, 0.3], 3, 3, 2) == 0.0


def test_joint_density_hand_value():
    # 30 * (3/16) * (1/4)
    got = joint_eigenvalue_density([0.75, 0.25], 2, 3, 2)
    assert got == pytest.approx(45.0 / 32.0, rel=1e-12)


def test_joint_density_rejects_negative():
    with pytest.raises(DomainError):
        joint_eigenvalue_density([1.1, -0.1], 2, 2, 2)


def test_joint_density_singular_boundary_for_beta1():
    assert joint_eigenvalue_density([1.0, 0.0], 2, 2, 1) == np.inf


def test_joint_density_integrates_to_one():
    c = joint_eigenvalue_density  # density over the unordered simplex
    mass, _ = integrate.quad(lambda x: c([x, 1 - x], 2, 2, 2), 0.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-8)
    mass, _ = integrate.quad(lambda x: c([x, 1 - x], 2, 5, 2), 0.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_joint_density_mass_n4_by_importance_sampling():
    # MC oracle for n=4: propose from Dirichlet(s = k-n+1), whose density is
    # exactly the eigenvalue prefactor, so the weight is C * Vandermonde^2 /
    # alpha_s with alpha_s = Gamma(ns)/Gamma(s)^n; the weighted mean must be 1.
    from scipy.special import gammaln

    n, k = 4, 5
    s = float(k - n + 1)
    rng = np.random.default_rng(123)
    m = 200000
    g = rng.gamma(s, 1.0, size=(m, n))
    lam = g / g.sum(axis=1, keepdims=True)
    vdm = np.ones(m)
    for i in range(n):
        for j in range(i + 1, n):
            vdm *= (lam[:, i] - lam[:, j]) ** 2
    log_alpha = gammaln(n * s) - n * gammaln(s)
    weights = np.exp(log_norm_constant(n, k, 2) - log_alpha) * vdm
    est = weights.mean()
    stderr = weights.std(ddof=1) / np.sqrt(m)
    assert abs(est - 1.0) <= 3 * stderr
    assert stderr < 0.01


# ------------------------------------------------------------- bures density

def test_bures_unnormalized_hand_value():
    # lam = (3/4, 1/4): (l1 l2)^(-1/2) = 4/sqrt(3), (l1-l2)^2/(l1+l2) = 1/4
    got = bures_joint_density([0.75, 0.25], 2)[0]
    assert got == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)


def test_bures_density_edge_cases():
    assert bures_joint_density([0.5, 0.5], 2)[0] == 0.0
    assert bures_joint_density([1.0, 0.0], 2)[0] == np.inf


def test_bures_constants():
    assert bures_norm_constant(1) == pytest.approx(1.0, rel=1e-12)
    assert bures_norm_constant(2) == pytest.approx(2.0 / np.pi, rel=1e-12)
    assert bures_norm_constant(3) == pytest.approx(35.0 / np.pi, rel=1e-12)
    assert bures_norm_constant(4) == pytest.approx(71680.0 / np.pi**2, rel=1e-12)


def _bures_angle_integrand_3(a, b, weight):
    # lam = (cos^2 a, sin^2 a cos^2 b, sin^2 a sin^2 b) maps [0, pi/2]^2 onto
    # the simplex; the substitution absorbs the l^(-1/2) singularities into a
    # smooth Jacobian 4 sin(a).
    sa = np.sin(a) ** 2
    lam = (np.cos(a) ** 2, sa * np.cos(b) ** 2, sa * np.sin(b) ** 2)
    prod = 1.0
    for x, y in ((lam[0], lam[1]), (lam[0], lam[2]), (lam[1], lam[2])):
        if x + y == 0.0:
            return 0.0
        prod *= (x - y) ** 2 / (x + y)
    return 4.0 * np.sin(a) * prod * weight(lam)


def test_bures_n3_against_angle_quadrature():
    # independent oracle for the closed forms at N=3: the constant is the
    # reciprocal of the unnormalized mass, and the mean purity its
    # Tr rho^2-weighted mass times the constant
    def mass(weight):
        val, _ = integrate.dblquad(
            lambda b, a: _bures_angle_integrand_3(a, b, weight),
            0.0, np.pi / 2, 0.0, np.pi / 2, epsabs=1e-12, epsrel=1e-12,
        )
        return val

    c3 = bures_norm_constant(3)
    assert 1.0 / mass(lambda lam: 1.0) == pytest.approx(c3, rel=1e-10)
    purity = c3 * mass(lambda lam: sum(x * x for x in lam))
    assert purity == pytest.approx(bures_purity_exact(3), rel=1e-10)


def test_bures_norm_constant_mc_oracle():
    # importance sampling from the Dirichlet(1/2) envelope, whose density is
    # alpha * prod l^(-1/2) with alpha = Gamma(n/2) / pi^(n/2): the weights
    # C_N / alpha * prod_{i<j} (l_i - l_j)^2 / (l_i + l_j) must average to 1
    from scipy.special import gammaln

    rng = np.random.default_rng(321)
    m = 400000
    for n in (4, 5):
        g = rng.gamma(0.5, 1.0, size=(m, n))
        lam = g / g.sum(axis=1, keepdims=True)
        i, j = np.triu_indices(n, 1)
        acc = np.prod((lam[:, i] - lam[:, j]) ** 2 / (lam[:, i] + lam[:, j]), axis=1)
        log_alpha = gammaln(n / 2.0) - (n / 2.0) * np.log(np.pi)
        weights = np.exp(log_bures_norm_constant(n) - log_alpha) * acc
        stderr = weights.std(ddof=1) / np.sqrt(m)
        assert abs(weights.mean() - 1.0) <= 3 * stderr
        assert stderr < 0.05


def test_bures_norm_constant_range():
    assert np.isfinite(log_bures_norm_constant(64))
    assert bures_norm_constant(19) == pytest.approx(np.exp(log_bures_norm_constant(19)))
    with pytest.raises(DomainError):
        bures_norm_constant(20)  # beyond the double range
    with pytest.raises(DomainError):
        log_bures_norm_constant(0)


def test_bures_joint_density_normalized_field():
    unnorm, norm = bures_joint_density([0.75, 0.25], 2)
    assert norm == pytest.approx(unnorm * 2.0 / np.pi, rel=1e-12)
    unnorm6, norm6 = bures_joint_density([0.4, 0.3, 0.15, 0.08, 0.05, 0.02], 6)
    assert unnorm6 > 0 and np.isfinite(norm6)
    assert norm6 == pytest.approx(unnorm6 * bures_norm_constant(6), rel=1e-12)


def test_bures_purity_exact():
    assert bures_purity_exact(1) == 1.0
    assert bures_purity_exact(2) == 7.0 / 8.0
    with pytest.raises(DomainError):
        bures_purity_exact(0)


def test_bures_radial_vs_joint_consistency():
    # fold the N=2 joint density: p(r) = 2 * C'_2 * unnorm(1/2+r, 1/2-r)
    c2 = bures_norm_constant(2)
    for r in (0.05, 0.2, 0.4):
        joint = 2.0 * c2 * bures_joint_density([0.5 + r, 0.5 - r], 2)[0]
        assert density(BURES, r) == pytest.approx(joint, rel=1e-12)


# ------------------------------------------------------------ radial N=2 laws

def test_radial_density_values():
    assert density(HS, 0.25) == pytest.approx(1.5)
    assert density(UNITARY, 0.3) == 2.0
    assert density(BURES, 0.25) == pytest.approx(4.0 / (np.pi * np.sqrt(3.0)))
    assert density(ORTHOGONAL, 0.0) == pytest.approx(4.0 / np.pi)


def test_radial_induced_k2_equals_hs():
    r = np.linspace(0.0, 0.49, 20)
    assert np.allclose(radial_density_n2(r, 1.5, 1.0), density(Induced(2, 2), r), rtol=1e-10)


def test_radial_induced_constant_oracle():
    # dual route: the density c_K r^2 (1/4 - r^2)^(K-2) must have
    # c_K = 8 * C_{2,K} from the Selberg constant
    r = np.array([0.05, 0.2, 0.4])
    for k in range(2, 7):
        expected = 8.0 * np.exp(log_norm_constant(2, k, 2)) * r * r * (0.25 - r * r) ** (k - 2)
        assert density(Induced(2, k), r) == pytest.approx(expected, rel=1e-9)


def test_radial_densities_integrate_to_one():
    for measure in (UNITARY, ORTHOGONAL, HS, BURES, Induced(2, 3), Induced(2, 5)):
        mass, _ = integrate.quad(lambda r: density(measure, r), 0.0, 0.5, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_radial_cdf_matches_density():
    # dual route: closed-form CDFs against numerical integrals of the density
    for measure in (UNITARY, ORTHOGONAL, HS, BURES):
        for r in (0.1, 0.3, 0.45):
            mass, _ = integrate.quad(lambda t: density(measure, t), 0.0, r)
            assert cdf(measure, r) == pytest.approx(mass, abs=1e-9)
        assert cdf(measure, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_radial_laws_match_named_closed_forms():
    r = np.linspace(0.0, 0.4999, 2001)
    for measure, (law_density, law_cdf) in NAMED_RADIAL_LAWS.items():
        np.testing.assert_allclose(density(measure, r), law_density(r), rtol=1e-14)
        np.testing.assert_allclose(cdf(measure, r), law_cdf(r), rtol=0, atol=1e-14)


def test_radial_induced_cdf_matches_numeric_cdf():
    from oracles import numeric_cdf

    r = np.linspace(0.0, 0.5, 1001)
    for k in (3, 4, 5, 9):
        oracle = numeric_cdf(lambda t, k=k: density(Induced(2, k), t), 0.0, 0.5)
        np.testing.assert_allclose(cdf(Induced(2, k), r), oracle(r), rtol=0, atol=1e-8)


def test_radial_induced_large_k():
    r = np.linspace(0.0, 0.4999, 1001)
    assert np.all(np.isfinite(density(Induced(2, 400), r)))
    mass, _ = integrate.quad(lambda t: density(Induced(2, 400), t), 0.0, 0.5, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-8)


_RADIAL_SPECS = st.one_of(
    st.builds(Induced, st.just(2), st.integers(2, 400), st.sampled_from([1, 2, 4])),
    st.builds(ProductDirichlet, st.just(2), st.floats(1e-2, 1e3)),
    st.just(BURES),
)


@settings(deadline=None)
@given(measure=_RADIAL_SPECS)
def test_radial_density_matches_oracle(measure):
    from oracles import radial_density_n2 as oracle

    # u = 4r^2 = j^2/1024 and 1 - u are exact, so the two shapes agree and
    # the comparison is one of the constants 1/B(a, b)
    r = np.arange(1, 32) / 64.0
    want = oracle(r, *measure.radial_law())
    keep = want > 1e-290  # both underflow alike below
    np.testing.assert_allclose(density(measure, r)[keep], want[keep], rtol=1e-14)


@settings(deadline=None)
@given(measure=_RADIAL_SPECS)
def test_radial_cdf_rises_from_zero_to_one(measure):
    values = cdf(measure, np.linspace(0.0, 0.5, 257))
    assert values[0] == 0.0 and values[-1] == 1.0
    assert np.all(np.diff(values) >= 0.0)


def test_radial_domain_errors():
    with pytest.raises(DomainError):
        density(HS, 0.5)
    with pytest.raises(DomainError):
        density(HS, -0.01)
    for a, b in ((0.0, 1.0), (1.5, -1.0), (np.nan, 1.0)):
        with pytest.raises(DomainError):
            radial_density_n2(0.2, a, b)
        with pytest.raises(DomainError):
            radial_cdf_n2(0.2, a, b)
    for measure in (Induced(2, 1), Induced(3, 3), ProductDirichlet(3, 1.0), Bures(3)):
        with pytest.raises(ValueError):
            measure.radial_law()


def test_radial_laws_by_formula():
    # one formula per measure: ((beta + 1)/2, beta (k - 1)/2), (1/2, s), (3/2, 1/2)
    assert HS.radial_law() == (1.5, 1.0)
    assert Induced(2, 5).radial_law() == (1.5, 4.0)
    assert Induced(2, 3, 1).radial_law() == (1.0, 1.0)
    assert Induced(2, 3, 4).radial_law() == (2.5, 4.0)
    assert UNITARY.radial_law() == (0.5, 1.0)
    assert ORTHOGONAL.radial_law() == (0.5, 0.5)
    assert ProductDirichlet(2, 0.7).radial_law() == (0.5, 0.7)
    assert BURES.radial_law() == (1.5, 0.5)


@pytest.mark.parametrize("measure", [Induced(2, 2, 1), Induced(2, 3, 1), Induced(2, 2, 4),
                                     Induced(2, 3, 4), ProductDirichlet(2, 0.3),
                                     ProductDirichlet(2, 2.0)])
def test_radial_law_matches_joint_density(measure):
    # dual route: fold the joint eigenvalue density onto r, p(r) = 2 * f(1/2 + r, 1/2 - r)
    # (the factor 2 counts both orders of an unordered pair)
    from scipy.special import gammaln

    if isinstance(measure, Induced):
        def joint(l1, l2):
            return joint_eigenvalue_density([l1, l2], 2, measure.k, measure.beta)
    else:
        s = measure.s

        def joint(l1, l2):
            return (l1 * l2) ** (s - 1.0) * np.exp(gammaln(2 * s) - 2 * gammaln(s))
    for r in (0.05, 0.2, 0.4):
        folded = 2.0 * joint(0.5 + r, 0.5 - r)
        assert density(measure, r) == pytest.approx(folded, rel=1e-12)


# ------------------------------------------------- angle and entanglement laws

def test_mean_tangle_by_change_of_variables():
    # <tau> = <4 l1 l2> = int (1 - 4r^2) P(r) dr under the HS radial law
    val, _ = integrate.quad(lambda r: (1.0 - 4.0 * r * r) * density(HS, r), 0.0, 0.5)
    assert val == pytest.approx(HS.exact_mean("tangle"), abs=1e-8)
    assert HS.exact_mean("tangle") == 0.4


def test_entanglement_densities():
    # the HS tangle and concurrence CDFs taken from the radial law, as the
    # battery takes them, against the densities (3/2) sqrt(1-t) and
    # 3c sqrt(1-c^2): t = 1 - 4r^2 and c = (1 - 4r^2)^(1/2)
    a, b = HS.radial_law()
    cdfs = {"tangle": lambda t: 1.0 - radial_cdf_n2(np.sqrt(1.0 - t) / 2, a, b),
            "concurrence": lambda c: 1.0 - radial_cdf_n2(np.sqrt(1.0 - c * c) / 2, a, b)}
    laws = {"tangle": lambda t: 1.5 * np.sqrt(1.0 - t),
            "concurrence": lambda c: 3.0 * c * np.sqrt(1.0 - c * c)}
    assert cdfs["tangle"](0.75) == pytest.approx(0.875, rel=1e-14)
    assert cdfs["concurrence"](0.6) == pytest.approx(1.0 - 0.64**1.5, rel=1e-14)
    for kind, law in laws.items():
        assert cdfs[kind](0.0) == 0.0 and cdfs[kind](1.0) == 1.0
        for x in (0.2, 0.7):
            cum, _ = integrate.quad(law, 0.0, x)
            assert cdfs[kind](x) == pytest.approx(cum, abs=1e-10)
        mean, _ = integrate.quad(lambda x: 1.0 - cdfs[kind](x), 0.0, 1.0)
        assert mean == pytest.approx(HS.exact_mean(kind), abs=1e-10)


# ------------------------------------------------------------------- moments

def test_hs_moment_closed_forms():
    assert hs_moment_exact(2, 2) == pytest.approx(0.8)
    assert hs_moment_exact(2, 3) == pytest.approx(0.7)
    assert type(hs_moment_exact(2, 2)) is float


def test_hs_moment_trace_identity():
    for n in (1, 2, 3, 8, 16, 32, 64):
        assert abs(hs_moment_exact(n, 1) - 1.0) <= 1e-12


def test_hs_moment_non_integer_exponent():
    val = hs_moment_exact(3, 2.5)
    assert hs_moment_exact(3, 2.0) > val > hs_moment_exact(3, 3.0)


def test_hs_moment_small_exponents():
    # regression: nu in (-1, 1) used to fail the Gauss-Laguerre route at every n
    for nu in (-0.5, 0.1, 0.3, 0.5, 0.7, 0.9):
        assert hs_moment_exact(1, nu) == 1.0
        previous = 1.0
        for n in range(2, 65):
            value = hs_moment_exact(n, nu)
            assert np.isfinite(value) and value > previous  # grows like n^(1-nu)
            previous = value


def test_hs_moment_rational_oracles():
    for n in range(1, 33):
        for nu in (2, 3, 4):
            assert hs_moment_exact(n, nu) == pytest.approx(
                float(rational_moment(n, nu)), rel=1e-12)


def test_induced_moment_trace_identity():
    worst = max(abs(induced_moment_exact(n, k, 1.0) - 1.0)
                for n in range(1, 65) for k in range(1, 257))
    assert worst <= 1e-12


# 40-digit mpmath quadrature of the Laguerre-kernel integral
# Gamma(n^2)/Gamma(n^2 + nu) int_0^inf x^nu e^-x sum_{m<n} L_m(x)^2 dx
KERNEL_INTEGRALS = {
    (2, 1.5): "0.8761904761904761904761904761904761904762",
    (2, 2.5): "0.7445887445887445887445887445887445887446",
    (2, 3.7): "0.6481589811301833497685146495963630893684",
    (3, 1.5): "0.7515555651778561995280261534131503171751",
    (3, 2.5): "0.4956529538572882226133000126808176343780",
    (3, 3.7): "0.3371003086900317956335140788819727163895",
    (5, 1.5): "0.5979736498627936050897596149025605791579",
    (5, 2.5): "0.2587965406996974246968074016119951480389",
    (5, 3.7): "0.1113390068595141596286039698872554577586",
    (8, 1.5): "0.4772315323426575996567493939178897356129",
    (8, 2.5): "0.1334125900161121895215804133496240664907",
    (8, 3.7): "0.03467725789300555217897884147607228262920",
}


@pytest.mark.parametrize("n, nu", KERNEL_INTEGRALS)
def test_induced_moment_matches_kernel_integral(n, nu):
    exact = float(KERNEL_INTEGRALS[n, nu])
    assert induced_moment_exact(n, n, nu) == pytest.approx(exact, rel=1e-14, abs=0)


def test_induced_moment_domain():
    assert induced_moment_exact(2, 5, -3.5) > 0  # k >= n: nu > -(k - n + 1)
    for n, k, nu in [(2, 5, -4.0), (3, 3, -1.0), (3, 2, 0.0), (3, 2, -0.5), (0, 2, 2.0)]:
        with pytest.raises(DomainError):
            induced_moment_exact(n, k, nu)


@pytest.mark.parametrize("n, k, nu, exact", [
    # 50-digit mpmath evaluations of the same kernel sum
    (8, 8, 150.0, 1.3693810124682079e-32),
    (2, 2, 300.0, 0.019671276933858267),
    (16, 16, 150.5, 2.6132436984374823e-74),
    (3, 7, 250.0, 1.3128880183888131e-14),
    (5, 2, 400.0, 5.3757308056610838e-7),
    (1, 1000, -999.5, 1.0),
    (2, 400, -300.0, 2.1047909851682521e135),
])
def test_induced_moment_extreme_exponents(n, k, nu, exact):
    # regression: poch(nk, nu) overflowed or underflowed, giving 0 or NaN
    assert induced_moment_exact(n, k, nu) == pytest.approx(exact, rel=1e-13, abs=0)


def test_induced_moment_huge_nu():
    # HS(2): <Tr rho^nu> = 6 (nu^2 + nu + 2)/((nu + 1)(nu + 2)(nu + 3)), ~ 6/nu
    for nu in (1e10, 1e50, 1e100):
        exact = 6 * (nu * nu + nu + 2) / ((nu + 1) * (nu + 2) * (nu + 3))
        assert induced_moment_exact(2, 2, nu) == pytest.approx(exact, rel=1e-15, abs=0)
    # regression: a seed that underflowed dropped the terms grown from it, so
    # (3, 3) at nu = 1e50 gave 2.0e-296 instead of about 1.0e-196, and
    # nu = 1e308 overflowed the square of C(nu, d)/C(nu, d - 1)
    for n, k, nu in [(3, 3, 1e50), (3, 3, 1e308), (2, 2, 1e308), (8, 8, 1e20)]:
        with pytest.raises(DomainError, match="underflow"):
            induced_moment_exact(n, k, nu)
    # a moment beyond the double range, near the pole nu = n - k - 1
    with pytest.raises(DomainError, match="exceeds the double range"):
        induced_moment_exact(2, 1000, -998.9)
    for nu in (np.inf, np.nan, -np.inf):
        with pytest.raises(DomainError):
            induced_moment_exact(3, 3, nu)
    # min(n, k) = 1: rho is pure, so <Tr rho^nu> = 1 up to nu = inf
    for n, k in [(1, 5), (4, 1)]:
        assert induced_moment_exact(n, k, np.inf) == 1.0


@pytest.mark.parametrize("n, k, nu, exact", [
    # 40-digit mpmath evaluations of the kernel sum; an lgamma difference for
    # Gamma(nk + nu)/Gamma(nk) was 4.6e-12 off at nk = 4096
    (64, 64, 0.5, 6.791053678217154083448377409434950369508),
    (64, 64, 2.5, 0.006060372238192671643736443219204006256890),
    (32, 128, 0.5, 5.474243374152195902831904641902744760052),
    (16, 64, 1.5, 0.2730871294174329285160917407332672871405),
])
def test_induced_moment_non_integer_nu_is_exact(n, k, nu, exact):
    assert induced_moment_exact(n, k, nu) == pytest.approx(exact, rel=1e-14, abs=0)


@pytest.mark.parametrize("n, k, nu", [(3, 5, 1.5), (2, 7, 0.5), (4, 4, 0.3), (3, 2, 0.5)])
def test_induced_moment_against_mc(n, k, nu):
    from qmeasure import Induced, RandomStream, sample_spectra
    from qmeasure.stats import spectrum_functional

    spectra = sample_spectra(Induced(n, k, 2), 40000, RandomStream(71, 0))
    vals = spectrum_functional(spectra, "trace_power", nu)
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - induced_moment_exact(n, k, nu)) <= 3 * stderr


@settings(deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 40),
       nu=st.floats(0.0, 5.0, exclude_min=True, exclude_max=True))
def test_induced_moment_invariants(n, k, nu):
    value = induced_moment_exact(n, k, nu)
    assert value == pytest.approx(induced_moment_exact(k, n, nu), rel=1e-12)
    small = min(n, k)
    lo, hi = sorted((1.0, small ** (1.0 - nu)))
    assert lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12)
    assert induced_moment_exact(n, k, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert induced_moment_exact(n, k, 2.0) == pytest.approx(purity_induced_exact(n, k),
                                                                  rel=1e-12)


def test_induced_moment_checks_its_value(monkeypatch):
    # induced_moment_exact checks its own value: positive for nu > 0, and 1 at
    # nu = 1; the m = j seeds of (2, 2) are Gamma ratios at x = 1 and 2, and
    # the scale one at x = nk = 4, so spoiling the seeds alone spoils the value
    ratio = analytics.gamma_ratio
    for factor, nu in [(2.0, 1.0), (-1.0, 2.0)]:
        monkeypatch.setattr(analytics, "gamma_ratio",
                            lambda x, a: ratio(x, a) * (factor if x < 4 else 1.0))
        with pytest.raises(ValueError, match="must be positive, and 1 at nu=1"):
            induced_moment_exact(2, 2, nu)
    monkeypatch.setattr(analytics, "gamma_ratio", ratio)
    assert induced_moment_exact(2, 2, 1.0) == 1.0 and induced_moment_exact(2, 2, 2.0) == 0.8


def test_purity_induced_exact():
    assert purity_induced_exact(2, 2) == pytest.approx(0.8)
    assert purity_induced_exact(2, 3) == pytest.approx(5.0 / 7.0)
    assert purity_induced_exact(1, 9) == pytest.approx(1.0)
    assert purity_induced_exact(4, 7) == purity_induced_exact(7, 4)
    assert purity_induced_exact(2, 2) == hs_moment_exact(2, 2)


@pytest.mark.parametrize("n, k, beta", [(2, 2, 1), (3, 4, 1), (4, 4, 4), (5, 7, 2), (3, 3, 4),
                                        (2, 3, 4), (6, 2, 1), (1, 5, 4), (8, 8, 1)])
def test_purity_induced_exact_is_the_bidiagonal_model(n, k, beta):
    # (beta (n + k) + 2 - beta)/(beta nk + 2), rounded once, is the exact purity
    # of the model the sampler draws
    assert purity_induced_exact(n, k, beta) == float(bidiagonal_purity(n, k, beta))
    assert purity_induced_exact(k, n, beta) == purity_induced_exact(n, k, beta)


@pytest.mark.parametrize("n, k, beta", [(2, 3, 1), (3, 4, 1), (2, 3, 4), (3, 3, 4)])
def test_purity_induced_exact_against_mc(n, k, beta):
    from qmeasure import RandomStream, sample_spectra
    from qmeasure.stats import spectrum_functional

    vals = spectrum_functional(sample_spectra(Induced(n, k, beta), 40000,
                                              RandomStream(73, 0)), "purity")
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - purity_induced_exact(n, k, beta)) <= 3 * stderr


def _kernel_moment(n: int, k: int, nu: float) -> mpmath.mpf:
    # the Laguerre-kernel sum of induced_moment_exact, term by term in mpmath
    size, a, nu = min(n, k), abs(k - n), mpmath.mpf(nu)
    total = mpmath.fsum(
        mpmath.factorial(m) / mpmath.gamma(m + a + 1) * mpmath.binomial(nu, m - j) ** 2
        * mpmath.gamma(a + nu + j + 1) / mpmath.factorial(j)
        for m in range(size) for j in range(m + 1))
    return total * mpmath.gamma(n * k) / mpmath.gamma(n * k + nu)


@pytest.mark.parametrize("nu", [0.3, 0.5, 1.5, 2.5, 3.7, 7.25, -0.5])
def test_induced_moment_non_integer_nu_against_mpmath(nu):
    # the ratio recurrence squares C(nu, d)/C(nu, d - 1) as c * c, which is
    # correctly rounded where c ** 2 (libm's pow) is not always
    with mpmath.workdps(40):
        for n in range(1, 7):
            for k in range(1, 9):
                if not nu > (n - k - 1 if k >= n else 0):
                    continue
                want = _kernel_moment(n, k, nu)
                got = induced_moment_exact(n, k, nu)
                assert abs(mpmath.mpf(got) - want) <= 4 * math.ulp(float(want)), (n, k)


# ------------------------------------------------------------- mean entropy

def test_mean_entropy_small_dims():
    assert hs_mean_entropy_exact(1) == 0.0
    assert hs_mean_entropy_exact(2) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_mean_entropy_vs_digamma_oracle():
    for n in (2, 3, 4, 8, 16, 32, 64):
        assert hs_mean_entropy_exact(n) == pytest.approx(page_entropy(n), abs=1e-6)


def test_mean_entropy_dimension_bound():
    # no dimension cap: Page's formula holds at every n
    for n in (65, 128):
        assert hs_mean_entropy_exact(n) == pytest.approx(page_entropy(n), abs=1e-12)


def test_mean_entropy_matches_page_oracle():
    for n in (1, 2, 3, 4, 8, 16, 32, 64):
        assert hs_mean_entropy_exact(n) == pytest.approx(page_entropy(n), abs=1e-12)
    for n, k in [(2, 5), (3, 7), (4, 2), (1, 9), (7, 40)]:
        assert induced_mean_entropy_exact(n, k) == pytest.approx(page_entropy(n, k), abs=1e-12)
        assert induced_mean_entropy_exact(n, k) == induced_mean_entropy_exact(k, n)
    with pytest.raises(DomainError):
        induced_mean_entropy_exact(0, 3)


@pytest.mark.parametrize("n, k", [(2, 5), (3, 7), (4, 2), (5, 5)])
def test_induced_mean_entropy_against_mc(n, k):
    from qmeasure import Induced, RandomStream, sample_spectra
    from qmeasure.stats import spectrum_functional

    spectra = sample_spectra(Induced(n, k, 2), 40000, RandomStream(72, 0))
    vals = spectrum_functional(spectra, "entropy")
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - induced_mean_entropy_exact(n, k)) <= 3 * stderr


@settings(deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 40))
def test_induced_mean_entropy_bounds(n, k):
    value = induced_mean_entropy_exact(n, k)
    assert 0.0 <= value <= np.log(min(n, k))


def test_bures_mean_entropy_exact():
    assert bures_mean_entropy_exact(1) == 0.0
    assert bures_mean_entropy_exact(2) == pytest.approx(2 * np.log(2) - 7 / 6, abs=1e-15)
    with pytest.raises(DomainError):
        bures_mean_entropy_exact(0)


def test_mean_entropy_against_mc_oracle():
    from qmeasure import RandomStream, hilbert_schmidt, sample_spectra
    from qmeasure.stats import spectrum_functional

    spectra = sample_spectra(hilbert_schmidt(8), 20000, RandomStream(44, 0))
    vals = spectrum_functional(spectra, "entropy")
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - hs_mean_entropy_exact(8)) <= 3 * stderr


def test_mean_entropy_approaches_asymptote():
    gaps = [abs(hs_mean_entropy_exact(n) - (np.log(n) - 0.5)) for n in (4, 8, 16, 32)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.06


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 1000])
def test_pure_state_mean_entropy_is_harmonic_number_minus_one(n):
    from fractions import Fraction

    exact = sum(Fraction(1, j) for j in range(1, n + 1)) - 1
    assert pure_state_mean_entropy_exact(n) == pytest.approx(float(exact), rel=1e-14, abs=1e-15)


def test_pure_state_mean_entropy_against_mc_and_domain():
    from qmeasure import ensembles

    for n in (2, 5):
        p = ensembles._pure_state_moduli(n, 40000, np.random.default_rng(n))
        vals = -np.sum(xlogy(p, p), axis=1)
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - pure_state_mean_entropy_exact(n)) <= 3 * stderr
    assert pure_state_mean_entropy_exact(64) == pytest.approx(3.7438909037057684, rel=1e-14)
    with pytest.raises(DomainError):
        pure_state_mean_entropy_exact(0)


# ----------------------------------------------------------- reference means

def test_reference_means_table():
    for measure, (entropy, purity, ratio) in [
        (HS, (1 / 3, 4 / 5, 5 / 4)),
        (UNITARY, (0.5, 2 / 3, 1.5)),
        (ORTHOGONAL, (2 * np.log(2) - 1, 3 / 4, 4 / 3)),
        (BURES, (2 * np.log(2) - 7 / 6, 7 / 8, 8 / 7)),
    ]:
        got = [measure.exact_mean(f) for f in ("entropy", "purity", "participation_ratio")]
        assert got == pytest.approx([entropy, purity, ratio], rel=1e-15)
        assert got[2] == 1.0 / got[1]
    # the product means hold at every n and s: (s + 1)/(ns + 1) and
    # psi(ns + 1) - psi(s + 1), here H_3 - 1 and psi(2.4) - psi(1.7) (40-digit mpmath)
    assert ProductDirichlet(3, 1.0).exact_mean("purity") == 0.5
    assert ProductDirichlet(3, 1.0).exact_mean("entropy") == pytest.approx(5 / 6, rel=1e-15)
    assert ProductDirichlet(2, 0.7).exact_mean("entropy") == pytest.approx(
        0.4443532948271042, rel=1e-15)


def test_reference_means_against_radial_quadrature():
    # quadrature oracle: E[f] = int f(1/2+r, 1/2-r) P(r) dr for each measure
    def mean_under(measure, f):
        val, _ = integrate.quad(
            lambda r: f(0.5 + r, 0.5 - r) * density(measure, r), 0.0, 0.5, limit=200
        )
        return val

    def ent(l1, l2):
        out = 0.0
        for v in (l1, l2):
            if v > 0:
                out -= v * np.log(v)
        return out

    for measure in (HS, UNITARY, ORTHOGONAL, BURES):
        assert mean_under(measure, lambda a, b: a * a + b * b) == pytest.approx(
            measure.exact_mean("purity"), abs=1e-8
        )
        assert mean_under(measure, ent) == pytest.approx(measure.exact_mean("entropy"), abs=1e-8)


# ---------------------------------------------------------- uniform rescaling

def test_uniform_rescale_cdf():
    # against the density 1/(2(1-y)^2) below 1/2 and its mirror image above
    def law(y):
        return 0.5 / (1.0 - y) ** 2 if y <= 0.5 else 0.5 / y**2

    for y in (0.1, 0.5, 0.9):
        cum, _ = integrate.quad(law, 0.0, y, points=[0.5] if y > 0.5 else None)
        assert uniform_rescale_cdf_n2(y) == pytest.approx(cum, abs=1e-10)
    assert uniform_rescale_cdf_n2(0.0) == 0.0 and uniform_rescale_cdf_n2(1.0) == 1.0
    assert uniform_rescale_cdf_n2(0.5) == 0.5
    assert uniform_rescale_cdf_n2(0.2) == pytest.approx(0.125, rel=1e-15)
    with pytest.raises(DomainError):
        uniform_rescale_cdf_n2(1.2)


# ----------------------------------------------------------- measure specs

_EXACT_MEANS = [
    *[(Induced(n, k), f, None, want)
      for n, k in ((1, 1), (2, 2), (2, 5), (3, 3), (4, 2), (64, 64))
      for f, want in (("purity", purity_induced_exact(n, k)),
                      ("participation_ratio", 1.0 / purity_induced_exact(n, k)),
                      ("entropy", induced_mean_entropy_exact(n, k)))],
    *[(Induced(n, k), "trace_power", nu, induced_moment_exact(n, k, nu))
      for n, k, nu in ((2, 2, 2.0), (3, 3, 0.3), (3, 5, 1.5), (4, 2, 0.5), (8, 8, 150.0),
                       (3, 4, -1.5))],
    (HS, "tangle", None, 0.4),
    (HS, "concurrence", None, 3.0 * np.pi / 16.0),
    *[(Bures(n), f, None, want)
      for n in (1, 2, 3, 6)
      for f, want in (("purity", bures_purity_exact(n)),
                      ("participation_ratio", 1.0 / bures_purity_exact(n)),
                      ("entropy", bures_mean_entropy_exact(n)))],
    (UNITARY, "entropy", None, 0.5),
    (UNITARY, "purity", None, 2.0 / 3.0),
    (UNITARY, "participation_ratio", None, 1.0 / (2.0 / 3.0)),
    # 2 ln 2 - 1 correctly rounded (40-digit mpmath); the expression
    # 2.0 * np.log(2.0) - 1.0 rounds 1 ulp below it
    (ORTHOGONAL, "entropy", None, float.fromhex("0x1.8b90bfbe8e7bdp-2")),
    (ORTHOGONAL, "purity", None, 3.0 / 4.0),
    (ORTHOGONAL, "participation_ratio", None, 1.0 / (3.0 / 4.0)),
    *[(Induced(n, k, beta), f, None, want)
      for n, k, beta in ((2, 2, 1), (3, 4, 4), (5, 7, 1))
      for f, want in (("purity", purity_induced_exact(n, k, beta)),
                      ("participation_ratio", 1.0 / purity_induced_exact(n, k, beta)))],
    *[(ProductDirichlet(n, s), "trace_power", nu, dirichlet_moment_exact(n, s, nu))
      for n, s, nu in ((2, 1.0, 2.0), (3, 0.7, 1.5), (4, 0.005, -0.001), (1, 0.3, -7.0))],
]


@pytest.mark.parametrize("measure,functional,nu,want", _EXACT_MEANS)
def test_exact_mean_is_the_analytics_value(measure, functional, nu, want):
    got = measure.exact_mean(functional, nu)
    assert type(got) is float and got.hex() == float(want).hex()


@pytest.mark.parametrize("measure,functional,nu", [
    (Induced(2, 5, 1), "entropy", None), (Induced(3, 4, 4), "entropy", None),
    (HS, "participation", None), (HS, "trace_power", None), (Induced(2, 1), "tangle", None),
    (Induced(3, 3), "concurrence", None), (ProductDirichlet(3, 1.0), "tangle", None),
    (Bures(3), "trace_power", 2.0), (Bures(2), "trace_power", 1.5),
    (Induced(4, 4, 4), "entropy", None), (Induced(3, 3, 1), "trace_power", 2.0),
    # where the product moment leaves the double range: about 3e827, 2e-308
    # (below the normal doubles) and 0
    (ProductDirichlet(3, 1e3), "trace_power", -999.0), (UNITARY, "trace_power", 1e308),
    (UNITARY, "trace_power", np.inf),
])
def test_exact_mean_is_none_without_a_closed_form(measure, functional, nu):
    assert measure.exact_mean(functional, nu) is None


def test_moment_domains():
    assert Induced(3, 3).moment_domain() == -1.0
    assert Induced(3, 3, 1).moment_domain() == -0.5
    assert Induced(3, 4, 1).moment_domain() == -1.0
    assert Induced(3, 3, 4).moment_domain() == -2.0
    assert Induced(1, 5).moment_domain() == -5.0
    assert Induced(4, 2).moment_domain() == Induced(4, 2, 1).moment_domain() == 0.0
    assert ProductDirichlet(3, 0.7).moment_domain() == -0.7
    assert Bures(2).moment_domain() == Bures(6).moment_domain() == -0.5
    assert ProductDirichlet(1, 0.7).moment_domain() == Bures(1).moment_domain() == -np.inf


@pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (2, 2), (3, 3), (3, 5), (4, 2), (5, 1)])
def test_induced_moment_domain_is_the_closed_forms(n, k):
    # at beta = 2 the bound is the one induced_moment_exact enforces
    lowest = Induced(n, k).moment_domain()
    with pytest.raises(DomainError):
        induced_moment_exact(n, k, lowest)
    assert induced_moment_exact(n, k, lowest + 0.25) > 0


_N2_SPECS = st.one_of(
    st.builds(Induced, st.just(2), st.integers(2, 200), st.sampled_from([1, 2, 4])),
    st.builds(ProductDirichlet, st.just(2), st.floats(1e-5, 1e6)),
    st.just(BURES),
)


@settings(deadline=None)
@given(measure=_N2_SPECS)
def test_n2_means_follow_the_radial_law(measure):
    # purity (1 + u)/2, tangle 1 - u and concurrence (1 - u)^(1/2) for
    # u ~ Beta(a, b); Jensen's inequality orders the last two
    a, b = measure.radial_law()
    purity = measure.exact_mean("purity")
    want = (2 * a + b) / (2 * (a + b))
    assert abs(purity - want) <= 2 * math.ulp(want)
    tangle, conc = measure.exact_mean("tangle"), measure.exact_mean("concurrence")
    assert 0 < conc * conc <= tangle <= 1


@pytest.mark.parametrize("measure", [HS, Induced(2, 5), Induced(2, 3, 1), Induced(2, 3, 4),
                                     UNITARY, ORTHOGONAL, ProductDirichlet(2, 0.7), BURES])
def test_n2_entanglement_means_against_mpmath(measure):
    # b/(a + b) and B(a, b + 1/2)/B(a, b), against 40-digit mpmath
    with mpmath.workdps(40):
        a, b = (mpmath.mpf(v) for v in measure.radial_law())
        for functional, want in (("tangle", b / (a + b)),
                                 ("concurrence", mpmath.beta(a, b + 0.5) / mpmath.beta(a, b))):
            got = measure.exact_mean(functional)
            assert abs(mpmath.mpf(got) - want) <= 4 * math.ulp(float(want)), functional


def _dirichlet_moment(n: int, s: float, nu: float) -> mpmath.mpf:
    n, s, nu = mpmath.mpf(n), mpmath.mpf(s), mpmath.mpf(nu)
    return n * mpmath.exp(mpmath.loggamma(s + nu) + mpmath.loggamma(n * s)
                          - mpmath.loggamma(s) - mpmath.loggamma(n * s + nu))


@pytest.mark.parametrize("s, ulps", [(1e-5, 18), (1e-3, 8), (0.3, 6), (1.0, 6), (7.0, 6),
                                     (1e3, 6), (1e12, 6)])
def test_dirichlet_moment_against_mpmath(s, ulps):
    # the bounds measured on this grid, as the docstring states them
    with mpmath.workdps(40):
        for n in (2, 3, 16, 64):
            for nu in (-0.9 * s, -0.5 * s, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3, 20.0):
                got = dirichlet_moment_exact(n, s, nu)
                want = _dirichlet_moment(n, s, nu)
                if got is None:  # only where the moment leaves the normal doubles
                    assert not sys.float_info.min <= want < sys.float_info.max, (n, nu)
                    continue
                assert abs(mpmath.mpf(got) - want) <= ulps * math.ulp(float(want)), (n, nu)


@pytest.mark.parametrize("n, s, nu", [(2, 1e6, 150.0), (64, 1.0, 150.0), (64, 7.0, 300.3),
                                      (2, 100.0, 1e4), (16, 10.0, 300.5)])
def test_dirichlet_moment_beyond_the_gamma_ratios_against_mpmath(n, s, nu):
    # Gamma(s + nu)/Gamma(s) or Gamma(ns + nu)/Gamma(ns) overflows, but the
    # moment does not: the integer part of the shift is one exact product
    assert math.inf in (analytics.gamma_ratio(s, nu), analytics.gamma_ratio(n * s, nu))
    with mpmath.workdps(60):
        want = _dirichlet_moment(n, s, nu)
    assert abs(mpmath.mpf(dirichlet_moment_exact(n, s, nu)) - want) <= 4 * math.ulp(float(want))


def test_dirichlet_moment_domain_and_range():
    assert dirichlet_moment_exact(3, 1.0, 2.0) == 0.5  # the purity (s + 1)/(ns + 1)
    assert dirichlet_moment_exact(1, 0.5, -3.0) == 1.0  # the spectrum (1)
    for nu in (-0.7, -1.0, -np.inf, np.nan):
        with pytest.raises(DomainError, match=r"need nu > -0\.7"):
            dirichlet_moment_exact(3, 0.7, nu)
    for s, nu in ((1.0, 1e308), (1.0, np.inf), (1e3, -999.0), (1e6, 1000.0)):
        assert dirichlet_moment_exact(3, s, nu) is None
    # Gamma ratios out of range, the moment not: exact, rounded once
    huge = Fraction(1e299 / 3)
    assert dirichlet_moment_exact(3, 1e299 / 3, 2.0) == float((huge + 1) / (3 * huge + 1))
    big = Fraction(1e200)
    assert dirichlet_moment_exact(3, 1e200, -2.0) == float(
        3 * (3 * big - 2) * (3 * big - 1) / ((big - 2) * (big - 1)))
    # (2, 1e-5) at nu = 1e300: 2 Gamma(2e-5)/Gamma(1e-5) (1e300)^(-1e-5), nearly
    assert dirichlet_moment_exact(2, 1e-5, 1e300) == pytest.approx(0.99311, abs=1e-5)


@pytest.mark.parametrize("n, s, nu", [(3, 0.7, 1.5), (2, 0.5, -0.2), (4, 2.0, 3.0),
                                      (3, 1.0, 0.5)])
def test_dirichlet_moment_against_mc(n, s, nu):
    from qmeasure import RandomStream, sample_spectra
    from qmeasure.stats import spectrum_functional

    spectra = sample_spectra(ProductDirichlet(n, s), 40000, RandomStream(74, 0))
    vals = spectrum_functional(spectra, "trace_power", nu)
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - dirichlet_moment_exact(n, s, nu)) <= 3 * stderr
