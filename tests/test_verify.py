"""The battery's exact references, and negative controls showing that
criteria 8 and 9 fail when the closed forms they check are perturbed."""

from fractions import Fraction

import pytest
from oracles import rational_moment

from qmeasure import analytics
from qmeasure.verify import BatteryConfig, _wishart_moment, run_criterion


def test_wishart_recursion_matches_rational_moments():
    for n in range(1, 33):
        assert _wishart_moment(n, n, 1) == 1
        for nu in (2, 3, 4):
            assert _wishart_moment(n, n, nu) == rational_moment(n, nu)


def test_wishart_recursion_off_the_square():
    # <Tr rho^2> = (n + k)/(nk + 1), and E Tr W^3 = nk (n^2 + 3nk + k^2 + 1)
    for n in range(1, 9):
        for k in range(1, 17):
            nk = n * k
            assert _wishart_moment(n, k, 2) == Fraction(n + k, nk + 1)
            assert _wishart_moment(n, k, 3) == Fraction(
                nk * (n * n + 3 * nk + k * k + 1), nk * (nk + 1) * (nk + 2))
            assert _wishart_moment(n, k, 5) == _wishart_moment(k, n, 5)


def test_criterion_9_reports_ulps():
    checks = run_criterion(9, BatteryConfig()).checks
    assert [c.passed for c in checks] == [True, True]
    assert checks[0].details["worst_ulps"] <= 4.0
    assert checks[1].details["worst_abs_diff"] == 0.0


def _failed_checks(index: int) -> list[str]:
    return [c.name for c in run_criterion(index, BatteryConfig()).checks if not c.passed]


def test_criterion_8_fails_on_a_scaled_density(monkeypatch):
    density = analytics.joint_eigenvalue_density
    monkeypatch.setattr(analytics, "joint_eigenvalue_density",
                        lambda *args: density(*args) * (1.0 + 1e-5))
    failed = _failed_checks(8)
    assert len(failed) == 5 and all(name.startswith("unit mass") for name in failed)
    assert "unit mass Bures N=2" not in failed
    monkeypatch.setattr(analytics, "joint_eigenvalue_density", density)
    bures = analytics.bures_joint_density
    monkeypatch.setattr(analytics, "bures_joint_density",
                        lambda *args: tuple(v * (1.0 - 1e-5) for v in bures(*args)))
    assert _failed_checks(8) == ["unit mass Bures N=2"]


@pytest.mark.parametrize("scale", [1.0 + 1e-12, 1.0 - 1e-12])
def test_criterion_9_fails_on_a_scaled_moment(monkeypatch, scale):
    moment = analytics.induced_moment_exact

    monkeypatch.setattr(analytics, "induced_moment_exact",
                        lambda n, k, nu: moment(n, k, nu) * scale)
    assert len(_failed_checks(9)) == 2
