from fractions import Fraction
from math import factorial

import pytest

from bellmod import oracle
from bellmod.modarith import IndexTooLargeError

BELL_TABLE = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
DERANGEMENT_TABLE = [1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496]


def test_bell_exact_table():
    assert [oracle.bell_exact(n) for n in range(11)] == BELL_TABLE


def test_derangement_exact_table():
    assert [oracle.derangement_exact(n) for n in range(10)] == DERANGEMENT_TABLE


def test_oracle_caps():
    oracle.bell_exact(oracle.BELL_MAX)
    with pytest.raises(IndexTooLargeError):
        oracle.bell_exact(oracle.BELL_MAX + 1)
    with pytest.raises(IndexTooLargeError):
        oracle.derangement_exact(oracle.DERANGEMENT_MAX + 1)
    with pytest.raises(IndexTooLargeError):
        oracle.derangement_series_exact(oracle.DERANGEMENT_MAX + 1)
    with pytest.raises(IndexTooLargeError):
        oracle.derangement_brute(oracle.BRUTE_MAX + 1)
    with pytest.raises(IndexTooLargeError):
        oracle.stirling2_exact(oracle.STIRLING_MAX + 1, 2)
    with pytest.raises(IndexTooLargeError):
        oracle.egf_bell_check(oracle.EGF_MAX + 1)
    for fn in (oracle.bell_exact, oracle.derangement_exact, oracle.derangement_brute):
        with pytest.raises(ValueError):
            fn(-1)


def test_three_derangement_routes_agree():
    for n in range(oracle.BRUTE_MAX + 1):
        a = oracle.derangement_exact(n)
        b = oracle.derangement_series_exact(n)
        c = oracle.derangement_brute(n)
        assert a == b == c, n


def test_derangement_series_is_integral():
    # n! sum (-1)^k / k! clears every denominator
    for n in range(201):
        assert oracle.derangement_series_exact(n) == oracle.derangement_exact(n)


def test_derangement_recursion_shape():
    # D_n = n D_{n-1} + (-1)^n
    for n in range(1, 120):
        want = n * oracle.derangement_exact(n - 1) + (-1) ** n
        assert oracle.derangement_exact(n) == want


def test_stirling2_exact():
    assert oracle.stirling2_exact(4, 2) == 7
    assert oracle.stirling2_exact(0, 0) == 1
    assert oracle.stirling2_exact(5, 0) == 0
    assert oracle.stirling2_exact(6, 7) == 0
    for n in range(1, 30):
        assert oracle.stirling2_exact(n, 1) == 1
        assert oracle.stirling2_exact(n, n) == 1
        assert oracle.stirling2_exact(n, n - 1) == n * (n - 1) // 2


def test_bell_is_stirling_row_sum():
    for n in range(61):
        total = sum(oracle.stirling2_exact(n, k) for k in range(n + 1))
        assert total == oracle.bell_exact(n), n


def test_egf_series_coefficients():
    coeffs = oracle.egf_bell_series(31)
    assert len(coeffs) == 31
    for n, c in enumerate(coeffs):
        assert c == Fraction(oracle.bell_exact(n), factorial(n)), n


def test_egf_bell_check():
    assert oracle.egf_bell_check(30)
    assert oracle.egf_bell_check(oracle.EGF_MAX)

