from fractions import Fraction

import pytest

import powersum_denoms
from powersum_denoms import bernoulli, cli, exact_poly, padic, powersum
from powersum_denoms.bernoulli import (
    almkvist_meurman_check,
    bernoulli_poly_denominator_direct,
)
from powersum_denoms.exact_poly import RationalPolynomial, content_split, poly_denominator
from powersum_denoms.formulas import q_n_epsilon, q_n_formula, q_n_via_psets
from powersum_denoms.powersum import (
    bound_M,
    d_n,
    faulhaber_form,
    power_sum_oracle,
    q_n_bruteforce,
    shifted_power_sum_poly,
)

F = Fraction

D_SEQ = [1, 2, 6, 4, 30, 12, 42, 24, 90, 20, 66, 24, 2730, 420, 90, 48, 510]
Q_SEQ = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 6, 3, 30, 10, 210, 42, 330]


def minus_x_to_the(n: int) -> RationalPolynomial:
    return RationalPolynomial([0] * n + [-1])


def unshifted(n: int) -> RationalPolynomial:
    """S_n(x) = 1^n + ... + (x-1)^n: the shifted power sum less x^n."""
    return shifted_power_sum_poly(n) + minus_x_to_the(n)


def test_power_sum_poly_small():
    assert unshifted(1).coeffs == (0, F(-1, 2), F(1, 2))
    assert unshifted(2).coeffs == (0, F(1, 6), F(-1, 2), F(1, 3))


def test_power_sum_poly_structure():
    for n in range(1, 40):
        cs = shifted_power_sum_poly(n).coeffs
        assert len(cs) == n + 2
        assert cs[0] == 0
        assert cs[-1] == F(1, n + 1)
        assert cs[n] - 1 == F(-1, 2)  # the x^n coefficient of S_n


def test_power_sum_poly_values():
    assert unshifted(5).eval(3) == 33  # 1^5 + 2^5
    for n in range(1, 12):
        s = unshifted(n)
        for x in range(8):
            assert s.eval(x) == sum(j**n for j in range(1, x))


def test_shifted_power_sum_small():
    assert shifted_power_sum_poly(0).coeffs == (0, 1)
    assert shifted_power_sum_poly(2).coeffs == (0, F(1, 6), F(1, 2), F(1, 3))
    assert shifted_power_sum_poly(5).coeffs == (
        0,
        0,
        F(-1, 12),
        0,
        F(5, 12),
        F(1, 2),
        F(1, 6),
    )


def test_functional_equation():
    # P(x) - P(x-1) = x^n for P = S_n + x^n: both sides have degree at most
    # n + 1, so agreement at the n + 2 points 0..n+1 is the identity.
    for n in range(1, 60):
        p = shifted_power_sum_poly(n)
        values = [p.eval(x) for x in range(-1, n + 2)]
        assert [b - a for a, b in zip(values, values[1:])] == [x**n for x in range(n + 2)]


def test_shift_leaves_denominator_alone():
    for n in range(1, 120):
        assert poly_denominator(unshifted(n)) == poly_denominator(shifted_power_sum_poly(n))


def test_oracle_small():
    assert power_sum_oracle(0).coeffs == (0, 1)
    assert power_sum_oracle(3).coeffs == (0, 0, F(1, 4), F(1, 2), F(1, 4))
    assert power_sum_oracle(4).coeffs == (
        0,
        F(-1, 30),
        0,
        F(1, 3),
        F(1, 2),
        F(1, 5),
    )


def test_oracle_matches_bernoulli_route():
    for n in range(0, 45):
        assert power_sum_oracle(n) == shifted_power_sum_poly(n)


def test_d_n_values():
    assert [d_n(n) for n in range(17)] == D_SEQ
    assert d_n(19) == 840
    assert d_n(12) == 2730


def test_q_n_values():
    assert [q_n_bruteforce(n) for n in range(21)] == Q_SEQ
    assert q_n_bruteforce(20) == 330


def test_q_n_structural_facts():
    for n in range(80):
        d = d_n(n)
        q = q_n_bruteforce(n)
        assert d == (n + 1) * q
        if n >= 1:
            assert d % 2 == 0
        assert (q % 2 == 1) == ((n + 1) & n == 0)


def test_bound_M():
    assert bound_M(19) == 7
    assert bound_M(20) == 11
    assert bound_M(0) == 1
    assert bound_M(1) == 1
    assert bound_M(3) == F(5, 3)
    with pytest.raises(ValueError):
        bound_M(-1)


def test_faulhaber_form_examples():
    f = faulhaber_form(4)
    assert f.denominator == 30
    assert f.coeffs == (0, -1, 0, 10, 15, 6)
    f = faulhaber_form(1)
    assert f.denominator == 2
    assert f.coeffs == (0, 1, 1)
    with pytest.raises(ValueError):
        faulhaber_form(0)


def test_faulhaber_form_structure():
    from math import gcd

    for n in range(1, 80):
        f = faulhaber_form(n)
        assert f.denominator == d_n(n)
        assert gcd(*f.coeffs) == 1
        assert sum(f.coeffs) == f.denominator  # value at 1 is 1^n
        scale, primitive = content_split(shifted_power_sum_poly(n))
        assert (scale, primitive.coeffs) == (F(1, f.denominator), f.coeffs)


def test_shared_table_values():
    assert unshifted(7) == power_sum_oracle(7) + minus_x_to_the(7)
    assert d_n(12) == 2730
    assert q_n_bruteforce(12) == 210
    assert faulhaber_form(5).denominator == 12


def test_program_paths_do_no_fraction_polynomial_arithmetic(monkeypatch, capsys):
    # d_n, q_n, the Faulhaber form, D(B_n(x)), the Almkvist-Meurman check and
    # the poly command all read the cached scaled-integer B_n(x); the Fraction
    # polynomial layer is left to the oracles.
    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction polynomial arithmetic on a program path")

    for name in ("__add__", "__mul__", "eval"):
        monkeypatch.setattr(RationalPolynomial, name, forbidden)
    for module in (powersum_denoms, exact_poly, bernoulli, powersum, cli):
        for name in ("content_split", "poly_denominator"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    bernoulli._shared_poly.cache_clear()

    assert [d_n(n) for n in range(17)] == D_SEQ
    assert [q_n_bruteforce(n) for n in range(21)] == Q_SEQ
    assert faulhaber_form(4).coeffs == (0, -1, 0, 10, 15, 6)
    assert bernoulli_poly_denominator_direct(13) == 210
    assert almkvist_meurman_check(12, 5, 7)
    assert cli.main(["poly", "--n", "5", "--shifted"]) == 0
    assert cli.main(["poly", "--n", "5"]) == 0
    assert capsys.readouterr().out == (
        "1/12 * (2x^6 + 6x^5 + 5x^4 - x^2)\n1/12 * (2x^6 - 6x^5 + 5x^4 - x^2)\n"
    )


@pytest.mark.parametrize(
    "function",
    [
        d_n,
        q_n_bruteforce,
        shifted_power_sum_poly,
        power_sum_oracle,
        q_n_formula,
        q_n_epsilon,
        q_n_via_psets,
    ],
)
@pytest.mark.parametrize("n", [-1, -2])
def test_negative_index_is_a_value_error(function, n):
    with pytest.raises(ValueError, match=f"^index must be nonnegative, got {n}$"):
        function(n)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bernoulli.bernoulli_poly(-1), "Bernoulli polynomials are indexed from 0, got -1"),
        (lambda: almkvist_meurman_check(-1, 0, 1), "index must be nonnegative, got -1"),
        (lambda: padic.digit_sum(-1, 3), "digit sum needs a nonnegative integer, got -1"),
        (lambda: padic.lucas_binom_mod(-1, 0, 3), "binomial indices must be nonnegative: m=-1, k=0"),
        (lambda: padic.fine_count(-1, 3), "row index must be nonnegative, got -1"),
    ],
)
def test_negative_argument_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
