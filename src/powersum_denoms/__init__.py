"""Exact denominators of power-sum and Bernoulli polynomials.

The polynomial 1^n + 2^n + ... + x^n has a least common denominator d_n,
and q_n = d_n / (n+1) is squarefree with all prime factors below a sharp,
explicit bound.  This package computes d_n and q_n four independent ways
(three digit-based product formulas and brute-force polynomial expansion),
does the same for the denominators of Bernoulli polynomials, and ships a
CLI for sequences, pretty-printed polynomials, cross-check suites, and
benchmarks.

The names below are re-exported lazily (PEP 562): ``import powersum_denoms``
loads no submodule, and the first use of a name imports the module that
defines it, so a program pays only for the layers it touches.
"""

_EXPORTS = {
    "bernoulli": (
        "BernoulliTable",
        "almkvist_meurman_check",
        "bernoulli_numbers",
        "bernoulli_poly_denominator_direct",
    ),
    "exact_poly": (
        "RationalPolynomial",
        "lagrange_interpolate",
    ),
    "formulas": (
        "EpsilonVector",
        "SquarefreeProduct",
        "bernoulli_poly_denominator_formula",
        "bernoulli_poly_denominator_formula_range",
        "clausen_denominator",
        "hermite_bachmann_holds",
        "primes_upto",
        "pset",
        "pset_bound_check",
        "q_n_epsilon",
        "q_n_formula",
        "q_n_formula_range",
        "q_n_via_psets",
        "sharpness_witnesses",
    ),
    "padic": (
        "DigitExpansion",
        "MarbleWitness",
        "digit_sum",
        "digits",
        "fine_count",
        "legendre_valuation_factorial",
        "lucas_binom_mod",
        "marble_witness",
    ),
    "powersum": (
        "FaulhaberForm",
        "bound_M",
        "d_n",
        "faulhaber_form",
        "power_sum_oracle",
        "q_n_bruteforce",
        "shifted_power_sum_poly",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, which ``python -X importtime`` logs, returns the submodule
    # itself when given a fromlist, as for ``from .module import name``.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
