"""The ``verify`` suites, one generator each over the indices up to ``max_n``.

Each yields one item per check: ``None`` when it passes, its failure message
when it fails.  Only ``verify`` imports this module, and it runs the suites
named in ``cli.SUITES``.  Library functions are looked up on their modules
at each call, so a rebound attribute (a tracing wrapper, say) is the one
checked, and a suite imports the Bernoulli or power-sum layer only if it
uses it: ``verify --suite hermite`` loads neither.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import prod

from . import formulas, padic
from .cli import Q_ROUTES


def agreement(max_n: int) -> Iterator[str | None]:
    for n in range(max_n + 1):
        values = tuple(route(n) for route in Q_ROUTES.values())
        ok = len(set(values)) == 1
        yield None if ok else f"q_{n}: {'/'.join(Q_ROUTES)} disagree: {values}"


def clausen(max_n: int) -> Iterator[str | None]:
    from . import bernoulli

    table = bernoulli.bernoulli_numbers(max_n)
    for n in range(2, max_n + 1, 2):
        # The von Staudt-Clausen primes of n, shared with the agreement suite.
        expected = prod(formulas._clausen_primes(n))
        actual = table._values[n][1]
        yield None if actual == expected else f"denominator of B_{n}: {actual} != {expected}"


def hermite(max_n: int) -> Iterator[str | None]:
    for p in formulas.primes_upto(50):
        for m in range(1, max_n + 1):
            ok = formulas._hermite_bachmann_holds(m, p)
            yield None if ok else f"binomial sum congruence fails at m={m}, p={p}"


def bounds(max_n: int) -> Iterator[str | None]:
    from . import powersum

    for m in range(3, max_n + 1):
        top = m - 1 if m % 2 == 1 else m - 2
        for k in range(2, top + 1, 2):
            ok = formulas.pset_bound_check(m, k)
            yield None if ok else f"prime-set bound fails at m={m}, k={k}"
    for n in range(max_n + 1):
        d = powersum.d_n(n)
        q = powersum.q_n_bruteforce(n)
        yield None if d == (n + 1) * q else f"d_{n} != (n+1) * q_{n}"
        if n >= 1:
            yield None if d % 2 == 0 else f"d_{n} is odd"
        ok = (q % 2 == 1) == ((n + 1) & n == 0)
        yield None if ok else f"parity of q_{n} disagrees with n+1 being a power of 2"
        limit = formulas._prime_limit(n)
        for f in formulas._prime_factors(q):
            yield None if f <= limit else f"prime {f} of q_{n} exceeds the bound"


def witnesses(max_n: int) -> Iterator[str | None]:
    for n in range(max_n + 1):
        for p in formulas.q_n_formula(n).primes:
            if p == 2:
                continue
            try:
                padic.marble_witness(n + 1, p)
                yield None
            except (ValueError, ArithmeticError) as exc:
                yield f"witness failed at n={n}, p={p}: {exc}"
    for p in formulas.primes_upto(max(2, (max_n + 2) // 3)):
        if p == 2:
            continue
        try:
            formulas.sharpness_witnesses(p)
            yield None
        except ArithmeticError as exc:
            yield f"sharpness failed at p={p}: {exc}"


def almkvist(max_n: int) -> Iterator[str | None]:
    from . import bernoulli

    for n in range(max_n + 1):
        for h in range(-10, 11):
            for k in range(1, 11):
                ok = bernoulli.almkvist_meurman_check(n, h, k)
                yield None if ok else f"k^n (B_n(h/k) - B_n) not integral at n={n}, h={h}, k={k}"
