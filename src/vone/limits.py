"""The bounds that keep a short input from asking for unbounded work. Going
over one is an input error: the library raises ValueError with a message
that names the limit, and the CLI exits 2."""

from __future__ import annotations

import sys

# largest group order a model is built for; step 2 of a certificate
# eliminates on Z[x]/(F), deg F x deg F with deg F up to |G| for an X whose
# marks are all nonzero (nothing is eliminated when h(1) is prime to p)
DEFAULT_ORDER_BOUND = 512

# bound on a ^ exponent and on the product of nested ones, so that the
# degree of an expression, and with it the work, stays linear in its length
MAX_EXPONENT = 4096

# deepest nesting of parentheses and unary minus in an expression, so that
# parsing and evaluating it stay well inside Python's recursion limit
MAX_NESTING = 100

# bound on dim(V) * bit_length(ell), and so on the bits of the ell^dim(V)
# that theta and a printed lambda = (ell^dim - 1)/|G| form exactly
# (`jtheory._adams_multiplier`); step 2 reads v_p(lambda) without it and
# has no such bound. V = 2048*W over C512 with ell = 3, dim 2^19, sits
# exactly at the bound
MAX_ADAMS_BITS = 2**20

# bound on the sum of |G/H|^2 * |G| over the orbit types H of a G-set T for
# Sq1 over a dicyclic group, which decomposes one block [G/H] x [G/H] per
# type on points, whatever the multiplicity of H in T: the free orbit of
# Q128 is at the bound and takes about half a second from a cold start,
# that of Q256 would do eight times the work (cyclic groups use a closed
# form and need no bound)
MAX_SQ1_WORK = 2**21

# largest prime p that `enumerate` and `telescope` accept: trial division
# up to sqrt(p) then stays under 50,000 steps (p = 10^14 + 31 takes over a
# second), and 10^9 + 7 is below it
MAX_PRIME = 2**31

# largest s for which the image-of-J order is read off the Bernoulli number
# B_2s: B_100 takes about 10 ms, B_1000 about 5 s
IMJ_ORACLE_BOUND = 50

# upper bound on s_max, d_max and t_max; at the bound a sweep over C512
# has 11 * 10 * 11 = 1210 rows
SWEEP_LIMIT = 10

# most rows one request makes: `telescope` prints n + 1 of them and
# `enumerate` (s_max + 1)(n + 1)(d_max + 1), with n read off the input, so
# n is bounded through the rows; 10,000 telescope rows take well under a
# second
MAX_ROWS = 10_000

# most decimal digits Python converts between int and str: 4300 unless
# PYTHONINTMAXSTRDIGITS sets another value, 0 for none (as before Python
# 3.10.7). vone keeps the interpreter's limit and never lifts it.
MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def check_rows(count: int) -> None:
    """ValueError when a request would make more than `MAX_ROWS` rows."""
    if count > MAX_ROWS:
        raise ValueError(f"the request makes {count} rows, over the limit {MAX_ROWS}")
