"""Independent reference implementations used to pin the fast routes.

Everything here is written the slow, obvious way on purpose: naive loops,
dict-based discrete logs, exact rationals.  None of it shares code with
the package, except exponent_set_twist and derivation_check: the route
that read exponent sets off the twist product in the package's ring, kept
as the cross-check of the per-sum moments that replaced it.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from primarity.cycring import CycModP
from primarity.jacobi import _CHUNK, TwistContext, _powers, twist_product


def is_prime_naive(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def dlog_map(l: int, g: int) -> dict[int, int]:
    """Discrete logs mod l by plain iteration."""
    out = {}
    v = 1
    for k in range(l - 1):
        out[v] = k
        v = v * g % l
    return out


def min_valuation_naive(coeffs: list[int], q: int) -> int | None:
    """Least exponent of q over the nonzero coefficients, one division at a time."""
    best = None
    for c in coeffs:
        if c == 0:
            continue
        v = 0
        while c % q == 0:
            c //= q
            v += 1
        best = v if best is None else min(best, v)
    return best


def jacobi_charsum(p: int, l: int, g: int, i: int) -> list[int]:
    """-J(chi^i, chi) as exact coefficients on 1, z, ..., z^(p-2).

    Sums chi^i(x) chi(1-x) over x != 0, 1 with chi(g^k) = z^k, folds
    z^(p-1) away, and negates to match the twisted sign convention.
    """
    logs = dlog_map(l, g)
    vec = [0] * p
    for x in range(2, l):
        e = (i * logs[x] + logs[(1 - x) % l]) % p
        vec[e] += 1
    top = vec[p - 1]
    return [-(v - top) for v in vec[: p - 1]]


def cyclotomic_numbers_naive(p: int, l: int, g: int) -> list[list[int]]:
    """N[d][m] = #{y : log y = d, log(1 + y) = m (mod p)} by plain iteration."""
    logs = dlog_map(l, g)
    N = [[0] * p for _ in range(p)]
    for y in range(1, l - 1):  # y = l - 1 has 1 + y = 0
        N[logs[y] % p][logs[y + 1] % p] += 1
    return N


def coset_root(p: int, l: int) -> int:
    """w = a**M mod l, M = (l-1)/p, for the least a >= 2 with a**M != 1."""
    M = (l - 1) // p
    a = 2
    while pow(a, M, l) == 1:
        a += 1
    return pow(a, M, l)


def cyclotomic_numbers_by_powers(p: int, l: int, w: int) -> list[list[int]]:
    """N[d][m] = #{y : y**M = w**d, (1 + y)**M = w**m}, M = (l-1)/p, by plain
    iteration over y, with no log table."""
    M = (l - 1) // p
    label = {}
    x = 1
    for d in range(p):
        label[x] = d
        x = x * w % l
    N = [[0] * p for _ in range(p)]
    d = label[1]
    for y in range(1, l - 1):  # y = l - 1 has 1 + y = 0
        m = label[pow(y + 1, M, l)]
        N[d][m] += 1
        d = m
    return N


def jacobi_counts_from_cyclotomic(N: list[list[int]], p: int, i: int) -> list[int]:
    """Counts t[e] = #{y : i*log y + log(1 - y) = e (mod p)} from N[d][m].

    -1 lies in C_0 when 2p | l - 1, so N[d][m] also counts the y in C_d
    with 1 - y in C_m, and each adds to t[(m + i*d) % p]: row d of N,
    rotated right by i*d, is summed into t.
    """
    t = [0] * p
    for d, row in enumerate(N):
        s = i * d % p
        t = [a + b for a, b in zip(t, row[p - s:] + row[:p - s])]
    return t


def block_products_naive(p: int, l: int, ks: list[int] | None = None) -> list[int]:
    """(kM + 1)...((k+1)M) mod l, M = (l-1)/p, one integer at a time, for
    each k in ks, by default every k < (p-1)/2."""
    M = (l - 1) // p
    out = []
    for k in range(p // 2) if ks is None else ks:
        x = 1
        for n in range(k * M + 1, (k + 1) * M + 1):
            x = x * n % l
        out.append(x)
    return out


def jacobi_norm_holds(t: list[int], l: int) -> bool:
    """Whether J = sum_e t[e] z**e, z of order p = len(t), has |J|**2 = l.

    J * conj(J) = sum_d a_d z**d with a_d = sum_e t[e] t[(e + d) % p], and
    1 + z + ... + z**(p-1) = 0 is the only relation among the z**d, so the
    product is l exactly when every a_d with d != 0 is equal and a_0 - a_1
    = l.  The linear correlations c_k are the digits of one big-integer
    product of t and of t reversed, and a_d = c_(p-1-d) + c_(2p-1-d).
    """
    p = len(t)
    width = ((max(t) ** 2 * p).bit_length() + 8) // 8  # bytes per digit
    digits = [b"".join(v.to_bytes(width, "little") for v in seq) for seq in (t, t[::-1])]
    prod = int.from_bytes(digits[0], "little") * int.from_bytes(digits[1], "little")
    raw = prod.to_bytes(width * 2 * p, "little")
    c = [int.from_bytes(raw[k * width:(k + 1) * width], "little") for k in range(2 * p)]
    a = [c[p - 1]] + [c[p - 1 - d] + c[2 * p - 1 - d] for d in range(1, p)]
    return len(set(a[1:])) == 1 and a[0] - a[1] == l


def rank_naive(p: int, rows: list[list[int]]) -> list[int]:
    """Rank mod p after each prefix of rows, by plain Gaussian elimination."""
    kept, ranks = [], []  # kept: (pivot, row scaled to 1 at its pivot)
    for row in rows:
        v = [x % p for x in row]
        for c, b in kept:
            if v[c]:
                f = v[c]
                v = [(x - f * y) % p for x, y in zip(v, b)]
        c = next((k for k, x in enumerate(v) if x), None)
        if c is not None:
            inv = pow(v[c], -1, p)
            kept.append((c, [x * inv % p for x in v]))
        ranks.append(len(kept))
    return ranks


def conjugate_rank_naive(p: int, J: list[int]) -> int:
    """Rank mod p of the p-1 Galois conjugates of J in F_p[x]/Phi_p.

    sigma_a sends x^k to x^(ka mod p), a = 1 .. p-1, on the coefficients of
    1, x, ..., x^(p-2); x^(p-1) is folded away before the elimination.
    """
    rows = []
    for a in range(1, p):
        conj = [0] * p
        for k, c in enumerate(J):
            conj[k * a % p] += c
        rows.append([x - conj[p - 1] for x in conj[: p - 1]])
    return rank_naive(p, rows)[-1]


def norm_naive(p: int, coeffs: list[int]) -> int:
    """Norm from Q(zeta_p) to Q as the product of all p-1 conjugates.

    Multiplies the images of coeffs (on 1, z, ..., z^(p-2)) under z -> z^a,
    a = 1 .. p-1, modulo z^p - 1 with plain lists, then folds z^(p-1) away;
    what is left mod Phi_p must be a rational constant.
    """
    prod = [1] + [0] * (p - 1)
    for a in range(1, p):
        conj = [0] * p
        for k, c in enumerate(coeffs):
            conj[k * a % p] += c
        out = [0] * p
        for i, x in enumerate(prod):
            for j, y in enumerate(conj):
                out[(i + j) % p] += x * y
        prod = out
    folded = [c - prod[p - 1] for c in prod[: p - 1]]
    if any(folded[1:]):
        raise AssertionError(f"the conjugate product is not rational: {folded}")
    return folded[0]


def mul_exact_naive(p: int, a: list[int], b: list[int]) -> list[int]:
    """a * b in Z[x]/Phi_p on coefficient lists; the result has length p-1.

    Inputs may have up to p coefficients: x^k is read as x^(k mod p), and
    x^(p-1) is folded away as -(1 + x + ... + x^(p-2)).
    """
    raw = [0] * p
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                raw[(i + j) % p] += x * y
    top = raw[p - 1]
    return [c - top for c in raw[: p - 1]]


def mul_mod_phi_naive(p: int, a: list[int], b: list[int]) -> list[int]:
    """a * b mod (p, Phi_p) on coefficient lists, as in mul_exact_naive."""
    return [c % p for c in mul_exact_naive(p, a, b)]


@lru_cache(maxsize=8)
def _powers_naive(p: int, J: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """J**0, ..., J**(p-1) mod (p, Phi_p), one plain product each."""
    powers = [(1,) + (0,) * (p - 2)]
    for _ in range(p - 1):
        powers.append(tuple(mul_mod_phi_naive(p, powers[-1], J)))
    return tuple(powers)


def component_naive(p: int, J: list[int], n: int) -> list[int]:
    """S_n = prod_{a=1}^{(p-1)/2} sigma_a(J**(a**(n-1) mod p)) mod (p, Phi_p).

    The defining product of the mod-p component, on coefficient lists of
    1, x, ..., x^(p-2); sigma_a sends x^k to x^(ka mod p).
    """
    powers = _powers_naive(p, tuple(int(c) % p for c in J))
    S = list(powers[0])
    for a in range(1, (p - 1) // 2 + 1):
        conj = [0] * p
        for k, c in enumerate(powers[pow(a, n - 1, p)]):
            conj[k * a % p] += c
        S = mul_mod_phi_naive(p, S, conj)
    return S


def component_exact_naive(p: int, J: list[int], n: int) -> list[int]:
    """S_n = prod_{a=1}^{p-1} sigma_a(J**(a**(n-1) mod p)) in Z[x]/Phi_p.

    The exact defining product over the full range a = 1 .. p-1, on integer
    lists of 1, x, ..., x^(p-2): the powers J**0 .. J**(p-1) by repeated
    multiplication, sigma_a sending x^k to x^(ka mod p).
    """
    powers = [[1] + [0] * (p - 2)]
    for _ in range(p - 1):
        powers.append(mul_exact_naive(p, powers[-1], J))
    S = powers[0]
    for a in range(1, p):
        conj = [0] * p
        for k, c in enumerate(powers[pow(a, n - 1, p)]):
            conj[k * a % p] += c
        S = mul_exact_naive(p, S, conj)
    return S


@lru_cache(maxsize=None)
def bernoulli_frac(n: int) -> Fraction:
    """B_n by the defining recurrence sum C(n+1, j) B_j = 0."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    s = Fraction(0)
    for j in range(n):
        s += math.comb(n + 1, j) * bernoulli_frac(j)
    return -s / (n + 1)


def bn_over_n_mod_p(n: int, p: int) -> int:
    b = bernoulli_frac(n)
    den = b.denominator * n
    return b.numerator * pow(den, -1, p) % p


def b_c_factor_naive(p: int, c: int, n: int) -> int:
    """(c - omega^(p-n)(c)) * B_{1, omega^(n-1)} mod p, with omega(c) = c mod p
    and B_{1, omega^(n-1)} = B_n / n mod p by Kummer's congruence."""
    return (c - pow(c, p - n, p)) * bn_over_n_mod_p(n, p) % p


def b1_omegas_stepped(p: int, m0: int):
    """B_{1, omega^m} mod p for odd m = m0, m0+2, ..., p-4, in order.

    The Teichmuller character omega is evaluated mod p**2, where it is simply
    a -> a**p, and B_{1, omega^m} = (1/p) * sum_{a=1}^{p-1} omega(a)**m * a.
    omega(a) is computed once per a, and each term omega(a)**m * a steps
    to the next m by one product with omega(a)**2.
    """
    p2 = p * p
    omegas = [pow(a, p, p2) for a in range(1, p)]
    terms = [pow(w, m0, p2) * a % p2 for a, w in enumerate(omegas, 1)]
    steps = [w * w % p2 for w in omegas]
    for m in range(m0, p - 3, 2):
        tot = sum(terms) % p2
        if tot % p != 0:
            # the character sum is divisible by p for every odd m != -1 mod p-1
            raise ArithmeticError(f"character sum for p={p}, m={m} not divisible by p")
        yield tot // p
        terms = [t * s % p2 for t, s in zip(terms, steps)]


def multiplicative_order_naive(a: int, l: int) -> int | None:
    """Order of a mod the prime l by repeated multiplication; None for a = 0 (mod l)."""
    if a % l == 0:
        return None
    order, v = 1, a % l
    while v != 1:
        v = v * a % l
        order += 1
    return order


def residue_degree_naive(p: int, l: int) -> int:
    """Residue degree of p in the degree p subfield of Q(zeta_l), by search.

    The order of p mod l comes from repeated multiplication; f = p exactly
    when that order carries the full power of p dividing l - 1.
    """
    order = multiplicative_order_naive(p, l)

    def vp(x: int) -> int:
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        return e

    return p if vp(order) == vp(l - 1) else 1


def heuristic_probability_exact(p: int) -> Fraction:
    """The intersection probability with exact rational arithmetic."""
    N = (p - 3) // 2
    tot = Fraction(0)
    for j in range(N + 1):
        for k in range(N + 1):
            w = Fraction(math.comb(N, j) * math.comb(N, k))
            w *= Fraction(p - 1, p) ** (2 * N - j - k) * Fraction(1, p) ** (j + k)
            if j + k > N:
                br = Fraction(1)
            else:
                br = 1 - Fraction(
                    math.factorial(N - k) * math.factorial(N - j),
                    math.factorial(N) * math.factorial(N - k - j),
                )
            tot += w * br
    return tot


def derivation_check(p: int, J: CycModP) -> bool:
    """Whether J has the relations of every twisted Jacobi sum, augmentation
    m_0 = 1 and m_1 = m_2 = m_4 = 0, at each d <= p-2, where m_d is defined
    mod Phi_p.  The moments are int64 dots of p-1 terms below p**2 each."""
    k = np.arange(p - 1, dtype=np.int64)
    k2 = k * k % p
    cols = {0: np.ones_like(k), 1: k, 2: k2, 4: k2 * k2 % p}
    return all(int(col @ J.coeffs) % p == int(d == 0) for d, col in cols.items() if d <= p - 2)


def exponent_set_twist(ctx: TwistContext) -> tuple[int, ...]:
    """Ascending even n in [2, p-3] with S_n = 1, that is with m_(p-n-1)(theta J / J) = 0,
    read off the twist product J = J_1 ... J_(c-1).

    The moments m_e, e = 2, 4, ..., p-3, are one product with k**e mod p,
    gathered from the powers of c at log_c(k)*e mod p-1 in row blocks; as
    e is even, k and p - k share a column.  Sums stay below p**3 < 2**63.
    """
    p = ctx.p
    J = twist_product(ctx)
    if not derivation_check(p, J):
        raise ArithmeticError(f"the twist product of (p, l, c, g) = {p, ctx.l, ctx.c, ctx.g} "
                              "breaks a derivation relation")
    k = np.arange(p - 1, dtype=np.int64)
    w = np.append((CycModP(p, k * J.coeffs % p) * J.galois(p - 1)).coeffs, 0)
    half = (p - 1) // 2
    w = w[1:half + 1] + w[:half:-1]
    powers = _powers(ctx.c, p - 1, p)
    log = np.empty(p, dtype=np.int64)
    log[powers] = np.arange(p - 1)
    e = np.arange(2, p - 2, 2, dtype=np.int64)
    moments = np.empty_like(e)
    rows = max(1, _CHUNK // half)
    for r in range(0, len(e), rows):
        exps = e[r:r + rows, None] * log[1:half + 1]
        exps -= exps // (p - 1) * (p - 1)
        moments[r:r + rows] = powers[exps] @ w
    return tuple((p - 1 - e[moments % p == 0])[::-1].tolist())
