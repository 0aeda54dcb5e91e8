"""Twisted components S_n as pth powers, and the exact route over Z[x]/Phi_p(x).

The mod-p exponent sets only see whether S_n reduces to 1.  To decide
whether S_n is a local or global pth power, classify reads three numbers
off the Jacobi sums and never multiplies S_n out over Z: the l-content v
of S_n, the residue symbol u of S_n / l**v at a root of Phi_p mod l, and
the p-adic valuation s of S_n - 1.  l splits into the p-1 primes
P_k = (l, x - w**k), w = g**M mod l, M = (l-1)/p, and as
J_i sigma_-1(J_i) = l, each P_k divides J_i at most once (Ireland and
Rosen, ch. 14; Washington, section 6.2).  The values J_i(w**k) mod l
come from the factorials of the context by the Jacobi-sum congruence
(jacobi.jacobi_values).  v counts which of them vanish, and u multiplies
them, with 1/J_i(w**-k) mod l for a J_i(w**k) that vanishes, as the unit
part of J_i at P_k.  s >= 1 exactly when S_n = 1 mod p: the full range
a = 1 .. p-1 makes S_n the square of the half-range component of jacobi,
which has augmentation 1, and in the local ring F_p[x]/Phi_p =
F_p[x]/(x-1)**(p-1) such a square is 1 only for 1 itself.
So s = 0 is read off the mod-p exponent set, and only for n in the set
does s come from S_n mod p**K, with K doubling from 2.

The exact route rebuilds a component with integer coefficients over the
full range a = 1 .. p-1, splits off its l-content and evaluates the
reduced element at a root of Phi_p mod l.  Nothing in classify calls it:
it is the independent route the tests check classify against, and the
benchmark's symbol37 workload builds its norm inputs with it.  It
multiplies out the defining product in Z[x]/Phi_p with exact integer
coefficients.  Every J_i has absolute value sqrt(l) in every complex
embedding, so each coefficient of S_n lies below 2 * l**(e/2), e = (c-1)
* sum_a (a**(n-1) mod p).  That bound sizes the coefficients before any
work, and components above the fixed budget MEMORY_LIMIT (1 GiB of
coefficients) are refused.

The norm of the reduced component is a signed power of l.  It is computed
exactly inside Z[x]/Phi_p, down the tower of subfields of the cyclic
Galois group: one prime factor r of p-1 at a time, the element is
replaced by the product of its r conjugates over the next subfield, which
for p = 37 takes six products.  Valuations are read with a squaring
ladder q, q**2, q**4, ... rather than one division per factor, and the
content of an element (its l-content v, or the p-adic valuation s of
S_n - 1) from one ladder on the gcd of its coefficients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .jacobi import (TwistContext, _counts, _hankel, _powers, check_exponent, exponent_set,
                     jacobi_counts, jacobi_values, pair_key)
from .modarith import factorize, primitive_root
from .records import JsonlStore

MEMORY_LIMIT = 1 << 30  # bytes of coefficient storage


class CycBigInt:
    """Element of Z[x]/Phi_p(x) with exact integer coefficients."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs) -> None:
        coeffs = list(coeffs)
        if len(coeffs) == p:
            # fold away x**(p-1) = -(x**(p-2) + ... + 1)
            top = coeffs[p - 1]
            coeffs = [c - top for c in coeffs[: p - 1]]
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients, got {len(coeffs)}")
        self.p = p
        self.coeffs = [int(c) for c in coeffs]

    def mul(self, other: "CycBigInt") -> "CycBigInt":
        """Product reduced mod Phi_p."""
        if self.p != other.p:
            raise ValueError(f"mixed rings: p={self.p} vs p={other.p}")
        p = self.p
        folded = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        folded[(i + j) % p] += a * b
        return CycBigInt(p, folded)

    def galois(self, a: int) -> "CycBigInt":
        """Image under x -> x**a; a must be invertible mod p."""
        p = self.p
        a %= p
        if a == 0:
            raise ValueError("galois index must be nonzero mod p")
        out = [0] * p
        for k, c in enumerate(self.coeffs):
            out[k * a % p] += c
        return CycBigInt(p, out)

    def minus_one(self) -> "CycBigInt":
        c = list(self.coeffs)
        c[0] -= 1
        return CycBigInt(self.p, c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycBigInt):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"CycBigInt(p={self.p}, {self.coeffs})"


def exact_jacobi_sum(ctx: TwistContext, i: int) -> CycBigInt:
    """J_i with exact integer coefficients (counts, not residues)."""
    return CycBigInt(ctx.p, [-int(t) for t in jacobi_counts(ctx, i)])


def exact_twist_component(ctx: TwistContext, n: int) -> CycBigInt:
    """S_n = prod_{a=1}^{p-1} sigma_a(J**(a**(n-1) mod p)), exactly.

    The full range a = 1 .. p-1 is deliberate: it makes S_n the square of
    the mod-p convention and keeps the norm a clean power of l.  J is the
    product of J_1 .. J_(c-1), its powers J**t come by repeated products,
    and each a adds one product by sigma_a(J**e_a).  Raises MemoryError
    before any work when the height bound allows coefficients of more than
    MEMORY_LIMIT bytes.
    """
    p, l = ctx.p, ctx.l
    check_exponent(p, n)
    e = [pow(a, n - 1, p) for a in range(1, p)]
    # |tau(J_i)| = sqrt(l) for every embedding tau, as chi**i, chi and
    # chi**(i+1) are nontrivial for i <= c-1 <= p-3; so |tau(S_n)| = B with
    # B**2 = l**height, and as the p-1 embeddings of S_n are its values at
    # the roots of Phi_p, inverting that DFT gives |coefficient| < 2B
    height = (ctx.c - 1) * sum(e)
    bits = (height * l.bit_length() + 1) // 2 + 1  # bits of 2B, rounded up
    if (p - 1) * bits // 8 > MEMORY_LIMIT:
        raise MemoryError(f"coefficients exceed the {MEMORY_LIMIT} byte budget for p={p}")
    J, *rest = [CycBigInt(p, (-t).tolist()) for t in _counts(ctx, range(1, ctx.c))]
    for J_i in rest:
        J = J.mul(J_i)
    powers = [None, J]  # J**t at t; e_a >= 1
    while len(powers) <= max(e):
        powers.append(powers[-1].mul(J))
    S = J  # e_1 = 1 and sigma_1 is the identity
    for a in range(2, p):
        S = S.mul(powers[e[a - 1]].galois(a))
    return S


def _valuation(n: int, q: int) -> int:
    """Exponent of q in n != 0, from a squaring ladder q, q**2, q**4, ...

    Costs O(log v) big divisions where the plain loop costs v of them.
    """
    if n == 0 or q < 2:
        raise ValueError(f"no {q}-adic valuation of {n}")
    ladder = []
    step = q
    while n % step == 0:
        ladder.append(step)
        step *= step
    v = 0
    for k in reversed(range(len(ladder))):
        rest, r = divmod(n, ladder[k])
        if r == 0:
            n = rest
            v += 1 << k
    return v


def min_p_valuation(u: CycBigInt, q: int) -> int | None:
    """Least q-adic valuation of the coefficients, that of their gcd; None if u = 0."""
    d = math.gcd(*u.coeffs)
    return None if d == 0 else _valuation(d, q)


def l_content(u: CycBigInt, l: int) -> tuple[int, CycBigInt]:
    """Split u = l**v * reduced with reduced not divisible by l."""
    v = min_p_valuation(u, l)
    if v is None:
        raise ValueError("the zero element has no l-content")
    if v == 0:
        return 0, u
    d = l**v
    return v, CycBigInt(u.p, [c // d for c in u.coeffs])


def residue_symbol(reduced: CycBigInt, l: int, g: int) -> int:
    """u = R**((l-1)/p) mod l for the first nonvanishing root evaluation.

    Roots of Phi_p mod l are tried in the fixed order (g**M)**b, b = 1, 2,
    ..., p-1 with M = (l-1)/p, so reruns always pick the same root.
    """
    p = reduced.p
    M = (l - 1) // p
    w = pow(g, M, l)
    cods = [c % l for c in reduced.coeffs]
    for b in range(1, p):
        r = pow(w, b, l)
        acc = 0
        for c in reversed(cods):
            acc = (acc * r + c) % l
        if acc != 0:
            return pow(acc, M, l)
    raise ValueError(f"all root evaluations vanish mod {l}; element not reduced")


@dataclass(frozen=True)
class SymbolReport:
    """Local and global pth-power verdicts for one component S_n.

    s is the minimal p-adic valuation of S_n - 1, v the l-adic content, u
    the residue symbol of the reduced component.  classify never gives
    s = None, which stood for S_n = 1 exactly, as |S_n| > 1; a record that
    holds it still reads as local at p.  The verdicts are read off these:
    classification keeps only the strongest statement, the two booleans
    keep all of them.
    """

    p: int
    n: int
    l: int
    c: int
    g: int
    v: int
    s: int | None
    u: int

    CSV_HEADER = ("p", "n", "l", "v", "s", "u", "classification")
    key = property(attrgetter("p", "n", "l", "c", "g"))
    local_at_p = property(lambda self: self.s != 0)
    local_at_l = property(lambda self: self.v % self.p == 0 and self.u == 1)

    @property
    def classification(self) -> str:
        if self.local_at_p:
            return "global" if self.local_at_l else "local_at_p"
        return "local_at_l" if self.local_at_l else "non_local_at_l"

    def row(self) -> list:
        return [self.p, self.n, self.l, self.v, self.s, self.u, self.classification]

    def lines(self) -> list[str]:
        """The human-readable verdict lines, strongest last."""
        out = []
        if self.local_at_p:
            out.append("Sn local pth power at P")
        if self.local_at_l:
            out.append("Sn local pth power at L")
        else:
            out.append("Sn NON local pth power at L")
        if self.local_at_p and self.local_at_l:
            out.append("Sn GLOBAL pth power")
        return out

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "n": self.n, "l": self.l, "c": self.c, "g": self.g,
             "v": self.v, "s": self.s, "u": self.u,
             "classification": self.classification}
        )

    @classmethod
    def from_json(cls, line: str) -> "SymbolReport":
        d = json.loads(line)
        return cls(**{k: d[k] for k in ("p", "n", "l", "c", "g", "v", "s", "u")})


def symbol_key(p: int, n: int, l: int, c: int | None = None,
               g: int | None = None) -> tuple[int, int, int, int, int]:
    """(p, n, l, c, g) for a valid pair, c and g resolved by pair_key."""
    p, l, c, g = pair_key(p, l, c, g)
    return p, n, l, c, g


def _component_mod(ctx: TwistContext, e: list[int], q: int) -> np.ndarray:
    """The coefficients of S_n = prod_a sigma_a(J**e_a) mod q, on 1, x, ..., x**(p-2).

    e[a-1] = a**(n-1) mod p.  The product is taken in (Z/q)[x]/(x**p - 1)
    and folded onto Phi_p at the end; in int64 while the p terms of a
    product coefficient stay below 2**63, in Python integers past that.
    """
    p = ctx.p
    dtype = np.int64 if p * q * q < 1 << 63 else object

    def mul(x, y):
        r = np.convolve(x, y)
        r[:p - 1] += r[p:]
        return r[:p] % q

    one = np.zeros(p, dtype=dtype)
    one[0] = 1
    J = one
    for t in _counts(ctx, range(1, ctx.c)):
        J = mul(J, -t.astype(dtype) % q)
    by_power = [[] for _ in range(p)]
    for a, ea in zip(range(1, p), e):
        by_power[ea].append(a)
    S, power, sigma = one, one, np.empty(p, dtype=dtype)
    for group in by_power[1:]:  # the a with e_a = 1, 2, ..., p-1
        power = mul(power, J)
        for a in group:
            sigma[np.arange(p) * a % p] = power
            S = mul(S, sigma)
    return (S[:p - 1] - S[p - 1]) % q


def _s_valuation(ctx: TwistContext, e: list[int]) -> int:
    """s = v_p(S_n - 1), least over the coefficients, from S_n mod p**K.

    classify calls it only for n in the exponent set, where s >= 1.
    K = 2, 4, 8, ... until S_n - 1 has a coefficient that p**K does not
    divide.  Every coefficient of S_n lies below 2*l**(h/2), h = (c-1) *
    sum_a e_a, as exact_twist_component shows, so once p**K exceeds twice
    that bound S_n - 1 = 0 exactly, which |S_n| = l**(h/2) > 1 rules out:
    ArithmeticError.
    """
    p, l = ctx.p, ctx.l
    K = 2
    while True:
        S = _component_mod(ctx, e, p**K)
        S[0] -= 1
        d = math.gcd(*S.tolist())
        if d:
            return _valuation(d, p)
        if p ** (2 * K) > 16 * l ** ((ctx.c - 1) * sum(e)):
            raise ArithmeticError(f"p**{K} divides S_n - 1 at (p, l, c, g) = {p, l, ctx.c, ctx.g},"
                                  " past its height bound")
        K *= 2


def classify(ctx: TwistContext, n: int) -> SymbolReport:
    """Classify S_n as a pth power from the Jacobi sums at the primes above l.

    exponent_set(ctx) runs first and checks the derivation relations of
    the count rows it reads.  P_k = (l, x - w**k) divides J_i where V_i(k)
    = J_i(w**k) mod l of jacobi_values vanishes, and then once, so S_n has
    valuation v_k = sum_a e_a #{i : V_i(a*k) = 0} at P_k, e_a = a**(n-1)
    mod p, and l-content v = min_k v_k.  u is read at the first k with
    v_k = v.  At the Teichmuller lift W of w, J_i(W**b) J_i(W**-b) = l mod
    l**2, so the unit part of a factor l divides is 1/V_i(-b), and u =
    (prod of the factors**e_a)**M mod l.  s = 0 unless n is in the set;
    then _s_valuation must find s >= 1, or ArithmeticError is raised.
    """
    p, l = ctx.p, ctx.l
    check_exponent(p, n)
    in_set = n in exponent_set(ctx)
    e = np.array([pow(a, n - 1, p) for a in range(1, p)])
    cu = _powers(ctx.c, p - 1, p)
    r = np.arange(p)
    V = jacobi_values(p, l, ctx.factorials, np.arange(1, ctx.c)[:, None], r)  # column 0 unread
    zero = V == 0
    v_k = np.full(p, -1, dtype=np.int64)
    # with a = c**x and k = c**u, the J_i(w**(a*k)) sit at x + u
    v_k[cu] = _hankel(np.tile(zero.sum(axis=0)[cu], 2)) @ e[cu - 1]
    v = int(v_k[1:].min())
    b = r[1:] * int(np.argmax(v_k == v)) % p
    # a factor l divides enters as V_i(-b)**-e_a
    factors = np.where(zero[:, b], V[:, p - b], V[:, b]).ravel().tolist()
    powers = np.where(zero[:, b], -e, e).ravel().tolist()
    acc = 1
    for x, ea in zip(factors, powers):
        acc = acc * pow(x, ea, l) % l
    u = pow(acc, (l - 1) // p, l)
    s = 0
    if in_set:
        s = _s_valuation(ctx, e.tolist())
        if s == 0:
            raise ArithmeticError(f"S_n mod p at (p, l, c, g) = {p, l, ctx.c, ctx.g} "
                                  f"contradicts the exponent set, which holds n={n}")
    return SymbolReport(p=p, n=n, l=l, c=ctx.c, g=ctx.g, v=v, s=s, u=u)


def symbol_report(key: tuple[int, int, int, int, int]) -> SymbolReport:
    """Worker body: the report a SymbolCache stores under key."""
    p, n, l, c, g = key
    return classify(TwistContext.build(p, l, c=c, g=g), n)


class SymbolCache(JsonlStore):
    """Symbol reports keyed by (p, n, l, c, g)."""

    record = SymbolReport


def norm_l_power(u: CycBigInt, l: int) -> tuple[int, int]:
    """Norm of u down to Q, returned as (sign, e) with norm = sign * l**e.

    Gal(Q(zeta_p)/Q) is cyclic of order p-1, generated by sigma: x -> x**c
    for a primitive root c mod p.  The norm is taken down the tower of
    fixed fields one prime factor r of the degree r*m at a time: the
    product of the r conjugates sigma**(j*m)(v), j < r, is the norm of v
    into the subfield of degree m.  At degree 1 only the constant may be left;
    anything else is an arithmetic fault and raises ArithmeticError.
    Raises ValueError if the norm is not a signed power of l, which cannot
    happen for a reduced twisted component.
    """
    p = u.p
    if not any(u.coeffs):
        raise ValueError("the zero element has no norm")
    c = primitive_root(p)
    v, m = u, p - 1
    for r in factorize(p - 1):
        m //= r
        w = v
        for j in range(1, r):
            w = w.mul(v.galois(pow(c, j * m, p)))
        v = w
    norm, *rest = v.coeffs
    if norm == 0 or any(rest):
        raise ArithmeticError(f"the norm from Q(zeta_{p}) is not a nonzero rational")
    e = _valuation(norm, l)
    if abs(norm) != l**e:
        raise ValueError(f"norm is not a pure power of {l}")
    return (-1 if norm < 0 else 1), e
