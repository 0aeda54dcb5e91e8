"""Exact twisted components over Z[x]/Phi_p(x) and their residue symbols.

The mod-p exponent sets only see whether S_n reduces to 1.  To decide
whether S_n is a local or global pth power the component is rebuilt with
exact integer coefficients over the full range a = 1 .. p-1, its l-content
split off, and the reduced element evaluated at a root of Phi_p mod l.
A coefficient blow-up guard caps the exact route at a configurable memory
budget (default 1 GiB) instead of thrashing.

The norm of the reduced component is a signed power of l.  It is computed
exactly inside Z[x]/Phi_p, down the tower of subfields of the cyclic
Galois group: one prime factor r of p-1 at a time, the element is
replaced by the product of its r conjugates over the next subfield, which
for p = 37 takes six products.  Valuations are read with a squaring
ladder q, q**2, q**4, ... rather than one division per factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .cycring import CycModP
from .jacobi import TwistContext, check_exponent, jacobi_counts
from .modarith import factorize, primitive_root
from .records import JsonlStore

DEFAULT_MEMORY_LIMIT = 1 << 30  # bytes of coefficient storage


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

    @classmethod
    def one(cls, p: int) -> "CycBigInt":
        return cls(p, [1] + [0] * (p - 2))

    def mul(self, other: "CycBigInt", limit: int | None = None) -> "CycBigInt":
        """Product reduced mod Phi_p, with an optional memory guard."""
        if self.p != other.p:
            raise ValueError(f"mixed rings: p={self.p} vs p={other.p}")
        p = self.p
        folded = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        folded[(i + j) % p] += a * b
        out = CycBigInt(p, folded)
        if limit is not None and out.storage_bytes() > limit:
            raise MemoryError(
                f"coefficients exceed the {limit} byte budget for p={p}"
            )
        return out

    def __mul__(self, other: "CycBigInt") -> "CycBigInt":
        return self.mul(other)

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

    def storage_bytes(self) -> int:
        return sum(c.bit_length() for c in self.coeffs) // 8

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def to_mod_p(self) -> CycModP:
        """Reduction of every coefficient mod p."""
        return CycModP(self.p, np.array([c % self.p for c in self.coeffs], dtype=np.int64))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycBigInt):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"CycBigInt(p={self.p}, {self.coeffs})"


def exact_jacobi_sum(ctx: TwistContext, i: int) -> CycBigInt:
    """J_i with exact integer coefficients (counts, not residues)."""
    return CycBigInt(ctx.p, [-int(t) for t in jacobi_counts(ctx, i)])


def exact_twist_product(ctx: TwistContext, limit: int | None = DEFAULT_MEMORY_LIMIT) -> CycBigInt:
    """J = J_1 * ... * J_(c-1) over Z[x]/Phi_p."""
    J = CycBigInt.one(ctx.p)
    for i in range(1, ctx.c):
        J = J.mul(exact_jacobi_sum(ctx, i), limit=limit)
    return J


def exact_twist_component(
    ctx: TwistContext, n: int, limit: int | None = DEFAULT_MEMORY_LIMIT
) -> CycBigInt:
    """S_n = prod_{a=1}^{p-1} sigma_a(J**(a**(n-1) mod p)), exactly.

    The full range a = 1 .. p-1 is deliberate: it makes S_n the square of
    the mod-p convention and keeps the norm a clean power of l.
    """
    p = ctx.p
    check_exponent(p, n)
    J = exact_twist_product(ctx, limit=limit)
    powers = [CycBigInt.one(p), J]
    for _ in range(p - 2):
        powers.append(powers[-1].mul(J, limit=limit))
    S = CycBigInt.one(p)
    for a in range(1, p):
        S = S.mul(powers[pow(a, n - 1, p)].galois(a), limit=limit)
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
    """Smallest q-adic valuation over the nonzero coefficients, None if u = 0."""
    best: int | None = None
    for c in u.coeffs:
        if c == 0:
            continue
        v = _valuation(c, q)
        if best is None or v < best:
            best = v
            if best == 0:
                break
    return best


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
    """Local and global pth-power verdicts for one exact component.

    s is the minimal p-adic valuation of S_n - 1 (None when S_n = 1
    exactly), v the l-adic content, u the residue symbol of the reduced
    component.  classification keeps only the strongest statement; the
    booleans keep all of them.
    """

    p: int
    n: int
    l: int
    c: int
    g: int
    v: int
    s: int | None
    u: int
    local_at_p: bool
    local_at_l: bool
    classification: str

    CSV_HEADER = ("p", "n", "l", "v", "s", "u", "classification")
    key = property(attrgetter("p", "n", "l", "c", "g"))

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
        return build_report(p=d["p"], n=d["n"], l=d["l"], c=d["c"], g=d["g"],
                            v=d["v"], s=d["s"], u=d["u"])


def symbol_key(p: int, n: int, l: int, c: int | None = None,
               g: int | None = None) -> tuple[int, int, int, int, int]:
    """(p, n, l, c, g), with c and g defaulting as in TwistContext.build."""
    return (p, n, l, primitive_root(p) if c is None else c,
            primitive_root(l) if g is None else g)


def build_report(p: int, n: int, l: int, v: int, s: int | None, u: int,
                 c: int | None = None, g: int | None = None) -> SymbolReport:
    """Derive the classification from the measured invariants."""
    local_at_p = s != 0  # includes S_n = 1 exactly (s is None)
    local_at_l = v % p == 0 and u == 1
    if local_at_p and local_at_l:
        cls = "global"
    elif local_at_p:
        cls = "local_at_p"
    elif local_at_l:
        cls = "local_at_l"
    else:
        cls = "non_local_at_l"
    p, n, l, c, g = symbol_key(p, n, l, c, g)
    return SymbolReport(
        p=p, n=n, l=l, c=c, g=g, v=v, s=s, u=u,
        local_at_p=local_at_p, local_at_l=local_at_l, classification=cls,
    )


def classify(ctx: TwistContext, n: int, limit: int | None = DEFAULT_MEMORY_LIMIT) -> SymbolReport:
    """Build the exact component and classify it as a pth power."""
    S = exact_twist_component(ctx, n, limit=limit)
    s = min_p_valuation(S.minus_one(), ctx.p)
    v, reduced = l_content(S, ctx.l)
    u = residue_symbol(reduced, ctx.l, ctx.g)
    return build_report(p=ctx.p, n=n, l=ctx.l, c=ctx.c, g=ctx.g, v=v, s=s, u=u)


def classify_for(
    p: int, l: int, n: int,
    c: int | None = None, g: int | None = None,
    limit: int | None = DEFAULT_MEMORY_LIMIT,
) -> SymbolReport:
    """Convenience wrapper building the context and discarding it."""
    return classify(TwistContext.build(p, l, c=c, g=g), n, limit=limit)


def symbol_report(key: tuple[int, int, int, int, int]) -> SymbolReport:
    """Worker body: the report a SymbolCache stores under key."""
    p, n, l, c, g = key
    return classify_for(p, l, n, c=c, g=g)


class SymbolCache(JsonlStore):
    """Symbol reports keyed by (p, n, l, c, g)."""

    record = SymbolReport

    def get(self, p: int, n: int, l: int, c: int | None = None,
            g: int | None = None) -> SymbolReport | None:
        return super().get(*symbol_key(p, n, l, c, g))


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
