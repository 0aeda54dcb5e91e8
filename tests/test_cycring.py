"""Ring arithmetic in F_p[x]/Phi_p(x)."""

import random

import numpy as np
import pytest

from primarity.cycring import CycModP, reduce_mod_phi, render_poly


def rand_elt(rng, p):
    return CycModP(p, [rng.randrange(p) for _ in range(p - 1)])


def test_constructor_canonicalizes_long_vectors():
    # x^5 = 1 and x^4 = -(x^3+x^2+x+1) in the p=5 ring
    a = CycModP(5, [0, 0, 0, 0, 0, 1])
    assert list(a.coeffs) == [1, 0, 0, 0]
    b = CycModP(5, [0, 0, 0, 0, 1])
    assert list(b.coeffs) == [4, 4, 4, 4]


def test_constructor_reduces_out_of_range_entries():
    a = CycModP(5, [7, -1, 0, 12])
    assert list(a.coeffs) == [2, 4, 0, 2]
    assert a == CycModP(5, [2, 4, 0, 2])


def test_reduce_mod_phi_folds_by_blocks():
    # x^6 = x in the p=5 ring
    vec = np.zeros(7, dtype=np.int64)
    vec[6] = 3
    assert list(reduce_mod_phi(vec, 5)) == [0, 3, 0, 0]


def test_mul_commutative_associative_distributive():
    rng = random.Random(11)
    for p in (5, 7, 13):
        for _ in range(20):
            a, b, c = (rand_elt(rng, p) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            ab, ac = (a * b).coeffs, (a * c).coeffs
            assert a * CycModP(p, b.coeffs + c.coeffs) == CycModP(p, ab + ac)


def test_mul_rejects_mismatched_rings():
    with pytest.raises(ValueError, match="mixed rings"):
        CycModP(5, [1]) * CycModP(7, [1])


def test_galois_is_ring_automorphism():
    rng = random.Random(37)
    p = 11
    for _ in range(10):
        a, b = rand_elt(rng, p), rand_elt(rng, p)
        for s in (2, 3, 10):
            assert (a * b).galois(s) == a.galois(s) * b.galois(s)
            total = CycModP(p, a.coeffs + b.coeffs)
            assert total.galois(s) == CycModP(p, a.galois(s).coeffs + b.galois(s).coeffs)


def test_galois_composition_and_identity():
    rng = random.Random(41)
    a = rand_elt(rng, 13)
    assert a.galois(1) == a
    assert a.galois(2).galois(3) == a.galois(6)
    # a = 12 = -1 composed with itself is the identity
    assert a.galois(12).galois(12) == a


def test_galois_rejects_zero_index():
    with pytest.raises(ValueError, match="nonzero"):
        CycModP(7, [1]).galois(7)


def test_augmentation_is_multiplicative_and_additive():
    rng = random.Random(5)
    for p in (5, 7):
        # the augmentation x -> 1 is the coefficient sum mod p
        a, b = rand_elt(rng, p), rand_elt(rng, p)
        sa, sb = int(a.coeffs.sum()) % p, int(b.coeffs.sum()) % p
        assert int((a * b).coeffs.sum()) % p == sa * sb % p
        assert int(CycModP(p, a.coeffs + b.coeffs).coeffs.sum()) % p == (sa + sb) % p
        assert int(a.galois(3).coeffs.sum()) % p == sa


def test_x_has_order_p():
    one = CycModP(7, [1])
    x = acc = CycModP(7, [0, 1])
    for _ in range(6):
        assert acc != one
        acc = acc * x
    assert acc == one


def test_monomial_reduces_top_power():
    m = CycModP(5, [0] * 4 + [2])
    assert list(m.coeffs) == [3, 3, 3, 3]


def test_render_poly_descending_pari_style():
    assert render_poly([1, 5, 0, 0, 0, 2, 1, 1]) == "x^7 + x^6 + 2*x^5 + 5*x + 1"
    assert render_poly([0]) == "0"
    assert render_poly([2, 1]) == "x + 2"
    assert CycModP(5, [1, 0, 3, 0]).render() == "3*x^2 + 1"


def test_constructor_refuses_p_at_the_int64_bound():
    top = CycModP((1 << 21) - 1, [1]).coeffs
    assert top[0] == 1 and not top[1:].any()
    with pytest.raises(ValueError, match="int64"):
        CycModP(1 << 21, [1])
