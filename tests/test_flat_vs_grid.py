"""Differential test of the flat field arithmetic against the grid oracle.

Inputs are drawn as flat elements (one precision each, negative shifts
allowed) and handed to both implementations with the same coordinates.
Every result must agree with the oracle on every digit both claim, and the
flat result must claim at least the oracle's least coordinate precision.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from grid_field import GridField, embed
from senlab.field import (FieldEmbedding, LocalFieldSpec, build_field, cyclotomic_field,
                          eisenstein_field, residue, trace_to_Qp)
from senlab.padic import PadicScalar

PREC = 30

# name -> (field, examples); the oracle is slow at degree 18
FIELDS = {
    "Q3(sqrt3)": (lambda: eisenstein_field(3, [-3, 0, 1], PREC), 60),
    "Q3(zeta9)": (lambda: cyclotomic_field(3, 2, PREC), 30),
    "Q3(zeta27)": (lambda: cyclotomic_field(3, 3, PREC), 4),
    "tower f=2 e=2": (lambda: build_field(LocalFieldSpec(3, [1, 0, 1], [[-3], [-6], [1]],
                                                         PREC)), 40),
}


@lru_cache(maxsize=None)
def fields(name):
    K = FIELDS[name][0]()
    return K, GridField(K)


def automorphism(K):
    """Images of y and u under a nontrivial automorphism of K."""
    if K.f == 2:
        return -K.basis()[K.e_ram], K.pi
    if K.degree == 2:
        return K.one(), -K.pi
    return K.one(), (K.one() + K.pi) ** 2 - K.one()


def element(K, draw):
    shift = draw(st.integers(-2, 2))
    prec = draw(st.integers(PREC - 6, PREC))
    coord = st.one_of(st.just(0), st.integers(-3 ** 6, 3 ** 6),
                      st.integers(-50, 50).map(lambda c: 3 * c))
    coords = draw(st.lists(coord, min_size=K.degree, max_size=K.degree))
    scalars = [PadicScalar.from_fraction(Fraction(c) * Fraction(3) ** shift, 3, prec)
               for c in coords]
    e = K.e_ram
    return K.from_grid([scalars[j * e:(j + 1) * e] for j in range(K.f)])


def assert_agrees(flat, grid):
    for a, b in zip(flat.coordinates(), grid.coordinates()):
        assert (a - b).is_zero(), (flat, grid.rows)
    assert flat.prec >= grid.min_prec(), (flat, grid.rows)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_flat_agrees_with_grid(name):
    K, G = fields(name)
    y_img, u_img = automorphism(K)
    emb = FieldEmbedding(K, K, y_img, u_img)
    gy_img, gu_img = G.lift(y_img), G.lift(u_img)

    @settings(max_examples=FIELDS[name][1])
    @given(st.data())
    def check(data):
        x, y = element(K, data.draw), element(K, data.draw)
        gx, gy = G.lift(x), G.lift(y)
        assert x.pivot_val() == gx.pivot_val()
        assert_agrees(x + y, gx + gy)
        assert_agrees(x - y, gx - gy)
        assert_agrees(x * y, gx * gy)
        if not y.is_zero():
            assert_agrees(x / y, gx / gy)
            assert_agrees(y.inverse(), gy.inverse())
        tf, tg = trace_to_Qp(x), gx.trace()
        assert (tf - tg).is_zero() and tf.prec >= tg.prec
        if x.val_bound() >= 0 and x.prec >= 1:
            assert residue(x) == gx.residue()
        assert_agrees(emb(x), embed(gx, gy_img, gu_img, G))

    check()


def test_mixed_precision_grid_is_read_at_the_least_precision():
    K, G = fields("Q3(sqrt3)")
    x = K.from_grid([[PadicScalar.from_int(7, 3, 20), PadicScalar.from_int(4, 3, 25)]])
    assert x.prec == 20
    assert [c.prec for c in G.lift(x).coordinates()] == [20, 20]
