import random
from fractions import Fraction

import pytest

from senlab.errors import UsageError
from senlab.field import (LocalFieldSpec, build_field, cyclotomic_field,
                          eisenstein_field, qp_field, scalar_embedding)
from senlab.padic import PadicScalar
from senlab.picard import (BoundaryValue, boundary, functoriality_check,
                           in_picard_image, kernel_lattice, witness_of_order)

S = PadicScalar
P = 5


@pytest.fixture(scope="module")
def Q():
    return qp_field(P, 40)


@pytest.fixture(scope="module")
def Z():
    return cyclotomic_field(P, 1, 40)


class TestBoundary:
    def test_unit_maps_to_one_over_p(self, Q):
        assert boundary(Q.one()).as_fraction() == Fraction(1, P)
        assert not in_picard_image(Q.one())

    def test_p_maps_to_zero(self, Q):
        assert boundary(Q.from_int(P)).is_zero()
        assert in_picard_image(Q.from_int(P * 7))

    def test_root_of_unity(self, Z):
        zeta = Z.one() + Z.pi
        assert boundary(zeta).as_fraction() == Fraction(P - 1, P)
        assert in_picard_image(zeta - zeta ** 2)

    def test_additivity_and_scaling(self, Z):
        rng = random.Random(3)
        for _ in range(10):
            x = Z.from_grid([[S.from_int(rng.randrange(-100, 100), P, 40)
                              for _ in range(4)]])
            y = Z.from_grid([[S.from_int(rng.randrange(-100, 100), P, 40)
                              for _ in range(4)]])
            assert (boundary(x) + boundary(y)) == boundary(x + y)
            c = rng.randrange(-9, 9)
            assert boundary(x).scaled(c) == boundary(x * c)

    def test_order_drops_under_p(self, Q):
        x = witness_of_order(Q, 4)
        assert boundary(x * P) == boundary(x).scaled(P)
        assert boundary(x * P).den_pow == 3

    def test_boundary_value_normalization(self):
        b = BoundaryValue(5, 10, 2, 40)   # 10/25 = 2/5
        assert b.num == 2 and b.den_pow == 1
        assert BoundaryValue(5, 25, 2, 40).is_zero()

    def test_boundary_value_equality(self, Q):
        # an int compares as a Fraction does, modulo Z_p; other types do not compare
        assert boundary(Q.from_int(P)) == 0 and boundary(Q.from_int(P)) == 3
        assert boundary(Q.one()) != 0 and boundary(Q.one()) == Fraction(1 + P, P)
        assert boundary(Q.one()) != "1/%d" % P and boundary(Q.one()) != 1.0


class TestKernelLattice:
    def test_qp_s0(self, Q):
        rep = kernel_lattice(Q, 0)
        assert rep.image_order_exponent == 1
        assert len(rep.basis) == 1
        assert (rep.basis[0] - Q.from_int(P)).is_zero()

    def test_qp_s2(self, Q):
        rep = kernel_lattice(Q, 2)
        assert rep.image_order_exponent == 3
        assert all(in_picard_image(x) for x in rep.basis)

    def test_unramified_quadratic(self):
        U = build_field(LocalFieldSpec(5, [2, 0, 1], [[-5], [1]], 40))
        rep = kernel_lattice(U, 0)
        assert rep.image_order_exponent == 1
        assert len(rep.basis) == U.degree
        assert all(in_picard_image(x) for x in rep.basis)

    def test_cyclotomic(self, Z):
        rep = kernel_lattice(Z, 0)
        assert all(in_picard_image(x) for x in rep.basis)
        assert rep.image_order_exponent >= 1

    def test_negative_s_rejected(self, Q):
        with pytest.raises(UsageError):
            kernel_lattice(Q, -1)

    def test_exactness_index(self, Q, Z):
        # the kernel is a full-rank sublattice
        for field in (Q, Z):
            rep = kernel_lattice(field, 0)
            assert len(rep.basis) == field.degree


class TestFunctoriality:
    def test_trivial_embedding(self, Q):
        from senlab.field import FieldEmbedding
        emb = FieldEmbedding(Q, Q, Q.one(), Q.pi)
        r = functoriality_check(emb, Q.one())
        assert r["equal"] and r["relative_degree"] == 1

    def test_unit_along_cyclotomic(self, Q, Z):
        emb = scalar_embedding(Q, Z)
        r = functoriality_check(emb, Q.one())
        assert r["equal"]
        assert r["lhs"].as_fraction() == Fraction(P - 1, P)

    def test_random_elements(self, Q, Z):
        emb = scalar_embedding(Q, Z)
        rng = random.Random(5)
        for _ in range(10):
            x = Q.from_int(rng.randrange(-10 ** 5, 10 ** 5))
            assert functoriality_check(emb, x)["equal"]

    def test_wrong_source_rejected(self, Q, Z):
        emb = scalar_embedding(Q, Z)
        with pytest.raises(UsageError):
            functoriality_check(emb, Z.one())


class TestWitness:
    def test_orders_up_to_five(self, Q, Z):
        for field in (Q, Z):
            for k in range(6):
                w = witness_of_order(field, k)
                assert boundary(w).den_pow == k

    def test_ramified_field(self):
        K = eisenstein_field(3, [-3, 0, 1], 40)
        for k in range(4):
            w = witness_of_order(K, k)
            assert boundary(w).den_pow == k
