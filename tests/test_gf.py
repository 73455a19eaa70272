import pytest

from clkset import FieldReduction, GeometryCtx, SchemeParams, field_ctx, geometry
from clkset.gf import canonical_modulus


class TestFieldAxioms:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_axioms_exhaustive(self, q):
        f = field_ctx(q)
        elems = list(f.elements())
        for a in elems:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in elems:
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in elems:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_gf2_addition(self):
        assert field_ctx(2).add(1, 1) == 0

    def test_gf4_multiplication(self):
        # modulus x^2+x+1: a * a = a + 1, i.e. index 2 * 2 -> 3
        f = field_ctx(4)
        assert f.mul(2, 2) == 3

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            field_ctx(5).inv(0)

    def test_cap(self):
        # the field-size cap is the geometry's, checked before anything is
        # counted, so PG(3,32) lines, past both caps, get the field message
        for n, k in ((1, 0), (3, 1)):
            with pytest.raises(ValueError, match="field size 32 exceeds configured cap 16"):
                GeometryCtx(SchemeParams(n=n, k=k, q=32))


class TestCanonicalModulus:
    def test_frozen_moduli(self):
        assert canonical_modulus(2, 2) == (1, 1, 1)  # x^2+x+1
        assert canonical_modulus(2, 3) == (1, 1, 0, 1)  # x^3+x+1
        assert canonical_modulus(3, 2) == (1, 0, 1)  # x^2+1
        assert canonical_modulus(2, 4) == (1, 1, 0, 0, 1)  # x^4+x+1

    def test_deterministic(self):
        assert field_ctx(9).modulus == field_ctx(9).modulus


class TestFieldReduction:
    def test_embedding_preserves_arithmetic(self):
        big, small = field_ctx(16), field_ctx(4)
        red = FieldReduction(big, small)
        for a in small.elements():
            for b in small.elements():
                assert red.embed(small.add(a, b)) == big.add(red.embed(a), red.embed(b))
                assert red.embed(small.mul(a, b)) == big.mul(red.embed(a), red.embed(b))

    def test_expansion_is_bijective_and_linear(self):
        big, small = field_ctx(9), field_ctx(3)
        red = FieldReduction(big, small)
        seen = {red.expand(w) for w in big.elements()}
        assert len(seen) == 9
        for w1 in big.elements():
            for w2 in big.elements():
                s = big.add(w1, w2)
                expanded = tuple(
                    small.add(a, b) for a, b in zip(red.expand(w1), red.expand(w2))
                )
                assert red.expand(s) == expanded

    def test_rejects_non_subfield(self):
        with pytest.raises(ValueError):
            FieldReduction(field_ctx(8), field_ctx(4))
        with pytest.raises(ValueError):
            FieldReduction(field_ctx(9), field_ctx(2))


class TestSpreadConstruction:
    def test_pg32_spread_partitions(self):
        ctx = geometry(3, 1, 2)
        spread = ctx.construct_spread()
        assert len(spread) == 5
        assert ctx.is_partial_spread(spread)
        covered = 0
        for c in spread:
            covered |= ctx.kspace_masks[c]
        assert covered == ctx.full_point_mask

    def test_pg52_spread(self):
        ctx = geometry(5, 1, 2)
        spread = ctx.construct_spread()
        assert len(spread) == 21
        assert ctx.is_partial_spread(spread)

    def test_pg33_spread(self):
        ctx = geometry(3, 1, 3)
        assert len(ctx.construct_spread()) == 10

    def test_rejected_when_divisibility_fails(self):
        ctx = geometry(4, 1, 2)
        with pytest.raises(ValueError):
            ctx.construct_spread()
