import pytest
from hypothesis import given, settings, strategies as st

from freesplit.automorphisms import (DISTINCT, EQUAL, abelianization,
                                     apply_map, compose_maps, identity_map,
                                     invert_map, outer_equal)
from freesplit.errors import InvalidInput
from freesplit.words import (BWD, FWD, cyclic_reduce, invert, reduce_word,
                             strip_cyclic)

x, y, z = FWD[0], FWD[1], FWD[2]
X, Y, Z = BWD[0], BWD[1], BWD[2]


def words_strategy(rank, max_len):
    letters = list(FWD[:rank] + BWD[:rank])
    return st.lists(st.sampled_from(letters), max_size=max_len).map("".join)


@st.composite
def endo_and_words(draw):
    """A rank 2-3 basis map (images unreduced, maybe empty) and two words."""
    rank = draw(st.integers(2, 3))
    bm = tuple(draw(words_strategy(rank, 5)) for _ in range(rank))
    return bm, draw(words_strategy(rank, 10)), draw(words_strategy(rank, 10))


def _nielsen_generators(rank):
    """Transvections, one inversion and one swap: they generate Aut(F_n)."""
    gens = []
    for i in range(rank):
        for j in range(rank):
            if i != j:
                for img in (FWD[i] + FWD[j], FWD[j] + FWD[i]):
                    gens.append(tuple(img if k == i else FWD[k]
                                      for k in range(rank)))
    gens.append((BWD[0],) + identity_map(rank)[1:])
    gens.append((FWD[1], FWD[0]) + identity_map(rank)[2:])
    return gens


@st.composite
def automorphisms(draw):
    rank = draw(st.integers(2, 3))
    bm = identity_map(rank)
    for g in draw(st.lists(st.sampled_from(_nielsen_generators(rank)),
                           max_size=6)):
        bm = compose_maps(g, bm)
    return bm


class TestInvert:
    def test_identity(self):
        assert invert_map(identity_map(3)) == identity_map(3)

    def test_elementary(self):
        assert invert_map((x + y, y)) == (x + Y, y)

    def test_round_trip_random_compositions(self):
        elementary = [(x + y, y), (x, y + x), (x + Y, y), (y, x), (X, y)]
        f = identity_map(2)
        for e in elementary:
            f = compose_maps(e, f)
        g = invert_map(f)
        assert compose_maps(f, g) == identity_map(2)
        assert compose_maps(g, f) == identity_map(2)

    def test_not_an_automorphism(self):
        with pytest.raises(InvalidInput):
            invert_map((x + y + X, y))  # <xyx^-1, y> is a proper subgroup

    def test_trivial_image_rejected(self):
        with pytest.raises(InvalidInput):
            invert_map(("", y))


class TestOuterEqual:
    def test_reflexive(self):
        f = (x + y, y)
        assert outer_equal(f, f)[0] == EQUAL

    def test_inner_conjugate(self):
        f = (x + y + x, x + y)
        g = tuple(reduce_word(y + w + Y) for w in f)
        verdict, u = outer_equal(f, g)
        assert verdict == EQUAL
        assert all(reduce_word(u + g[i] + invert(u)) == f[i] for i in range(2))

    def test_abelianization_distinct(self):
        assert outer_equal((x + y, y), identity_map(2))[0] == DISTINCT

    def test_same_abelianization_distinct(self):
        # conjugation-like on one letter only is not inner
        f = (x, y, z)
        g = (x, x + y + X, z)
        assert abelianization(f) == abelianization(g)
        assert outer_equal(f, g)[0] == DISTINCT

    def test_apply_map(self):
        f = (x + y, y)
        assert apply_map(f, x + Y) == x  # (xy) y^-1 reduces


class TestApplyMapProperties:
    @settings(max_examples=100, deadline=None)
    @given(endo_and_words())
    def test_strip_cyclic_of_image(self, case):
        bm, w, _ = case
        img = apply_map(bm, w)
        assert strip_cyclic(img) == cyclic_reduce(img)

    @settings(max_examples=100, deadline=None)
    @given(endo_and_words())
    def test_homomorphism(self, case):
        bm, u, v = case
        assert apply_map(bm, u + v) == \
            reduce_word(apply_map(bm, u) + apply_map(bm, v))

    @settings(max_examples=60, deadline=None)
    @given(automorphisms())
    def test_inverse_composed_is_outer_identity(self, bm):
        comp = compose_maps(invert_map(bm), bm)
        assert outer_equal(comp, identity_map(len(bm)))[0] == EQUAL
