import pytest
from hypothesis import given, settings, strategies as st

import freesplit.automorphisms as automorphisms_mod
from freesplit.automorphisms import (DISTINCT, EQUAL, _BLOCK, _GRAM, MapTables,
                                     abelianization, apply_map, compose_maps,
                                     identity_map, invert_map, outer_equal)
from freesplit.errors import InvalidInput
from freesplit.whitehead import Move
from freesplit.words import (BWD, FWD, cyclic_reduce, image_table, invert,
                             primitive_root, reduce_word, strip_cyclic)

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


def _generators(rank):
    return [(BWD[0],)] if rank == 1 else _nielsen_generators(rank)


@st.composite
def automorphisms(draw, min_rank=2, max_rank=3, max_moves=6):
    rank = draw(st.integers(min_rank, max_rank))
    bm = identity_map(rank)
    for g in draw(st.lists(st.sampled_from(_generators(rank)),
                           max_size=max_moves)):
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


# ---------------------------------------------------------------------------
# Block-wise map application


def letter_image(bm, w):
    """Reference: free reduction of the concatenated letter images."""
    table = image_table(bm)
    return reduce_word("".join(table[ch] for ch in w))


def long_word(rank, n):
    """A word of exactly n letters, random or periodic (so that its blocks
    repeat), not necessarily reduced."""
    letters = FWD[:rank] + BWD[:rank]
    random_word = st.lists(st.sampled_from(letters), min_size=n,
                           max_size=n).map("".join)
    periodic = st.lists(st.sampled_from(letters), min_size=1,
                        max_size=7).map(lambda u: ("".join(u) * n)[:n])
    return st.one_of(random_word, periodic)


@st.composite
def endo_and_long_word(draw):
    """A rank 1-4 basis map (images unreduced, maybe empty) and a word of
    about one, two or three block lengths."""
    rank = draw(st.integers(1, 4))
    bm = tuple(draw(words_strategy(rank, 5)) for _ in range(rank))
    n = draw(st.sampled_from([k * _BLOCK + d for k in (1, 2, 3)
                              for d in (-1, 0, 1)]))
    return bm, draw(long_word(rank, n))


@st.composite
def automorphism_and_long_word(draw):
    """A rank 1-4 automorphism, its inverse and a reduced word of several
    blocks."""
    bm = draw(automorphisms(1, 4, 8))
    n = draw(st.integers(2 * _BLOCK, 6 * _BLOCK))
    return bm, invert_map(bm), reduce_word(draw(long_word(len(bm), n)))


def memo_letters(t):
    return sum(len(k) + len(v) for k, v in t.images.items() if len(k) > 1)


class TestBlockMemo:
    @settings(max_examples=200, deadline=None)
    @given(endo_and_long_word())
    def test_matches_letter_images(self, case):
        bm, w = case
        expected = letter_image(bm, w)
        t = MapTables(bm)
        assert apply_map(bm, w) == expected
        assert apply_map(t, w) == expected
        assert apply_map(t, w) == expected  # now from the memo

    @settings(max_examples=100, deadline=None)
    @given(endo_and_long_word())
    def test_memo_holds_letter_images(self, case):
        # blocks glued from gram images, and the grams themselves, hold
        # the letter-by-letter images of their keys
        bm, w = case
        t = MapTables(bm)
        apply_map(t, w)
        memo = {k: v for k, v in t.images.items() if len(k) > 1}
        assert {len(k) for k in memo} <= {_GRAM} | set(range(_BLOCK, 2 * _BLOCK))
        if len(w) >= 2 * _BLOCK:
            assert any(len(k) == _GRAM for k in memo)
        for k, v in memo.items():
            assert v == letter_image(bm, k)
            assert t.stop[k] == (invert(v[0]) if v else None)

    @settings(max_examples=100, deadline=None)
    @given(endo_and_long_word())
    def test_unreduced_length_counts_letter_images(self, case):
        bm, w = case
        t = MapTables(bm)
        expected = len("".join(image_table(t)[ch] for ch in w))
        for _ in range(2):  # the second time with the word's blocks stored
            assert t.unreduced_length(w) == expected
            apply_map(t, w)

    @settings(max_examples=100, deadline=None)
    @given(automorphism_and_long_word())
    def test_inverse_round_trip(self, case):
        bm, inv, w = case
        bm, inv = MapTables(bm), MapTables(inv)
        assert apply_map(bm, apply_map(inv, w)) == w
        assert apply_map(inv, apply_map(bm, w)) == w

    @settings(max_examples=100, deadline=None)
    @given(endo_and_long_word(), automorphism_and_long_word())
    def test_tiny_memo_cap(self, case, auto):
        cap = 3 * _BLOCK
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automorphisms_mod, "_MEMO_LETTERS", cap)
            bm, w = case
            f, inv, u = auto
            bm, f, inv = MapTables(bm), MapTables(f), MapTables(inv)
            for _ in range(2):
                assert apply_map(bm, w) == letter_image(bm, w)
                assert apply_map(f, apply_map(inv, u)) == u
                for m in (bm, f, inv):
                    assert memo_letters(m) <= cap

    def test_no_memo_maps_letter_by_letter(self, monkeypatch):
        # a map built without a memo never cuts a long word into blocks
        def refuse(self, blocks):
            raise AssertionError("a map without a memo stored blocks")

        monkeypatch.setattr(MapTables, "store", refuse)
        bm = (x + Y, y + x + Y)
        w = (x + y + x + Y) * 100
        assert apply_map(MapTables(bm, memo=False), w) == letter_image(bm, w)

    def test_blocks_repeat(self):
        bm = (x + Y, y + x + Y)
        w = (x + y + y) * (3 * _BLOCK)
        t = MapTables(bm)
        assert apply_map(t, w) == letter_image(bm, w)
        assert 0 < memo_letters(t) < len(w)
        # a word of period 3 has 3 blocks and 3 grams, each stored once
        assert len([k for k in t.images if len(k) >= _BLOCK]) <= 4
        assert len([k for k in t.images if len(k) == _GRAM]) == 3


# ---------------------------------------------------------------------------
# Inversion by the labelled fold and exact outer equality


@st.composite
def whitehead_products(draw, max_moves=8):
    """A rank 1-5 product of Whitehead automorphisms: multiplier moves and
    letter permutations with inversions, which generate Aut(F_n)."""
    rank = draw(st.integers(1, 5))
    letters = FWD[:rank] + BWD[:rank]
    bm = identity_map(rank)
    for _ in range(draw(st.integers(0, max_moves))):
        if draw(st.booleans()):
            m = draw(st.sampled_from(letters))
            subsets = st.frozensets(st.integers(0, rank - 1))
            step = Move(m, draw(subsets), draw(subsets)).basis_map(rank)
        else:
            perm = draw(st.permutations(range(rank)))
            step = tuple(BWD[p] if draw(st.booleans()) else FWD[p]
                         for p in perm)
        bm = compose_maps(step, bm)
    return bm


def _det(a) -> int:
    """Determinant of a square integer matrix, by cofactor expansion."""
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:]
                                            for row in a[1:]])
               for j in range(len(a)))


def _outer_equal_reference(f, g, budget=10**7):
    """outer_equal as a bounded conjugator search: u = p x rotation x
    gamma^m x q^-1 for every rotation matching the anchor letter's
    cyclic image, with |m| bounded by the image lengths."""
    f = tuple(reduce_word(w) for w in f)
    g = tuple(reduce_word(w) for w in g)
    if f == g:
        return EQUAL, ""
    if any((a == "") != (b == "") for a, b in zip(f, g)):
        return DISTINCT, None
    if abelianization(f) != abelianization(g):
        return DISTINCT, None
    anchor = next(i for i, w in enumerate(g) if w)
    alpha, beta = strip_cyclic(f[anchor]), strip_cyclic(g[anchor])
    p = f[anchor][:(len(f[anchor]) - len(alpha)) // 2]
    q = g[anchor][:(len(g[anchor]) - len(beta)) // 2]
    if len(alpha) != len(beta):
        return DISTINCT, None
    gamma = primitive_root(beta)
    doubled = beta + beta
    rotations = [k for k in range(len(beta))
                 if doubled[k:k + len(beta)] == alpha]
    if not rotations:
        return DISTINCT, None
    m_bound = 2 * (max(map(len, f)) + max(map(len, g))) \
        // max(1, len(gamma)) + 4
    if len(rotations) * (2 * m_bound + 1) > budget:
        return "Unknown", None
    for k in rotations:
        base = reduce_word(p + invert(beta[:k]))
        for m in range(-m_bound, m_bound + 1):
            power = gamma * m if m >= 0 else invert(gamma) * (-m)
            u = reduce_word(base + power + invert(q))
            ui = invert(u)
            if all(reduce_word(u + g[i] + ui) == f[i] for i in range(len(f))):
                return EQUAL, u
    return DISTINCT, None


@st.composite
def conjugate_pairs(draw):
    """(f, g, u): g a Whitehead product, u a reduced word and f either
    c_u after g or that map with one image perturbed by a letter."""
    g = draw(whitehead_products(max_moves=5))
    rank = len(g)
    u = reduce_word(draw(words_strategy(rank, 6)))
    f = [reduce_word(u + w + invert(u)) for w in g]
    if draw(st.booleans()):
        i = draw(st.integers(0, rank - 1))
        ch = draw(st.sampled_from(FWD[:rank] + BWD[:rank]))
        f[i] = reduce_word(f[i] + ch if draw(st.booleans()) else ch + f[i])
    return tuple(f), g, u


class TestFoldInverse:
    @settings(max_examples=300, deadline=None)
    @given(whitehead_products())
    def test_two_sided_inverse(self, bm):
        inv = invert_map(bm)
        assert compose_maps(bm, inv) == identity_map(len(bm))
        assert compose_maps(inv, bm) == identity_map(len(bm))

    @pytest.mark.parametrize("bm", [
        (X + Z, y + Z, y + x + z),
        (y + y + z + X + Y, y + y + z, X + z),
        (z + X, x + y + y + z + y + x + y, z + y),
    ])
    def test_nielsen_plateau_tuples(self, bm):
        # at some step no single Nielsen move shortens these tuples
        assert compose_maps(invert_map(bm), bm) == identity_map(3)

    @pytest.mark.parametrize("bm", [
        (x + y + X, y), (x, x + x), (x + x, y), ("", y), (x, y, x + y),
        (x, y, z + z), (x + y + X + Y, y),
    ])
    def test_rejects_named_non_bases(self, bm):
        with pytest.raises(InvalidInput):
            invert_map(bm)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda rank: st.lists(words_strategy(rank, 6), min_size=rank,
                              max_size=rank).map(tuple)))
    def test_rejects_determinant_other_than_unit(self, bm):
        try:
            inv = invert_map(bm)
        except InvalidInput:
            return
        assert abs(_det(abelianization(bm))) == 1
        assert compose_maps(inv, bm) == identity_map(len(bm))


class TestExactOuterEqual:
    def test_conjugator_with_a_power_of_x1(self):
        # u = y x^2 meets the leading run of x1 letters with m = 2
        u = y + x + x
        f = tuple(reduce_word(u + w + invert(u)) for w in identity_map(3))
        assert outer_equal(f, identity_map(3)) == (EQUAL, u)
        assert outer_equal(identity_map(3), f) == (EQUAL, invert(u))

    def test_non_automorphism_second_map_rejected(self):
        with pytest.raises(InvalidInput):
            outer_equal(identity_map(2), (x, x + x))

    @settings(max_examples=400, deadline=None)
    @given(conjugate_pairs())
    def test_matches_bounded_search(self, case):
        f, g, u = case
        got = outer_equal(f, g)
        assert got == _outer_equal_reference(f, g)
        if len(g) > 1 and f == tuple(reduce_word(u + w + invert(u))
                                     for w in g):
            assert got == (EQUAL, u)
