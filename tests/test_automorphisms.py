import pytest
from hypothesis import given, settings, strategies as st

import freesplit.automorphisms as automorphisms_mod
from freesplit.automorphisms import (DISTINCT, EQUAL, _BLOCK, MapTables,
                                     _apply_move, _elementary_moves, _gain,
                                     _nielsen_reduce, abelianization,
                                     apply_map, compose_maps, identity_map,
                                     invert_map, is_signed_basis, outer_equal)
from freesplit.errors import BudgetExhausted, InvalidInput
from freesplit.words import (BWD, FWD, cyclic_reduce, image_table, invert,
                             reduce_word, strip_cyclic)

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

    def test_blocks_repeat(self):
        bm = (x + Y, y + x + Y)
        w = (x + y + y) * (3 * _BLOCK)
        t = MapTables(bm)
        assert apply_map(t, w) == letter_image(bm, w)
        assert 0 < memo_letters(t) < len(w)
        assert len([k for k in t.images if len(k) > 1]) <= 4


# ---------------------------------------------------------------------------
# Nielsen move scoring, against the reference that builds every word


def _apply_move_reference(tup, move):
    i, j, side, sign = move
    other = tup[j] if sign == 1 else invert(tup[j])
    return reduce_word(tup[i] + other if side == "R" else other + tup[i])


def _escape_plateau_reference(tup, n, budget):
    seen = {tuple(tup)}
    frontier = [([], list(tup))]
    for _ in range(2):
        nxt = []
        for prefix, state in frontier:
            for move in _elementary_moves(n):
                new_word = _apply_move_reference(state, move)
                if len(new_word) != len(state[move[0]]):
                    continue
                cand = list(state)
                cand[move[0]] = new_word
                key = tuple(cand)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > budget:
                    return None
                seq = prefix + [move]
                for move2 in _elementary_moves(n):
                    reduced = _apply_move_reference(cand, move2)
                    if len(reduced) < len(cand[move2[0]]):
                        cand[move2[0]] = reduced
                        return seq + [move2], cand
                nxt.append((seq, cand))
        frontier = nxt
    return None


def _nielsen_reduce_reference(tup, budget):
    n = len(tup)
    moves = []
    steps = 0
    while not is_signed_basis(tuple(tup)):
        if steps > budget:
            raise BudgetExhausted("Nielsen reduction exceeded budget")
        steps += 1
        best = None
        for move in _elementary_moves(n):
            new = _apply_move_reference(tup, move)
            gain = len(tup[move[0]]) - len(new)
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, move, new)
        if best is not None:
            _, move, new = best
            tup[move[0]] = new
            moves.append(move)
            continue
        plateau = _escape_plateau_reference(tup, n, budget)
        if plateau is None:
            raise BudgetExhausted("Nielsen reduction stalled")
        moves.extend(plateau[0])
        tup = plateau[1]
    return moves, tuple(tup)


@st.composite
def reduced_tuple(draw):
    rank = draw(st.integers(2, 4))
    return [reduce_word(draw(words_strategy(rank, 12))) for _ in range(rank)]


class TestNielsenScoring:
    @settings(max_examples=200, deadline=None)
    @given(reduced_tuple())
    def test_gain_is_length_drop(self, tup):
        for move in _elementary_moves(len(tup)):
            ref = _apply_move_reference(tup, move)
            assert _apply_move(tup, move) == ref
            assert _gain(tup, move) == len(tup[move[0]]) - len(ref)

    @settings(max_examples=150, deadline=None)
    @given(automorphisms(2, 4, 12))
    def test_same_moves_as_reference(self, bm):
        assert _nielsen_reduce(list(bm), 4000) == \
            _nielsen_reduce_reference(list(bm), 4000)

    @pytest.mark.parametrize("bm", [
        (X + Z, y + Z, y + x + z),
        (y + y + z + X + Y, y + y + z, X + z),
        (z + X, x + y + y + z + y + x + y, z + y),
    ])
    def test_plateau_moves(self, bm, monkeypatch):
        # no single move shortens these tuples at some step
        plateaus = []
        escape = automorphisms_mod._escape_plateau

        def counted(*args):
            plateaus.append(args)
            return escape(*args)

        monkeypatch.setattr(automorphisms_mod, "_escape_plateau", counted)
        assert _nielsen_reduce(list(bm), 4000) == \
            _nielsen_reduce_reference(list(bm), 4000)
        assert plateaus
        assert compose_maps(invert_map(bm), bm) == identity_map(3)
