import itertools

import pytest
from hypothesis import given, settings, strategies as st

from freesplit.automorphisms import apply_map
from freesplit.errors import InvalidInput
from freesplit.factors import carries, ffs_from_generators, whole_group
from freesplit.whitehead import (FILLS, PROPER, UNKNOWN, Move, apply_move,
                                 fills, free_factor_support, replay_move_log,
                                 whitehead_minimize)
from freesplit.words import BWD, FWD, canonical_cyclic, invert

x, y, z = FWD[0], FWD[1], FWD[2]
X, Y, Z = BWD[0], BWD[1], BWD[2]


def all_moves(rank):
    for p in range(rank):
        others = [g for g in range(rank) if g != p]
        for ch in (FWD[p], BWD[p]):
            for bits in itertools.product(range(4), repeat=len(others)):
                left = frozenset(g for g, b in zip(others, bits) if b % 2)
                right = frozenset(g for g, b in zip(others, bits) if b // 2)
                yield Move(ch, left, right)


def orbit_min_length(word, rank, start_cap=None):
    """Independent oracle: BFS over the Whitehead orbit, never above the
    starting length, returns the minimal total length reached."""
    start = canonical_cyclic(word)
    best = len(start)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for mv in all_moves(rank):
                u = apply_move(mv, rank, w)
                if len(u) <= len(start) and u not in seen:
                    seen.add(u)
                    nxt.append(u)
                    best = min(best, len(u))
        frontier = nxt
    return best


@st.composite
def class_sets(draw, max_len=8):
    """A rank 2-3 and one to three nontrivial cyclic classes."""
    rank = draw(st.integers(2, 3))
    letters = FWD[:rank] + BWD[:rank]
    words = draw(st.lists(st.lists(st.sampled_from(letters), min_size=1,
                                   max_size=max_len).map("".join),
                          min_size=1, max_size=3))
    classes = [c for c in map(canonical_cyclic, words) if c]
    return rank, classes or [x]


@st.composite
def automorphisms(draw, rank):
    """A product of Whitehead moves, as a basis map."""
    moves = list(all_moves(rank))
    bm = tuple(FWD[:rank])
    for mv in draw(st.lists(st.sampled_from(moves), max_size=4)):
        bm = tuple(apply_map(mv.basis_map(rank), w) for w in bm)
    return bm


class TestMinimize:
    @settings(max_examples=100, deadline=None)
    @given(class_sets())
    def test_never_increases_total_length(self, case):
        rank, classes = case
        m, total, log = whitehead_minimize(classes, rank)
        assert total == sum(len(w) for w in m)
        assert total <= sum(len(w) for w in set(classes))
        assert replay_move_log(classes, rank, log) == m

    def test_single_letter(self):
        m, total, log = whitehead_minimize([x], 2)
        assert m == (x,) and total == 1 and log == []

    def test_commutator_is_minimal(self):
        m, total, log = whitehead_minimize([x + y + X + Y], 2)
        assert total == 4
        assert total == orbit_min_length(x + y + X + Y, 2)

    def test_two_class_set(self):
        m, total, log = whitehead_minimize([x + y, x + Y], 2)
        assert total == 4

    def test_primitive_reduces_to_letter(self):
        m, total, log = whitehead_minimize([x + x + y], 2)
        assert total == 1
        assert total == orbit_min_length(x + x + y, 2)

    def test_replay(self):
        classes = [x + x + y + Y + y + z]
        m, total, log = whitehead_minimize(classes, 3)
        assert replay_move_log(classes, 3, log) == m

    def test_oracle_agreement_on_short_rank2_words(self):
        letters = [x, y, X, Y]
        seen = set()
        for n in range(1, 5):
            for tup in itertools.product(letters, repeat=n):
                w = canonical_cyclic("".join(tup))
                if not w or w in seen:
                    continue
                seen.add(w)
                _, total, _ = whitehead_minimize([w], 2)
                assert total == orbit_min_length(w, 2), w

    def test_trivial_rejected(self):
        with pytest.raises(InvalidInput):
            whitehead_minimize([""], 2)


class TestFills:
    def test_letter_is_proper(self):
        v = fills([x], 2)
        assert v.kind == PROPER
        assert v.witness == ffs_from_generators(2, [x])

    def test_commutator_fills(self):
        v = fills([x + y + X + Y], 2)
        assert v.kind == FILLS

    def test_squares_fill_rank3(self):
        v = fills([x + x + y + y + z + z], 3)
        assert v.kind == FILLS

    def test_fixture_base_word_fills_its_rose(self, filling_spec):
        # load-time assertion made this true; re-run through the public op
        mg, g = filling_spec.mg, filling_spec.mg.graph
        sig = g.parse_path(filling_spec.params["sigma"])
        down = str.maketrans({g.fwd_char(n): FWD[i]
                              for i, n in enumerate(("X", "Y", "Z"))}
                             | {invert(g.fwd_char(n)): BWD[i]
                                for i, n in enumerate(("X", "Y", "Z"))})
        assert fills([sig.translate(down)], 3).kind == FILLS

    def test_witness_carries_inputs(self):
        classes = [x + y, y + y]
        v = fills(classes, 3)
        assert v.kind == PROPER
        for c in classes:
            assert carries(v.witness, canonical_cyclic(c))

    def test_determinism(self):
        for _ in range(3):
            a = fills([x + y + X + Y, z + z], 3)
            b = fills([x + y + X + Y, z + z], 3)
            assert a.kind == b.kind
            assert (a.witness is None) == (b.witness is None)
            if a.witness is not None:
                assert a.witness == b.witness

    @settings(max_examples=60, deadline=None)
    @given(class_sets(max_len=6).flatmap(
        lambda case: st.tuples(st.just(case), automorphisms(case[0]))))
    def test_kind_invariant_under_automorphisms(self, case_and_map):
        (rank, classes), bm = case_and_map
        moved = [canonical_cyclic(apply_map(bm, w)) for w in classes]
        kinds = {fills(classes, rank).kind, fills(moved, rank).kind}
        assert len(kinds - {UNKNOWN}) <= 1, (classes, bm)


class TestSupport:
    def test_single_letter(self):
        assert free_factor_support([x], 2) == ffs_from_generators(2, [x])

    def test_two_letters(self):
        got = free_factor_support([x, y], 2)
        assert got == ffs_from_generators(2, [x], [y])

    def test_commutator(self):
        assert free_factor_support([x + y + X + Y], 2) == whole_group(2)

    def test_conjugate_letter(self):
        got = free_factor_support([canonical_cyclic(z + x + Z)], 3)
        assert got == ffs_from_generators(3, [x])

    def test_mixed(self):
        got = free_factor_support([x + y, z], 3)
        assert got == ffs_from_generators(3, [x + y], [z])
