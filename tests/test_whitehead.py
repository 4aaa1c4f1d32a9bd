import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freesplit import cli, whitehead
from freesplit.automorphisms import MapTables, apply_map, identity_map
from freesplit.errors import InvalidInput
from freesplit.factors import carries, ffs_from_generators, whole_group
from freesplit.whitehead import (FILLS, PROPER, UNKNOWN, Move, _best_move,
                                 fills, free_factor_support, whitehead_graph,
                                 whitehead_minimize)
from freesplit.words import (BWD, FWD, canonical_cyclic, cyclic_reduce, invert,
                             reduce_images, sort_key, strip_cyclic)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

x, y, z = FWD[0], FWD[1], FWD[2]
X, Y, Z = BWD[0], BWD[1], BWD[2]


def apply_move(move, rank, cyclic_word):
    """The canonical class of a word's image under a move, read from the
    move's basis map: the reference for the moves the library applies."""
    return canonical_cyclic(apply_map(move.basis_map(rank), cyclic_word))


def replay_move_log(classes, rank, log):
    """The class set a move log takes ``classes`` to."""
    cur = {canonical_cyclic(w) for w in classes}
    for mv in log:
        cur = {apply_move(mv, rank, w) for w in cur}
    return tuple(sorted(cur, key=sort_key))


def _pair_counts(rank, classes):
    """Cyclic adjacency counts P[u][v] and occurrence counts, oriented
    letters indexed fwd slots then bwd slots."""
    col = {**{FWD[g]: g for g in range(rank)},
           **{BWD[g]: rank + g for g in range(rank)}}
    P = [[0] * (2 * rank) for _ in range(2 * rank)]
    occ = [0] * (2 * rank)
    for w in classes:
        for a, b in zip(w, w[1:] + w[:1]):
            occ[col[a]] += 1
            P[col[a]][col[b]] += 1
    return P, occ


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


def short_class_sets(rank, word_len, pair_len):
    """Every set of one canonical cyclic word of length <= word_len and
    every set of two of length <= pair_len."""
    letters = FWD[:rank] + BWD[:rank]

    def words(max_len):
        return sorted({canonical_cyclic("".join(t))
                       for n in range(1, max_len + 1)
                       for t in itertools.product(letters, repeat=n)} - {""},
                      key=sort_key)

    return ([[w] for w in words(word_len)]
            + [list(p) for p in itertools.combinations(words(pair_len), 2)])


def components(adj, verts):
    """Vertex sets of the connected pieces of the graph ``adj`` on
    ``verts``, by depth-first search."""
    left, found = set(verts), []
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            for v in adj[stack.pop()] & left:
                left.discard(v)
                comp.add(v)
                stack.append(v)
        found.append(comp)
    return found


def cut_vertices(adj, comp):
    """Reference check: the vertices of a component whose removal leaves
    more than one piece."""
    return {v for v in comp if len(components(adj, comp - {v})) > 1}


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


def _best_move_enumerated(rank, classes):
    """Reference move search: score every (left, right) bit assignment of
    every multiplier, keep the first row of least length change."""
    P, occ = map(np.array, _pair_counts(rank, classes))
    occ2 = occ[:rank] + occ[rank:]
    dim = 2 * rank
    best_delta = 0
    best = []
    for p in range(rank):
        others = [g for g in range(rank) if g != p]
        if not others:
            continue
        k = len(others)
        # row i sets bits l_j + 2 r_j = base-4 digit j of i
        digits = (np.arange(4**k)[:, None] // 4 ** np.arange(k)) % 4
        left, right = digits % 2, digits // 2
        lin = left @ occ2[others] + right @ occ2[others]
        for ch, m_col, mi_col in ((FWD[p], p, rank + p), (BWD[p], rank + p, p)):
            R = np.zeros((4**k, dim), dtype=np.int64)
            L = np.zeros((4**k, dim), dtype=np.int64)
            for j, g in enumerate(others):
                R[:, g], R[:, rank + g] = right[:, j], left[:, j]
                L[:, g], L[:, rank + g] = left[:, j], right[:, j]
            R[:, m_col] = 1
            L[:, mi_col] = 1
            delta = lin - 2 * ((R @ P) * L).sum(axis=1)
            i = int(np.argmin(delta))
            d = int(delta[i])
            if d >= 0 or d > best_delta:
                continue
            if d < best_delta:
                best_delta, best = d, []
            best.append(Move(ch, frozenset(g for j, g in enumerate(others)
                                           if left[i][j]),
                             frozenset(g for j, g in enumerate(others)
                                       if right[i][j])))
    return _break_ties(best_delta, best)


def _break_ties(best_delta, best):
    """Reference tie-break: the first move of least change."""
    return (best_delta, best[0]) if best else (0, None)


def _min_cut_matrix(cap):
    """Reference max flow: Edmonds–Karp scanning whole matrix rows;
    returns the flow and the nodes reachable from 0 in the residual."""
    nodes = range(len(cap))
    flow = 0
    while True:
        prev = [-1] * len(cap)
        prev[0] = 0
        queue = [0]
        for u in queue:
            for v in nodes:
                if cap[u][v] and prev[v] < 0:
                    prev[v] = u
                    queue.append(v)
        if prev[1] < 0:
            return flow, queue
        path = []
        v = 1
        while v:
            path.append((prev[v], v))
            v = prev[v]
        push = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= push
            cap[v][u] += push
        flow += push


def _best_move_two_cuts(rank, classes):
    """Reference move search with one network and one least cut per
    orientation of each multiplier; returns the least change below 0 and
    every move reaching it, in search order."""
    P, occ = _pair_counts(rank, classes)
    dim = 2 * rank
    pairs = [(u, v, 2 * P[u][v]) for u in range(dim) for v in range(dim)
             if P[u][v]]
    best_delta = 0
    best = []
    for p in range(rank):
        others = [g for g in range(rank) if g != p]
        if not others:
            continue
        size = 2 + 2 * len(others)
        ends = [None] * dim
        begins = [None] * dim
        lin0 = [0] * size
        for j, g in enumerate(others):
            left, right = 2 + 2 * j, 3 + 2 * j
            ends[g], ends[rank + g] = right, left
            begins[g], begins[rank + g] = left, right
            lin0[left] = lin0[right] = occ[g] + occ[rank + g]
        for ch, m_col, mi_col in ((FWD[p], p, rank + p), (BWD[p], rank + p, p)):
            ends[m_col], ends[mi_col] = 0, None
            begins[m_col], begins[mi_col] = None, 0
            lin = lin0[:]
            cap = [[0] * size for _ in range(size)]
            for u, v, w in pairs:
                a, b = ends[u], begins[v]
                if a is None or b is None:
                    continue
                lin[a] -= w
                if a != b:
                    cap[a][b] += w
            delta = lin[0]
            for i in range(2, size):
                if lin[i] > 0:
                    cap[i][1] += lin[i]
                elif lin[i] < 0:
                    delta += lin[i]
                    cap[0][i] -= lin[i]
            flow, side = _min_cut_matrix(cap)
            delta += flow
            if delta >= 0 or delta > best_delta:
                continue
            chosen = set(side)
            move = Move(ch, frozenset(g for j, g in enumerate(others)
                                      if 2 + 2 * j in chosen),
                        frozenset(g for j, g in enumerate(others)
                                  if 3 + 2 * j in chosen))
            if delta < best_delta:
                best_delta, best = delta, []
            best.append(move)
    return best_delta, best


def _minimize_canonical(classes, rank):
    """Reference minimizer: two-cut search, canonical form after every
    move."""
    cur = sorted({canonical_cyclic(w) for w in classes}, key=sort_key)
    log = []
    while True:
        delta, move = _break_ties(*_best_move_two_cuts(rank, cur))
        if move is None:
            return tuple(cur), sum(len(w) for w in cur), log
        cur = sorted({apply_move(move, rank, w) for w in cur}, key=sort_key)
        log.append(move)


def _best_move_dense(rank, classes):
    """Reference move search without the shortcuts: a dense network per
    multiplier over its left and right bits, every multiplier flowed; the
    first multiplier of least change, with its least cut."""
    P, occ = _pair_counts(rank, classes)
    dim = 2 * rank
    pairs = [(u, v, 2 * P[u][v]) for u in range(dim) for v in range(dim)
             if P[u][v]]
    best_delta, best = 0, None
    for p in range(rank):
        others = [g for g in range(rank) if g != p]
        if not others:
            continue
        size = 2 + 2 * len(others)
        ends = [None] * dim
        begins = [None] * dim
        lin = [0] * size
        for j, g in enumerate(others):
            left, right = 2 + 2 * j, 3 + 2 * j
            ends[g], ends[rank + g] = right, left
            begins[g], begins[rank + g] = left, right
            lin[left] = lin[right] = occ[g] + occ[rank + g]
        ends[p] = begins[rank + p] = 0
        cap = [[0] * size for _ in range(size)]
        for u, v, w in pairs:
            a, b = ends[u], begins[v]
            if a is None or b is None:
                continue
            lin[a] -= w
            if a != b:
                cap[a][b] += w
        delta = lin[0]
        for i in range(2, size):
            if lin[i] > 0:
                cap[i][1] += lin[i]
            elif lin[i] < 0:
                delta += lin[i]
                cap[0][i] -= lin[i]
        flow, low = _min_cut_matrix(cap)
        delta += flow
        if delta < best_delta:
            best_delta = delta
            best = Move(FWD[p], frozenset(g for j, g in enumerate(others)
                                          if 2 + 2 * j in low),
                        frozenset(g for j, g in enumerate(others)
                                  if 3 + 2 * j in low))
    return best_delta, best


def _images_by_letter_tables(move, rank, words):
    """Reference move images: the move's letter tables, reduced letter by
    letter, then cyclically."""
    t = MapTables(move.basis_map(rank))
    return [strip_cyclic(reduce_images(t.images, w, t.stop)) for w in words]


def _minimize_dense(classes, rank):
    """Reference minimizer without the shortcuts: :func:`_best_move_dense`,
    iterates kept as images under letter tables."""
    cur = sorted({canonical_cyclic(w) for w in classes}, key=sort_key)
    log = []
    while True:
        _, move = _best_move_dense(rank, cur)
        if move is None:
            break
        cur = _images_by_letter_tables(move, rank, cur)
        log.append(move)
    minimized = tuple(sorted(map(canonical_cyclic, cur), key=sort_key)) \
        if log else tuple(cur)
    return minimized, sum(len(w) for w in minimized), log


# Starting class sets of the Whitehead fills test of bdd_no_periodic(3) and
# bdd_no_periodic(4), on roses of rank 7 and 8.
BDD_RANK7 = ["aabbccedaabbccE", "aabbccgfaabbccG"]
BDD_RANK8 = ["aabbccddfeaabbccddF", "aabbccddhgaabbccddH"]


class TestBestMove:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(st.sampled_from(FWD[:rank] + BWD[:rank]),
                          min_size=1, max_size=12).map("".join),
                 min_size=1, max_size=4))))
    def test_min_cut_matches_enumeration(self, case):
        rank, words = case
        classes = sorted({c for c in map(canonical_cyclic, words) if c},
                         key=sort_key) or [x]
        assert _best_move(rank, classes) == \
            _best_move_enumerated(rank, classes)

    @pytest.mark.parametrize("rank, classes, every",
                             [(7, BDD_RANK7, 1), (8, BDD_RANK8, 6)])
    def test_bdd_no_periodic_trajectories(self, monkeypatch, rank, classes,
                                          every):
        # every step of the minimization at rank 7, every sixth at rank 8
        steps = []

        def recorded(r, cur):
            got = _best_move(r, cur)
            steps.append((list(cur), got))
            return got

        monkeypatch.setattr(whitehead, "_best_move", recorded)
        _, total, log = whitehead_minimize(classes, rank)
        assert total == 2 and len(log) == len(steps) - 1
        for cur, got in steps[::every] + steps[-1:]:
            assert got == _best_move_enumerated(rank, cur)

    def test_ties_go_to_first_multiplier(self):
        # x y: x, x^-1, y and y^-1 each reach length 1; the move is the
        # first, x with left bit on y, which takes x y to y
        move = Move(x, frozenset({1}), frozenset())
        assert _best_move(2, [x + y]) == (-1, move) == \
            _best_move_enumerated(2, [x + y])
        assert apply_move(move, 2, x + y) == y


class TestOneFlow:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(st.sampled_from(FWD[:rank] + BWD[:rank]),
                          min_size=1, max_size=16).map("".join),
                 min_size=1, max_size=4))))
    @example((2, [x + y]))
    @example((7, BDD_RANK7))
    @example((8, BDD_RANK8))
    def test_both_orientations_match_two_cuts(self, case):
        rank, words = case
        classes = sorted({c for c in map(canonical_cyclic, words) if c},
                         key=sort_key) or [x]
        delta, moves = _best_move_two_cuts(rank, classes)
        # each multiplier reaching the least change reaches it in both
        # orientations, and (m^-1, L, R) gives the classes of (m, ∁L, ∁R)
        fwd, bwd = moves[::2], moves[1::2]
        assert all(mv.multiplier in FWD for mv in fwd)
        assert [mv.multiplier for mv in bwd] == \
            [invert(mv.multiplier) for mv in fwd]
        for f, b in zip(fwd, bwd):
            others = frozenset(range(rank)) - {FWD.index(f.multiplier)}
            flipped = Move(f.multiplier, others - b.left, others - b.right)
            assert replay_move_log(classes, rank, [b]) == \
                replay_move_log(classes, rank, [flipped])
        assert _best_move(rank, classes) == _break_ties(delta, moves)

    @settings(max_examples=100, deadline=None)
    @given(class_sets())
    def test_minimize_matches_canonical_reference(self, case):
        rank, classes = case
        assert whitehead_minimize(classes, rank) == \
            _minimize_canonical(classes, rank)

    @pytest.mark.parametrize("rank, classes", [(7, BDD_RANK7),
                                               (8, BDD_RANK8)])
    def test_bdd_no_periodic_matches_canonical_reference(self, rank,
                                                         classes):
        assert whitehead_minimize(classes, rank) == \
            _minimize_canonical(classes, rank)

    def test_equal_orientations_keep_forward_multiplier(self):
        # x y: x with left bit on y and x^-1 with right bit on y both give
        # y, each with its own least cut; the move kept is the one for x
        fwd, bwd = Move(x, frozenset({1}), frozenset()), \
            Move(X, frozenset(), frozenset({1}))
        delta, moves = _best_move_two_cuts(2, [x + y])
        assert delta == -1 and moves[:2] == [fwd, bwd]
        assert apply_move(fwd, 2, x + y) == apply_move(bwd, 2, x + y) == y
        assert _best_move(2, [x + y]) == (-1, fwd)


def cyclically_reduced_words(rank, max_len):
    """Every cyclically reduced word of length 1..max_len, all rotations
    and orientations."""
    letters = FWD[:rank] + BWD[:rank]
    return [w for n in range(1, max_len + 1)
            for w in map("".join, itertools.product(letters, repeat=n))
            if cyclic_reduce(w) == w]


class TestStepShortcuts:
    """Each minimization step skips multipliers that cannot beat the least
    change, builds one Whitehead graph for all of its flows and maps
    classes by a translation and one replace; every move and minimized set
    is that of the dense reference, which flows every multiplier on its
    own network and maps by letter tables."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(st.sampled_from(FWD[:rank] + BWD[:rank]),
                          min_size=1, max_size=16).map("".join),
                 min_size=1, max_size=4))))
    @example((2, [x + y]))
    @example((7, BDD_RANK7))
    @example((8, BDD_RANK8))
    def test_matches_dense_reference(self, case):
        rank, words = case
        classes = sorted({c for c in map(canonical_cyclic, words) if c},
                         key=sort_key) or [x]
        assert _best_move(rank, classes) == _best_move_dense(rank, classes)
        assert whitehead_minimize(classes, rank) == \
            _minimize_dense(classes, rank)

    def test_class_images_match_letter_tables(self):
        # every Whitehead move on every cyclically reduced word of rank 2
        # up to length 7 and of rank 3 up to length 5
        cases = 0
        for rank, max_len in ((2, 7), (3, 5)):
            words = cyclically_reduced_words(rank, max_len)
            for mv in all_moves(rank):
                assert whitehead._class_images(mv, rank, words) == \
                    _images_by_letter_tables(mv, rank, words), mv
                cases += len(words)
        assert cases == 428_800

    def test_pruned_multipliers_cannot_beat_the_least_change(
            self, monkeypatch):
        # a flow from m to m^-1 runs exactly for the multipliers with
        # -deg(m) below the least change so far; each one skipped has
        # least change >= -deg(m) >= that change
        flowed = []
        min_cut = whitehead._min_cut

        def recorded(cap, adj, s, t):
            flowed.append(s)
            return min_cut(cap, adj, s, t)

        monkeypatch.setattr(whitehead, "_min_cut", recorded)
        at_bound = 0
        for rank, classes in ([(2, c) for c in short_class_sets(2, 6, 3)]
                              + [(3, c) for c in short_class_sets(3, 3, 3)]
                              + [(7, BDD_RANK7), (8, BDD_RANK8)]):
            flowed.clear()
            _best_move(rank, classes)
            cap, adj = whitehead._whitehead_network(rank, classes)
            best, expected = 0, []
            for p in range(rank):
                deg = sum(cap[p])
                flow, _ = min_cut([row[:] for row in cap], adj, p, rank + p)
                delta = flow - deg
                assert deg == sum(cap[rank + p]) and delta >= -deg
                if -deg < best:
                    expected.append(p)
                else:
                    assert delta >= best, (classes, p)
                    at_bound += -deg == best < 0
                best = min(best, delta)
            assert flowed == expected, classes
        # multipliers whose bound only ties the least change so far get no
        # flow, as the first multiplier to reach it keeps the move
        assert at_bound

    @pytest.mark.parametrize("rank, classes", [(7, BDD_RANK7),
                                               (8, BDD_RANK8), (2, [x + y])])
    def test_only_the_minimum_is_put_in_canonical_form(self, monkeypatch,
                                                       rank, classes):
        canonical_set = whitehead._canonical_set
        calls = []

        def counted(words):
            calls.append(len(words))
            return canonical_set(words)

        monkeypatch.setattr(whitehead, "_canonical_set", counted)
        _, _, log = whitehead_minimize(classes, rank)
        assert log and len(calls) == 1


class TestMinimize:
    @settings(max_examples=100, deadline=None)
    @given(class_sets())
    def test_never_increases_total_length(self, case):
        rank, classes = case
        m, total, log = whitehead_minimize(classes, rank)
        start = sum(len(w) for w in set(classes))
        assert total == sum(len(w) for w in m)
        assert total <= start
        # each move shortens the total, which is why no move budget is kept
        assert len(log) <= start - total
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


class TestMinimumGraph:
    """At a Whitehead minimum no move shortens the set.  So every component
    of the Whitehead graph is closed under inversion (were x in C without
    x^-1, the move (C, x) would shorten by deg x), and no component has a
    cut vertex (Whitehead's cut-vertex lemma).  :func:`fills` reads its
    verdict off both facts without checking them."""

    def test_reference_sees_non_minimal_sets(self):
        # x y: the pieces {x, y^-1} and {y, x^-1}; x x y: the path
        # y^-1 - x - x^-1 - y, cut at x and x^-1
        adj, used = whitehead_graph(2, [x + y])
        assert sorted(map(sorted, components(adj, used))) == [[0, 3], [1, 2]]
        adj, used = whitehead_graph(2, [x + x + y])
        assert cut_vertices(adj, used) == {0, 2}

    @pytest.mark.parametrize("rank, word_len, pair_len, count",
                             [(2, 8, 4, 693 + 300), (3, 3, 3, 35 + 595)])
    def test_components_closed_under_inversion_without_cut_vertex(
            self, rank, word_len, pair_len, count):
        sets = short_class_sets(rank, word_len, pair_len)
        assert len(sets) == count
        for classes in sets:
            minimized, _, _ = whitehead_minimize(classes, rank)
            adj, used = whitehead_graph(rank, minimized)
            for comp in components(adj, used):
                # u and its inverse sit rank slots apart
                assert {(u + rank) % (2 * rank) for u in comp} == comp, \
                    (classes, comp)
                assert not cut_vertices(adj, comp), (classes, comp)


class TestMonotone:
    """A set that fills has no carried superset, which lets the lamination
    depth loop skip the confirming minimization after a Fills."""

    @pytest.mark.parametrize("rank, word_len, pair_len, extra_len, n_fill",
                             [(2, 6, 3, 3, 98), (3, 3, 3, 2, 28)])
    def test_superset_of_filling_set_fills(self, rank, word_len, pair_len,
                                           extra_len, n_fill):
        filling = [s for s in short_class_sets(rank, word_len, pair_len)
                   if fills(s, rank).kind == FILLS]
        assert len(filling) == n_fill
        extra = [w for [w] in short_class_sets(rank, extra_len, 0)]
        for classes in filling:
            for w in extra:
                assert fills(classes + [w], rank).kind == FILLS, (classes, w)


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
        down = str.maketrans({FWD[g.slot_of[n]]: FWD[i]
                              for i, n in enumerate(("X", "Y", "Z"))}
                             | {BWD[g.slot_of[n]]: BWD[i]
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

    def test_witness_failing_carry_check_is_unknown(self, monkeypatch):
        # with the move log left untransported, the letter group {x} does
        # not carry x y, and the check against the input says so
        monkeypatch.setattr(whitehead, "inverse_log_map",
                            lambda log, rank: identity_map(rank))
        v = fills([x + y], 2)
        assert v.move_log
        assert (v.kind, v.reason) == (UNKNOWN, "witness failed carry check")
        assert v.witness is None

    @settings(max_examples=60, deadline=None)
    @given(class_sets(max_len=6).flatmap(
        lambda case: st.tuples(st.just(case), automorphisms(case[0]))))
    def test_kind_invariant_under_automorphisms(self, case_and_map):
        (rank, classes), bm = case_and_map
        moved = [canonical_cyclic(apply_map(bm, w)) for w in classes]
        kinds = {fills(classes, rank).kind, fills(moved, rank).kind}
        assert len(kinds - {UNKNOWN}) <= 1, (classes, bm)


class TestFillsGolden:
    """Reports of :func:`fills`, move logs included."""

    with open(os.path.join(GOLDEN, "whitehead_fills.json")) as fh:
        CASES = json.load(fh)

    @pytest.mark.parametrize("case", CASES, ids=[c["case"] for c in CASES])
    def test_report_matches_golden(self, case):
        assert fills(case["classes"], case["rank"]).to_json() == \
            case["report"]

    @pytest.mark.parametrize("case", [c for c in CASES if "fixture" in c],
                             ids=lambda c: c["case"])
    def test_cli_report_matches_golden(self, case, capsys):
        argv = ["fills", "--fixture", case["fixture"], "--classes",
                *case["tokens"], "--json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["results"] == \
            case["report"]


class TestWarmStart:
    """``fills(classes, start=log)`` against the cold start."""

    CASES = TestFillsGolden.CASES

    @staticmethod
    def starts(classes, rank):
        """Move logs to start from: every prefix of the set's own log, the
        logs of its leading subsets, and its own log undone, which
        lengthens the set and so sends the descent back to the input."""
        own = list(fills(classes, rank).move_log)
        logs = [own[:k] for k in range(1, len(own) + 1)]
        logs += [fills(classes[:k], rank).move_log
                 for k in range(1, len(classes))]
        logs.append([mv.inverse() for mv in reversed(own)])
        return [tuple(log) for log in logs if log]

    @pytest.mark.parametrize("case", CASES, ids=[c["case"] for c in CASES])
    def test_golden_sets_match_cold_start(self, case):
        rank, classes = case["rank"], case["classes"]
        cold = fills(classes, rank)
        for start in self.starts(classes, rank):
            warm = fills(classes, rank, start=start)
            assert (warm.kind, warm.witness) == (cold.kind, cold.witness)
            assert sum(map(len, warm.minimized)) == \
                sum(map(len, cold.minimized))
            assert replay_move_log(classes, rank, warm.move_log) == \
                warm.minimized

    def test_start_that_lengthens_is_dropped(self):
        # the move taking x y to x lengthens x x: the descent starts cold
        start = fills([x + y], 2).move_log
        assert start
        assert fills([x + y, x + x], 2, start=start) == fills([x + y, x + x], 2)

    def test_budget_reads_the_input(self, monkeypatch):
        # x y x y x y is over a budget of 5; its image under the start is
        # not, but the verdict is that of the input
        start = fills([x + y], 2).move_log
        monkeypatch.setattr(whitehead, "MAX_LETTERS", 5)
        v = fills([x + y + x + y + x + y], 2, start=start)
        assert (v.kind, v.reason) == (UNKNOWN, "class set exceeds letter budget")


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

    def test_agrees_with_fills_on_short_rank3_sets(self):
        """Every set of one or two canonical cyclic words of length <= 3."""
        for classes in short_class_sets(3, 3, 3):
            got = free_factor_support(classes, 3)
            kind = fills(classes, 3).kind
            # within the letter budget the only Unknown is a failed carry
            # check, which a correct move log never gives
            assert kind != UNKNOWN and got is not None, classes
            whole = kind == FILLS
            assert (got == whole_group(3)) == whole, classes
            if not whole:
                assert got.is_proper, classes
            assert all(carries(got, w) for w in classes), classes
