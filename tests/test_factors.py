import pytest
from hypothesis import given, settings, strategies as st

import freesplit.factors as factors_mod
from freesplit.automorphisms import apply_map, invert_map
from freesplit.errors import InvalidInput
from freesplit.factors import (CoreGraph, _fold, _wedge, carries,
                               co_edge_number, enumerate_classes, ffs_carried,
                               ffs_from_generators, fold, natural_arcs,
                               partition, subgroup_carried, tree_loops,
                               whole_group)
from freesplit.graphs import Graph
from freesplit.words import (BWD, FWD, canonical_cyclic, invert, is_fwd,
                             reduce_word, slot)

x, y, z = FWD[0], FWD[1], FWD[2]
X, Y, Z = BWD[0], BWD[1], BWD[2]


class TestFold:
    def test_single_loop(self):
        core = fold(2, [x])
        assert (core.n_vertices, core.n_edges, core.graph_rank) == (1, 1, 1)

    def test_hand_folded_rank_two(self):
        # <x^2, x y x^-1>: two vertices, an x-cycle of length 2 and a y-loop
        core = fold(2, [x + x, x + y + X])
        assert (core.n_vertices, core.n_edges, core.graph_rank) == (2, 3, 2)
        assert core.carries_class(x + x)
        assert core.carries_class(y)  # conjugate of y lies in the subgroup
        assert not core.carries_class(x)

    def test_whole_rose(self):
        core = fold(2, [x, y])
        assert (core.n_vertices, core.n_edges, core.graph_rank) == (1, 2, 2)

    def test_empty_generator_rejected(self):
        with pytest.raises(InvalidInput):
            fold(2, [x, ""])

    def test_invert_map_detects_generation(self):
        # the images fold to the rose exactly when they generate
        assert invert_map((x + y, y)) == (x + Y, y)
        for bm in ((x + y + X, y), (x, x + x)):
            with pytest.raises(InvalidInput):
                invert_map(bm)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(st.sampled_from(FWD[:rank] + BWD[:rank]),
                          min_size=1, max_size=8).map("".join),
                 min_size=1, max_size=3))))
    def test_basis_words_fold_back(self, case):
        rank, gens = case
        gens = [w for w in map(reduce_word, gens) if w]
        if not gens:
            return
        core = fold(rank, gens)
        again = fold(rank, core.basis_words())
        assert again.canonical_key == core.canonical_key
        assert len(core.basis_words()) == core.graph_rank

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.tuples(st.integers(0, rank - 1), st.integers(0, 7),
                           st.integers(0, 7)), max_size=14))))
    def test_worklist_fold_matches_rescan(self, case):
        rank, edges = case
        assert set(_fold(edges, [""] * len(edges))) == _fold_rescan(rank, edges)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda rank: st.lists(
        st.lists(st.sampled_from(FWD[:rank] + BWD[:rank]),
                 min_size=1, max_size=10).map(reduce_word),
        min_size=1, max_size=4).map(lambda gens: (rank, gens))))
    def test_worklist_fold_matches_rescan_on_wedges(self, case):
        rank, gens = case
        gens = [w for w in gens if w]
        if not gens:
            return
        raw = _wedge(gens + [invert(w) + w[:3] for w in gens])
        assert set(_fold(raw, [""] * len(raw))) == _fold_rescan(rank, raw)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(st.sampled_from(FWD[:rank] + BWD[:rank]),
                          min_size=1, max_size=8).map(reduce_word),
                 min_size=1, max_size=3))))
    def test_labelled_fold_of_subgroup(self, case):
        # generator i labels its first edge x_i, as invert_map does; every
        # petal at the base then reads a word in the generators for its
        # letter, and n generators fold to the rose exactly when they
        # form a basis
        rank, gens = case
        gens = [w for w in gens if w]
        if not gens:
            return
        words = []
        for i, w in enumerate(gens):
            words += [FWD[i] if is_fwd(w[0]) else BWD[i]] + [""] * (len(w) - 1)
        folded = _fold(_wedge(gens), words)
        for (lab, a, b), d in folded.items():
            if a == b == 0:
                assert apply_map(tuple(gens), d) == FWD[lab]
        if len(gens) == rank:
            core = fold(rank, gens)
            rose = (core.n_vertices, core.graph_rank) == (1, rank)
            try:
                invert_map(tuple(gens))
            except InvalidInput:
                assert not rose
            else:
                assert rose

    def test_core_graph_numbering_ignores_edge_order(self):
        raw = _wedge([x + x + y, y + X + y, x + y + X])
        edges = sorted(_fold(raw, [""] * len(raw)))
        graphs = [CoreGraph(2, order) for order in
                  (edges, edges[::-1], edges[1:] + edges[:1], set(edges))]
        assert len({g.edges for g in graphs}) == 1
        assert len({tuple(g.basis_words()) for g in graphs}) == 1


def _fold_rescan(rank, raw_edges):
    """Reference Stallings fold: rescan every edge in sorted order after
    each identification, merging into the least vertex."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    edges = set(raw_edges)
    changed = True
    while changed:
        changed = False
        seen: dict[tuple[int, int, bool], int] = {}
        for lab, a, b in sorted(edges):
            ra, rb = find(a), find(b)
            key_out = (ra, lab, True)
            key_in = (rb, lab, False)
            if key_out in seen and seen[key_out] != rb:
                union(seen[key_out], rb)
                changed = True
                break
            if key_in in seen and seen[key_in] != ra:
                union(seen[key_in], ra)
                changed = True
                break
            seen[key_out] = rb
            seen[key_in] = ra
        edges = {(lab, find(a), find(b)) for lab, a, b in edges}
    return edges


class TestPartition:
    def test_classes_sorted_by_least_member(self):
        got = partition([5, 3, 1, 4, 2], [(5, 1), (4,), (3, 2)])
        assert got == [frozenset({1, 5}), frozenset({2, 3}), frozenset({4})]

    def test_links_merge_transitively(self):
        got = partition(range(6), [[0, 2, 4], [], [4, 5], [5, 5]])
        assert got == [frozenset({0, 2, 4, 5}), frozenset({1}),
                       frozenset({3})]

    def test_empty(self):
        assert partition([], []) == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 11), max_size=3), max_size=8))
    def test_is_the_generated_equivalence(self, links):
        items = range(12)
        got = partition(items, links)
        assert sorted(x for c in got for x in c) == list(items)
        assert [min(c) for c in got] == sorted(min(c) for c in got)
        assert partition(items, [link[::-1] for link in reversed(links)]) == got
        cls = {x: c for c in got for x in c}
        for link in links:
            assert len({cls[x] for x in link}) <= 1
        # no coarser than needed: each class is connected through the links
        for c in got:
            reach = {min(c)}
            for _ in c:
                reach |= {x for link in links if reach & set(link)
                          for x in link}
            assert reach == c


class TestTreeLoops:
    def test_theta(self):
        # three edges from vertex 0 to vertex 1
        edges = [(0, 0, 1), (1, 0, 1), (2, 0, 1)]
        paths, loops = tree_loops(edges, 0)
        assert paths == {0: "", 1: x}
        assert loops == {(1, 0, 1): y + X, (2, 0, 1): z + X}

    def test_first_in_first_out(self):
        # a square 0-1-2-3-0 rooted at 0: vertices 1 and 3 are queued in
        # that order, so 2 hangs off 1; a stack would hang it off 3
        edges = [(0, 0, 1), (1, 1, 2), (2, 3, 2), (3, 3, 0)]
        paths, loops = tree_loops(edges, 0)
        assert paths == {0: "", 1: x, 3: BWD[3], 2: x + y}
        assert loops == {(2, 3, 2): reduce_word(BWD[3] + z + Y + X)}

    def test_unreached_edges_ignored(self):
        paths, loops = tree_loops([(0, 0, 0), (1, 5, 5)], 0)
        assert paths == {0: ""} and loops == {(0, 0, 0): x}


def _lift(edges, word, start):
    """The edges a word crosses from ``start`` in a graph whose edges at a
    vertex carry distinct letters, and the vertex it ends at."""
    step = {}
    for e in edges:
        lab, a, b = e
        step[a, FWD[lab]] = (e, b)
        step[b, BWD[lab]] = (e, a)
    crossed, v = [], start
    for ch in word:
        e, v = step[v, ch]
        crossed.append(e)
    return crossed, v


def _natural_classes_reference(edges):
    """Natural edges as first defined: the classes of edges linked through
    the vertices of valence 2, a loop counting twice."""
    at = {}
    for e in edges:
        at.setdefault(e[1], []).append(e)
        at.setdefault(e[2], []).append(e)
    return partition(edges, (es for es in at.values() if len(es) == 2))


@st.composite
def subdivided_graphs(draw):
    """A theta graph (k arcs from u to v) or a rose (k loops at u), each
    arc subdivided into 1-3 edges of drawn orientations, the edges named
    in a drawn order."""
    k = draw(st.integers(1, 4))
    theta = draw(st.booleans())
    vertices, ends = ["u", "v"] if theta else ["u"], []
    for i in range(k):
        inner = [f"w{i}{j}" for j in range(draw(st.integers(0, 2)))]
        vertices += inner
        path = ["u", *inner, "v" if theta else "u"]
        for a, b in zip(path, path[1:]):
            ends.append((b, a) if draw(st.booleans()) else (a, b))
    names = draw(st.permutations(range(len(ends))))
    return Graph(vertices, [(f"e{names[i]:02d}", a, b)
                            for i, (a, b) in enumerate(ends)])


def _core_components():
    return st.integers(2, 4).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(st.sampled_from(FWD[:rank] + BWD[:rank]),
                          min_size=1, max_size=6).map("".join),
                 min_size=1, max_size=3)))


class TestNaturalArcs:
    def check_arcs(self, edges):
        arcs = natural_arcs(edges)
        classes = []
        for word, start, end in arcs:
            crossed, stop = _lift(edges, word, start)  # a path ...
            assert stop == end  # ... from its start to its end
            assert len(set(crossed)) == len(crossed)
            classes.append(frozenset(crossed))
        assert sorted(e for c in classes for e in c) == sorted(edges)
        reference = _natural_classes_reference(edges)
        assert sorted(classes, key=min) == reference
        return reference

    @settings(max_examples=100, deadline=None)
    @given(_core_components())
    def test_core_graphs(self, case):
        rank, gens = case
        gens = [w for w in map(reduce_word, gens) if w]
        if not gens:
            return
        for comp in ffs_from_generators(rank, gens).components:
            self.check_arcs(comp.edges)

    @settings(max_examples=100, deadline=None)
    @given(subdivided_graphs())
    def test_subdivided_graphs(self, g):
        edges = g.edges_of(range(g.n_edges))
        reference = self.check_arcs(edges)
        assert g.natural_classes == tuple(
            frozenset(s for s, _, _ in cls) for cls in reference)
        for cls, path in g.natural_paths.items():
            assert g.path_valid(path) and set(map(slot, path)) == cls

    def test_circle_has_one_closed_arc_at_its_least_vertex(self):
        core = fold(2, [x + y])
        assert core.n_vertices == 2
        assert natural_arcs(core.edges) == [(x + y, 0, 0)]


class TestCarries:
    def test_powers(self):
        ffs = ffs_from_generators(2, [x])
        assert carries(ffs, canonical_cyclic(x + x + x))
        assert not carries(ffs, canonical_cyclic(x + y))

    def test_rotation_and_conjugation_invariance(self):
        ffs = ffs_from_generators(3, [x, y])
        w = x + y + x
        for rot in range(3):
            d = (w + w)[rot : rot + 3]
            assert carries(ffs, canonical_cyclic(d))
        assert carries(ffs, canonical_cyclic(z + w + Z))

    def test_fixture_base_word(self, filling_spec):
        mg, g = filling_spec.mg, filling_spec.mg.graph
        ffs = ffs_from_generators(5, *[[mg.path_to_rose(g.parse_path(n))]
                                       for n in ("X", "Y", "Z")])
        sigma = mg.path_to_rose(g.parse_path(filling_spec.params["sigma"]))
        # single-component realization of the fixed rose carries the word
        big = ffs_from_generators(
            5, [mg.path_to_rose(g.parse_path(n)) for n in ("X", "Y", "Z")])
        assert carries(big, canonical_cyclic(sigma))
        assert not carries(ffs, canonical_cyclic(sigma))


class TestCoEdge:
    def test_rank3_in_rank5(self):
        assert co_edge_number(ffs_from_generators(5, [x, y, z])) == 2

    def test_three_lines_in_rank3(self):
        assert co_edge_number(ffs_from_generators(3, [x], [y], [z])) == 2

    def test_line_in_rank2(self):
        assert co_edge_number(ffs_from_generators(2, [x])) == 1

    def test_improper_rejected(self):
        with pytest.raises(InvalidInput):
            co_edge_number(whole_group(2))

    def test_monotone_under_carrying(self):
        # nested systems have non-increasing co-edge numbers
        pairs = [
            (ffs_from_generators(3, [x]), ffs_from_generators(3, [x, y])),
            (ffs_from_generators(3, [x], [y]), ffs_from_generators(3, [x, y])),
            (ffs_from_generators(3, [x + y]), ffs_from_generators(3, [x, y])),
        ]
        for small, big in pairs:
            assert ffs_carried(small, big)
            assert co_edge_number(big) <= co_edge_number(small)


class TestSubgroupCarried:
    def test_conjugate_inclusion(self):
        inner = fold(2, [x + y + X])  # <x y x^-1>, conjugate of <y>
        outer = fold(2, [y])
        assert subgroup_carried(inner, outer)

    def test_non_inclusion(self):
        assert not subgroup_carried(fold(2, [x]), fold(2, [y]))


class TestEnumerateClasses:
    def test_cyclic_factor(self):
        got = enumerate_classes(ffs_from_generators(2, [x]), 3, 24)
        assert got == [x, x + x, x + x + x]

    def test_rank_two_in_three(self):
        got = enumerate_classes(ffs_from_generators(3, [x, y]), 2, 24)
        expected = {canonical_cyclic(w)
                    for w in (x, y, x + x, x + y, x + Y, y + y)}
        assert set(got) == expected and len(got) == 6

    def test_zero_length(self):
        assert enumerate_classes(ffs_from_generators(2, [x]), 0, 24) == []

    def test_translated_core_exposes_long_generator(self):
        # a stretched realization must still offer its generator loop
        long_word = x + y + x + y + y + x + Y + X
        ffs = ffs_from_generators(2, [long_word])
        got = enumerate_classes(ffs, 2, 24)
        assert canonical_cyclic(long_word) in got

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(st.lists(st.sampled_from(FWD[:rank] + BWD[:rank]),
                                   min_size=1, max_size=5).map("".join),
                          min_size=1, max_size=3),
                 min_size=1, max_size=2),
        st.integers(0, 4),
        st.sampled_from([10**6, 1, 5, 24, 200]))))
    def test_matches_depth_first_reference(self, case):
        rank, components, max_len, cap = case
        components = [[w for w in map(reduce_word, gens) if w]
                      for gens in components]
        if not all(components):
            return
        ffs = ffs_from_generators(rank, *components)
        assert enumerate_classes(ffs, max_len, cap) == \
            _enumerate_classes_dfs(ffs, max_len, cap)

    # stretched and circle components (a circle has no vertex of valence
    # other than 2), alone and together, and systems of several components
    SYSTEMS = [
        (2, [[x + y]]),
        (2, [[x + x + y + X + Y]]),
        (3, [[x + y + z]]),
        (3, [[x], [y + z]]),
        (3, [[x, y], [z]]),
        (3, [[x + y, y + z + Y]]),
        (4, [[x + y + x + Y], [z, FWD[3] + z + z]]),
        (4, [[x, y + z], [FWD[3] + FWD[3] + z]]),
    ]

    @pytest.mark.parametrize("rank, components", SYSTEMS)
    @pytest.mark.parametrize("cap", [1, 3, 7, 24, 10 ** 6])
    def test_systems_match_reference(self, rank, components, cap):
        ffs = ffs_from_generators(rank, *components)
        for max_len in range(6):
            assert enumerate_classes(ffs, max_len, cap) == \
                _enumerate_classes_dfs(ffs, max_len, cap)

    @pytest.mark.parametrize("rank, components", [
        (3, [[x, y]]), (3, [[x, y], [z]]), (4, [[x + y, y + z + Y]]),
        (4, [[x], [y + z]])])
    def test_each_class_canonicalized_once(self, rank, components,
                                           monkeypatch):
        # a class is spelled once, whatever the anchors and directions of
        # the closed walks that cross its arcs; the components of a free
        # factor system carry no class in common
        spelled = []

        def counted(w):
            spelled.append(w)
            return canonical_reduced(w)

        canonical_reduced = factors_mod._canonical_reduced
        monkeypatch.setattr(factors_mod, "_canonical_reduced", counted)
        got = enumerate_classes(ffs_from_generators(rank, *components), 4,
                                10 ** 6)
        assert len(spelled) == len(got)


def _enumerate_classes_dfs(ffs, max_len, cap=None):
    """Reference enumeration: every closed walk of at most max_len natural
    arcs, depth first, each class kept at the fewest arcs it crosses."""
    found: dict[str, int] = {}
    for comp in ffs.components:
        directed = []
        for i, (word, a, b) in enumerate(natural_arcs(comp.edges), 1):
            directed.append((word, a, b, i))
            directed.append((invert(word), b, a, -i))
        for start in {a for _, a, _, _ in directed}:  # the anchors
            stack = [(start, "", 0, 0)]
            while stack:
                v, word, last_id, used = stack.pop()
                if word and v == start:
                    cls = canonical_cyclic(word)
                    if cls and (cls not in found or used < found[cls]):
                        found[cls] = used
                if used >= max_len:
                    continue
                for aw, a, b, i in directed:
                    if a != v or i == -last_id:
                        continue
                    stack.append((b, word + aw, i, used + 1))
    ordered = sorted(found, key=lambda w: (found[w], len(w), w))
    return ordered[:cap] if cap else ordered


def _canonical_key_full(core):
    """Reference key: the full BFS serialization from every root, least
    one wins."""
    sigs = []
    for root in range(core.n_vertices):
        number = {root: 0}
        queue = [root]
        rows = []
        while queue:
            v = queue.pop(0)
            row = []
            for lab in range(core.rank):
                for ch in (FWD[lab], BWD[lab]):
                    w = core._out.get((v, ch))
                    if w is None:
                        row.append(".")
                        continue
                    if w not in number:
                        number[w] = len(number)
                        queue.append(w)
                    row.append(f"{ch}{number[w]}")
            rows.append(",".join(row))
        sigs.append(";".join(rows))
    return min(sigs)


class TestCanonicalForm:
    def test_conjugate_generators_same_core(self):
        a = fold(2, [x + y])
        b = fold(2, [y + x])
        assert a.canonical_key == b.canonical_key

    def test_distinct_subgroups_differ(self):
        assert fold(2, [x]).canonical_key != fold(2, [y]).canonical_key

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda rank: st.lists(
        st.lists(st.sampled_from(FWD[:rank] + BWD[:rank]),
                 min_size=1, max_size=10).map(reduce_word),
        min_size=1, max_size=4).map(lambda gens: (rank, gens))))
    def test_early_abort_key_matches_full_key(self, case):
        rank, gens = case
        gens = [w for w in gens if w]
        if not gens:
            return
        core = fold(rank, gens)
        assert core.canonical_key == _canonical_key_full(core)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.tuples(st.integers(0, rank - 1), st.integers(0, 7),
                           st.integers(0, 7)), min_size=1, max_size=14),
        st.permutations(range(8)))))
    def test_early_abort_key_on_folded_edge_sets(self, case):
        rank, edges, perm = case
        core = CoreGraph(rank, _fold(edges, [""] * len(edges)))
        assert core.canonical_key == _canonical_key_full(core)
        relabeled = CoreGraph(rank, [(lab, perm[a], perm[b])
                                     for lab, a, b in core.edges])
        assert relabeled.canonical_key == core.canonical_key
