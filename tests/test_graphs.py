import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from freesplit.automorphisms import (_BLOCK, compose_maps, identity_map,
                                     invert_map, outer_equal)
from freesplit.errors import InvalidInput, NumericalTolerance
from freesplit.fixtures import RANK2_CATALOG, fixture, fixture_names
from freesplit.graphs import (Graph, GraphMap, MarkedGraph, TransitionMatrix,
                              close_path, compose, graph_map,
                              identity_graph_map, is_invariant_subgraph,
                              is_nielsen, map_path,
                              marked_rose, minimal_invariant_superset,
                              parse_marked_graph, pf_eigenvalue,
                              print_marked_graph, realize_rose_endo, rose,
                              strata, transition_matrix)
from freesplit.words import (BWD, FWD, canonical_cyclic, invert, is_fwd,
                             reduce_word, slot)
from test_automorphisms import letter_image
from test_classify import rank2_products

# Reducible rose automorphisms of rank 3 and 4 (a = x1, b = x2, ...;
# capitals are inverses): invariant lower factors under EG, NEG and
# FIXED tops, parallel EG strata and permutation strata.
REDUCIBLE_ROSES = [
    ("ab", "bab", "ca"),
    ("a", "ba", "cb"),
    ("b", "a", "acb"),
    ("ab", "bab", "Cb"),
    ("a", "bca", "cbc"),
    ("b", "ab", "cd", "dcd"),
    ("a", "ba", "cb", "dca"),
    ("ab", "bab", "ac", "cdb"),
    ("b", "ba", "c", "dcB"),
    ("a", "bc", "c", "Dab"),
    ("a", "b", "cda", "dcd"),
    ("a", "ab", "cdb", "dcd"),
    ("b", "a", "cda", "dcdB"),
]
FILTRATION_CASES = ([("fixture", name) for name in fixture_names()]
                    + [("rank2", bm) for bm in rank2_products(5)]
                    + [("rose", bm) for bm in REDUCIBLE_ROSES])


def _case_id(case):
    kind, arg = case
    return arg if kind == "fixture" else f"{kind}-{','.join(arg)}"


def _case_maps(case):
    """The endomorphisms of a filtration case."""
    kind, arg = case
    if kind == "fixture":
        return [f for f in fixture(arg).maps.values() if f.is_endo()]
    return [realize_rose_endo(marked_rose(len(arg)), arg)]


@pytest.fixture(scope="module")
def frd(filling_spec):
    mg = filling_spec.mg
    return mg, mg.graph, filling_spec.f


class TestTighten:
    def test_full_cancellation(self, frd):
        mg, g, f = frd
        assert reduce_word(g.check_path(g.parse_path("A A'"))) == ""

    def test_inner_cancellation(self, frd):
        mg, g, f = frd
        p = g.parse_path("A X X' B")
        assert reduce_word(g.check_path(p)) == g.parse_path("A B")

    def test_idempotent(self, frd):
        mg, g, f = frd
        p = g.parse_path("A X Y B'")
        assert reduce_word(g.check_path(p)) == p

    def test_endpoint_incompatible_rejected_on_two_vertices(self):
        g = Graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v")])
        with pytest.raises(InvalidInput):
            g.check_path(FWD[0] + FWD[1])  # a then b needs b to start at v


class TestMapPath:
    def test_fixture_edge_images(self, frd):
        mg, g, f = frd
        sigma = "X X Y Y Z Z"
        assert map_path(f, g.parse_path("A")) == \
            g.parse_path(f"A {sigma} B' {sigma} B")
        assert map_path(f, g.parse_path("B")) == \
            g.parse_path(f"B {sigma} A {sigma} B' {sigma} B")

    def test_identity(self, frd):
        mg, g, f = frd
        p = g.parse_path("A B X")
        assert map_path(identity_graph_map(g), p) == p

    def test_multiplicative_on_concatenation(self, frd):
        mg, g, f = frd
        p, q = g.parse_path("A X"), g.parse_path("X' B")

        assert map_path(f, reduce_word(p + q)) == \
            reduce_word(map_path(f, p) + map_path(f, q))

    def test_unreduced_edge_image_rejected(self):
        g = rose(2)
        with pytest.raises(InvalidInput, match="reduced"):
            GraphMap(g, g, {"v": "v"}, (FWD[0] + FWD[1] + BWD[1], FWD[1]))


class TestCompose:
    def test_identity_neutral(self, frd):
        mg, g, f = frd
        assert compose(f, identity_graph_map(g)).edge_images == f.edge_images

    def test_restricted_factorization(self, bdd_spec):
        f = bdd_spec.maps["f"]
        f1, f2 = bdd_spec.maps["f1"], bdd_spec.maps["f2"]
        assert compose(f2, f1).edge_images == f.edge_images

    def test_square_matches_iterate(self, frd):
        mg, g, f = frd
        ff = compose(f, f)
        for s in range(g.n_edges):
            assert ff.edge_images[s] == map_path(f, map_path(f, FWD[s]))


class TestTransitionMatrix:
    def test_fixture_block(self, frd):
        mg, g, f = frd
        tm = transition_matrix(f)
        block = tm.block([g.slot_of["A"], g.slot_of["B"]])
        assert block.matrix == ((1, 1), (2, 3))

    def test_identity(self, frd):
        mg, g, f = frd
        tm = transition_matrix(identity_graph_map(g))
        n = g.n_edges
        assert tm.matrix == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    def test_square_on_pure_block(self, frd):
        # no cancellation across the exponential stratum of the fixture,
        # so the block of the square is the square of the block
        mg, g, f = frd
        slots = [g.slot_of["A"], g.slot_of["B"]]
        b1 = transition_matrix(f).block(slots).matrix
        b2 = transition_matrix(compose(f, f)).block(slots).matrix
        prod = tuple(
            tuple(sum(b1[i][k] * b1[k][j] for k in range(2)) for j in range(2))
            for i in range(2))
        assert b2 == prod

    def test_linear_generator_unipotent(self):
        spec = fixture("linear_example", i=1, j=0)
        tm = transition_matrix(spec.maps["theta"])
        g = spec.mg.graph
        n = g.n_edges
        iY, iX = g.slot_of["Y"], g.slot_of["X"]
        for i in range(n):
            assert tm.matrix[i][i] == 1
        off = {(i, j) for i in range(n) for j in range(n)
               if i != j and tm.matrix[i][j]}
        assert off == {(iX, iY)}
        assert tm.matrix[iX][iY] == 3


class TestPFEigenvalue:
    def test_fixture_block_value(self):
        tm = TransitionMatrix(("a", "b"), ((1, 1), (2, 3)))
        assert abs(pf_eigenvalue(tm) - (2 + math.sqrt(3))) < 1e-9

    def test_identity(self):
        tm = TransitionMatrix(("a", "b"), ((1, 0), (0, 1)))
        assert abs(pf_eigenvalue(tm) - 1.0) < 1e-9

    def test_permutation(self):
        tm = TransitionMatrix(("a", "b"), ((0, 1), (1, 0)))
        assert abs(pf_eigenvalue(tm) - 1.0) < 1e-9

    def test_iteration_cap(self):
        tm = TransitionMatrix(("a", "b"), ((1, 1), (2, 3)))
        with pytest.raises(NumericalTolerance):
            pf_eigenvalue(tm, iter_cap=1)


class TestStrata:
    def test_filling_reducible(self, frd):
        mg, g, f = frd
        filt = strata(f)
        got = [(tuple(sorted(g.edge_names[s] for s in st.slots)), st.label)
               for st in filt.strata]
        assert got == [(("X", "Y", "Z"), "FIXED"), (("A", "B"), "EG")]

    def test_bdd_three_strata(self, bdd_spec):
        g = bdd_spec.mg.graph
        filt = strata(bdd_spec.f)
        labels = [st.label for st in filt.strata]
        assert labels == ["FIXED", "EG", "EG"]

    def test_identity_single_fixed(self, frd):
        mg, g, f = frd
        filt = strata(identity_graph_map(g))
        assert len(filt.strata) == 1
        assert filt.strata[0].label == "FIXED"

    def test_collapsed_arc_is_zero(self):
        # collapsing the dumbbell's arc t onto u, with q carried around
        # it, is a homotopy equivalence; t's empty image crosses nothing
        mg, _ = _dumbbell()
        g = mg.graph
        collapse = graph_map(g, g, {"u": "u", "v": "u"},
                             {"p": ["p"], "q": ["t", "q", "t'"], "t": []})
        assert mg.induced_rose_map(collapse) == (FWD[0], FWD[1])
        got = [(sorted(g.edge_names[s] for s in st.slots), st.label)
               for st in strata(collapse).strata]
        assert got == [(["p"], "FIXED"), (["t"], "ZERO"), (["q"], "NEG")]

    @pytest.mark.parametrize("case", FILTRATION_CASES, ids=_case_id)
    def test_eg_iff_pf_above_threshold(self, case):
        # the crossing count agrees with the Perron root of the block,
        # computed by power iteration, on every stratum and pure power
        for f in _case_maps(case):
            for g in (f, compose(f, f)):
                tm = transition_matrix(g)
                for st in strata(g).strata:
                    block = tm.block(sorted(st.slots))
                    if len(st.slots) == 1 and block.matrix[0][0] == 0:
                        assert st.label == "ZERO"
                        continue
                    assert st.label != "ZERO"
                    rho = pf_eigenvalue(block)
                    assert (st.label == "EG") == (rho > 1 + 1e-9)

    @pytest.mark.parametrize("case", FILTRATION_CASES, ids=_case_id)
    def test_invariance_of_filtration(self, case):
        for f in _case_maps(case):
            upto = set()
            for st in strata(f).strata:
                upto |= st.slots
                assert is_invariant_subgraph(f, upto)
                if st.label != "FIXED":
                    for e in st.slots:
                        assert st.slots <= minimal_invariant_superset(f, (e,))


class TestNielsen:
    def test_identity_fixes_everything(self, frd):
        mg, g, f = frd
        ident = identity_graph_map(g)
        assert is_nielsen(ident, g.parse_path("A X B'"))

    def test_linear_generator_fixes_loop(self):
        spec = fixture("linear_example", i=1, j=0)
        g = spec.mg.graph
        assert is_nielsen(spec.maps["theta"], g.parse_path("Y X Y'"))

    def test_moved_edge(self, frd):
        mg, g, f = frd
        assert not is_nielsen(f, g.parse_path("A"))


class TestInvariantSubgraph:
    def test_fixed_rose(self, frd):
        mg, g, f = frd
        slots = [g.slot_of[n] for n in ("X", "Y", "Z")]
        assert is_invariant_subgraph(f, slots)

    def test_single_exponential_edge(self, frd):
        mg, g, f = frd
        assert not is_invariant_subgraph(f, [g.slot_of["A"]])

    def test_everything(self, frd):
        mg, g, f = frd
        assert is_invariant_subgraph(f, range(g.n_edges))


class TestSerialization:
    def test_round_trip_bit_exact(self, frd):
        mg, g, f = frd
        text = print_marked_graph(mg, f)
        mg2, f2, h2 = parse_marked_graph(text)
        assert print_marked_graph(mg2, f2) == text
        assert h2 is None

    def test_h_section(self, frd):
        mg, g, f = frd
        text = print_marked_graph(mg, None, h_slots=[g.slot_of["X"]])
        mg2, f2, h2 = parse_marked_graph(text)
        assert h2 == frozenset([g.slot_of["X"]])
        assert print_marked_graph(mg2, None, h2) == text

    def test_marking_validity_after_parse(self, frd):
        mg, g, f = frd
        mg2, _, _ = parse_marked_graph(print_marked_graph(mg))
        assert mg2.validate_marking()

    @pytest.mark.parametrize("v, h", [("v w", "x1"), ("v", "x1 x2")])
    def test_one_name_per_line(self, v, h):
        text = ("VERTICES\n{v}\nEDGES\nx1 v v\nx2 v v\n"
                "MARKING\nx1 x1\nx2 x2\nH\n{h}\n")
        parse_marked_graph(text.format(v="v", h="x1"))
        with pytest.raises(InvalidInput, match="one name per"):
            parse_marked_graph(text.format(v=v, h=h))


class TestConnectivity:
    def test_loop_counts_twice_towards_valence(self):
        # u carries a loop and one more edge: valence 3, so not natural
        g = Graph(["u", "v"], [("a", "u", "v"), ("b", "v", "v"),
                               ("c", "u", "u")])
        assert g.natural_classes == tuple(frozenset({s}) for s in range(3))

    @pytest.mark.parametrize("rank", [1, 3])
    def test_rose_natural_edges(self, rank):
        # the rank-1 rose's vertex has valence 2 but carries a single loop
        assert rose(rank).natural_classes == tuple(
            frozenset({s}) for s in range(rank))

    def test_subdivided_edges_merge(self):
        # a theta graph with one arc subdivided at w, plus a loop at u
        g = Graph(["u", "v", "w"], [("a", "u", "w"), ("b", "w", "v"),
                                    ("c", "u", "v"), ("d", "v", "u"),
                                    ("e", "u", "u")])
        assert g.natural_classes == (frozenset({0, 1}), frozenset({2}),
                                     frozenset({3}), frozenset({4}))

    def test_subgraph_components(self):
        g = Graph(["u", "v", "w"], [("a", "u", "w"), ("b", "w", "v"),
                                    ("c", "u", "v"), ("d", "v", "v"),
                                    ("e", "u", "u")])
        assert g.subgraph_components([4, 0, 3]) == [frozenset({0, 4}),
                                                    frozenset({3})]
        assert g.subgraph_components([3, 1, 4, 0]) == [frozenset({0, 1, 3, 4})]
        assert g.subgraph_components([]) == []


class TestMarking:
    def test_marking_inverse_round_trip(self, frd):
        mg, g, f = frd
        assert mg.validate_marking()

    def test_close_path_returns_along_the_tree(self):
        # the spanning tree at u is a from u to w and c from u to v, so an
        # open path is closed through c' and a; a tree edge closes to 1
        mg, _ = _theta()
        g = mg.graph
        assert mg.tree[0] == {"u": "", "w": "a", "v": "c"}
        assert close_path(mg, g.parse_path("b")) == g.parse_path("b c' a")
        assert close_path(mg, g.parse_path("d")) == g.parse_path("d c")
        assert close_path(mg, g.parse_path("a")) == ""

    @pytest.mark.parametrize("names", [["x1", "x2", "x3"], ["c", "a", "b"],
                                       ["B", "A", "Y", "X", "Z"],
                                       ["x7", "x2", "x10", "x1"]])
    def test_rose_inverse_is_the_name_permutation(self, names):
        # the computed inverse sends the edge named names[i] to letter i,
        # as the rose's hand-written inverse did
        mg = marked_rose(len(names), names)
        by_hand = [""] * len(names)
        for i, n in enumerate(names):
            by_hand[mg.graph.slot_of[n]] = FWD[i]
        assert mg.marking_inv == tuple(by_hand)

    def test_marking_inverse_is_reduced(self, frd):
        # path_to_rose maps through reduced images, so its words are reduced
        # and circuit_to_rose_class needs no free reduction
        mg, g, f = frd
        graphs = [mg, mg.remark(f), mg.remark(compose(f, f))]
        graphs += [fixture(n).mg for n in fixture_names()]
        for m in graphs:
            assert all(reduce_word(w) == w for w in m.marking_inv)
            loops = [m.rose_to_path(FWD[i]) for i in range(m.rank)]
            for c in loops + [p + q for p in loops for q in loops]:
                assert m.circuit_to_rose_class(c) == \
                    canonical_cyclic(m.path_to_rose(c))

    def test_remark_twice_is_composed(self, frd):
        mg, g, f = frd
        once = mg.remark(f).remark(f)
        both = mg.remark(compose(f, f))
        assert once.marking == both.marking

    def test_induced_inverse_round_trip(self, frd):
        mg, g, f = frd
        bm = mg.induced_rose_map(f)
        inv = invert_map(bm)
        assert outer_equal(compose_maps(bm, inv),
                           identity_map(mg.rank))[0] == "Equal"

    def test_inverse_round_trip_across_catalog(self, bdd_spec):
        specs = [bdd_spec, fixture("linear_example", i=1, j=1)]
        specs += [fixture(k) for k in sorted(RANK2_CATALOG)[:4]]
        for spec in specs:
            for name, gm in spec.maps.items():
                bm = spec.mg.induced_rose_map(gm)
                inv = invert_map(bm)
                verdict, _ = outer_equal(compose_maps(bm, inv),
                                         identity_map(spec.mg.rank))
                assert verdict == "Equal", (spec.name, name)

    def test_invert_rose_map_wrapper(self, frd):
        # a graph map realizing the inverse automorphism inverts f up to
        # an inner automorphism
        mg, g, f = frd
        f_inv = realize_rose_endo(mg, invert_map(mg.induced_rose_map(f)))
        verdict, _ = outer_equal(mg.induced_rose_map(compose(f, f_inv)),
                                 mg.induced_rose_map(identity_graph_map(g)))
        assert verdict == "Equal"


def _dumbbell():
    """Loops p at u and q at v joined by the arc t, marked at u, with the
    map swapping the two ends, which moves the base to v."""
    g = Graph(["u", "v"], [("p", "u", "u"), ("q", "v", "v"), ("t", "u", "v")])
    p, q, t = (FWD[g.slot_of[n]] for n in "pqt")
    mg = MarkedGraph(g, "u", [p, t + q + invert(t)])
    swap = graph_map(g, g, {"u": "v", "v": "u"},
                     {"p": ["q"], "q": ["p"], "t": ["t'"]})
    return mg, swap


def _theta():
    """A theta graph with one arc subdivided at w and a loop e at u, marked
    at u, with the map sliding the end of c over the loop e."""
    g = Graph(["u", "v", "w"], [("a", "u", "w"), ("b", "w", "v"),
                                ("c", "u", "v"), ("d", "v", "u"),
                                ("e", "u", "u")])
    a, b, c, d, e = (FWD[g.slot_of[n]] for n in "abcde")
    mg = MarkedGraph(g, "u", [e, a + b + d, c + d])
    slide = graph_map(g, g, {v: v for v in g.vertices},
                      {"a": ["a"], "b": ["b"], "c": ["e", "c"], "d": ["d"],
                       "e": ["e"]})
    return mg, slide


def _marked_graphs():
    """Multi-vertex marked graphs, each remarked by its map, and the
    filling_reducible rose remarked by its map."""
    out = []
    for mg, f in (_dumbbell(), _theta()):
        out += [mg, mg.remark(f), mg.remark(compose(f, f))]
    spec = fixture("filling_reducible")
    return out + [spec.mg, spec.mg.remark(spec.f)]


_FILLING = fixture("filling_reducible")
_MAPPED_GRAPHS = [_dumbbell(), _theta(), (_FILLING.mg, _FILLING.f)]


@st.composite
def long_paths(draw):
    """A marked graph with a self-map, a path of 128-400 letters from its
    base and a basis word of as many letters, long enough that a map with a
    block memo would apply them by blocks."""
    mg, f = draw(st.sampled_from(_MAPPED_GRAPHS))
    g = mg.graph
    n = draw(st.integers(2 * _BLOCK, 400))
    path, v = [], mg.base
    for k in draw(st.lists(st.integers(0, 2 * g.n_edges - 1),
                           min_size=n, max_size=n)):
        out = [ch for ch in FWD[:g.n_edges] + BWD[:g.n_edges]
               if g.init_of(ch) == v]
        path.append(out[k % len(out)])
        v = g.term_of(path[-1])
    basis = FWD[:mg.rank] + BWD[:mg.rank]
    word = draw(st.lists(st.sampled_from(basis), min_size=n, max_size=n))
    return mg, f, "".join(path), "".join(word)


class TestLongPaths:
    @settings(max_examples=60, deadline=None)
    @given(long_paths())
    def test_block_images_match_letter_images(self, case):
        mg, f, path, word = case
        # applying a map leaves nothing that changes a later image
        for _ in range(2):
            assert map_path(f, path) == letter_image(f.edge_images, path)
            assert mg.path_to_rose(path) == letter_image(mg.marking_inv, path)
            assert mg.rose_to_path(word) == letter_image(mg.marking, word)
        # graph maps and markings keep no block memo: only letter keys
        for t in (f.tables, mg.marking, mg.marking_inv):
            assert len(t.images) == 2 * len(t)


def path_valid_reference(g, word):
    """Letter by letter: each letter an edge of g, each ending where the
    next begins."""
    letters = {FWD[s] for s in range(g.n_edges)} | \
        {BWD[s] for s in range(g.n_edges)}
    return set(word) <= letters and all(
        g.term_of(word[i]) == g.init_of(word[i + 1])
        for i in range(len(word) - 1))


def loop_word_reference(mg, path):
    """Letter by letter: the i-th cotree edge reads as letter i, a tree
    edge as nothing."""
    index = {s: i for i, (s, _, _) in enumerate(mg.tree[1])}
    out = []
    for ch in path:
        i = index.get(slot(ch))
        if i is not None:
            out.append(FWD[i] if is_fwd(ch) else BWD[i])
    return reduce_word("".join(out))


class TestTranslatedPaths:
    """``path_valid`` and ``loop_word`` by ``str.translate``, against
    letter-by-letter references on every word of length <= 4."""

    @pytest.mark.parametrize("index", range(len(_marked_graphs())))
    def test_every_short_word(self, index):
        mg = _marked_graphs()[index]
        g = mg.graph
        letters = FWD[:g.n_edges] + BWD[:g.n_edges]
        valid = total = 0
        for n in range(5):
            for word in map("".join, itertools.product(letters, repeat=n)):
                ok = g.path_valid(word)
                assert ok == path_valid_reference(g, word), word
                assert mg.loop_word(word) == loop_word_reference(mg, word)
                valid += ok
                total += 1
        # on a graph with several vertices some words are not paths
        assert (valid < total) == (len(g.vertices) > 1)

    def test_loop_marking_inverse(self):
        # the swapped dumbbell is based at v, and its loops read from there
        mg, swap = _dumbbell()
        assert mg.remark(swap).base == "v"
        for mg in _marked_graphs():
            assert compose_maps(mg.loop_marking, mg.loop_marking_inv) == \
                identity_map(mg.rank)
            assert mg.validate_marking()

    @pytest.mark.parametrize("word", [FWD[3], "a" + FWD[5], "ab" + "\u00e9",
                                      "\u00e9", "a" + BWD[2] + "b"])
    def test_letter_outside_the_graph_is_invalid(self, word):
        g = rose(2)
        assert not g.path_valid(word)
        with pytest.raises(InvalidInput):
            g.check_path(word)
