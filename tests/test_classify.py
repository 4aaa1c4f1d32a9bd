import importlib
import itertools
import json
import os
import subprocess
import sys

import pytest

from freesplit import cli, laminations, whitehead
from freesplit.automorphisms import (MapTables, abelianization, compose_maps,
                                     identity_map, mat_mul, outer_equal)
from freesplit.classify import (INNER_POWER_MAX_LETTERS, _coordinate_pairs,
                                _h1_order, _inner_power, _power_map,
                                bounded_path_witness, classify,
                                periodic_vertex_witness, rank2_classify)
from freesplit.config import Config
from freesplit.errors import (BudgetExhausted, FixtureInvalid, InvalidInput,
                              NotApplicable)
from freesplit.factors import co_edge_number
from freesplit.fixtures import ExampleSpec, fixture, fixture_names
from freesplit.graphs import (MarkedGraph, compose, identity_graph_map,
                              marked_rose, parse_marked_graph,
                              print_marked_graph, realize_rose_endo, rose_map)
from freesplit.whitehead import FILLS, UNKNOWN, FillsVerdict
from freesplit.words import BWD, FWD, invert, reduce_word, strip_cyclic
from freesplit.wproj import apply_basis_map_to_ffs

from braids import artin, braid_maps, braid_type
from planted import SOUND_PSIS, planted_maps

# the package's ``classify`` function shadows the module of that name
classify_mod = importlib.import_module("freesplit.classify")

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# A rank-2 rose with the shear x1 -> x1 x2, in the text format.
ROSE2_SHEAR = ("VERTICES\nv\nEDGES\nx1 v v\nx2 v v\n"
               "MARKING\nx1 x1\nx2 x2\nMAP\nx1 x1 x2\nx2 x2\n")


# A theta graph: edges a, b, c from u to v, marked x1 = a b', x2 = a c',
# with the identity map; the edge b alone is an open path.
THETA = ("VERTICES\nu\nv\nEDGES\na u v\nb u v\nc u v\n"
         "MARKING\nx1 a b'\nx2 a c'\nMAP\na a\nb b\nc c\n")

# The theta graph with its arc from u to v through w cut into a and b, so
# that one natural edge has two edges; the map swaps c and d.
SUB_THETA = ("VERTICES\nu\nv\nw\nEDGES\na u w\nb w v\nc u v\nd u v\n"
             "MARKING\nx1 a b c'\nx2 a b d'\nMAP\na a\nb b\nc d\nd c\n")


@pytest.fixture
def map_calls(monkeypatch):
    """``map_calls(name)`` wraps the MarkedGraph method ``name``, which
    takes a graph map, and returns the list of the maps it is called with."""
    def wrap(name):
        seen = []
        method = getattr(MarkedGraph, name)

        def counted(self, f):
            seen.append(f)
            return method(self, f)

        monkeypatch.setattr(MarkedGraph, name, counted)
        return seen
    return wrap


class TestRank2Classify:
    def test_trace_three(self):
        assert rank2_classify([[2, 1], [1, 1]]) == "Loxodromic"

    def test_trace_two(self):
        assert rank2_classify([[1, 1], [0, 1]]) == "NotLoxodromic"

    def test_trace_zero(self):
        assert rank2_classify([[0, -1], [1, 0]]) == "NotLoxodromic"

    @pytest.mark.parametrize("matrix, verdict", [
        ([[1, 1], [1, 0]], "Loxodromic"),
        ([[2, 1], [1, 0]], "Loxodromic"),
        ([[0, 1], [1, 0]], "NotLoxodromic"),
    ])
    def test_determinant_minus_one(self, matrix, verdict):
        # det -1 is hyperbolic exactly when the trace is nonzero
        assert rank2_classify(matrix) == verdict

    def test_bad_determinant(self):
        with pytest.raises(InvalidInput):
            rank2_classify([[2, 0], [0, 1]])

    def test_bad_shape(self):
        with pytest.raises(InvalidInput):
            rank2_classify([[1, 0, 0], [0, 1, 0]])


def rank2_products(max_length):
    """Distinct rank-2 basis maps that are products of at most
    ``max_length`` of x1<->x2, x1 -> x1^-1 and x1 -> x1 x2, breadth first
    from the identity."""
    x, y, X = FWD[0], FWD[1], BWD[0]
    gens = ((y, x), (X, y), (x + y, y))
    order = [identity_map(2)]
    seen = set(order)
    frontier = order[:]
    for _ in range(max_length):
        nxt = []
        for bm in frontier:
            for gen in gens:
                prod = compose_maps(gen, bm)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        order += nxt
        frontier = nxt
    return order


class TestRank2Sweep:
    """Every product of at most six rank-2 generators, classified."""

    def test_sweep_matches_oracle_and_golden(self):
        # at the default Config: no exception, every decided map Loxodromic
        # exactly when the GL2(Z) oracle says so and PeriodicVertex
        # otherwise (no rank-2 map has BoundedOrbits), at least the 270
        # maps decided when length six was added, and the products of at
        # most four (listed first, breadth first) as in the golden file
        with open(os.path.join(GOLDEN, "rank2_sweep4_classify.json")) as fh:
            golden = json.load(fh)
        maps = rank2_products(6)
        assert len(maps) == 333
        assert maps[:67] == rank2_products(4)
        mg = marked_rose(2)
        got = {}
        decided = 0
        for i, bm in enumerate(maps):
            c = classify(ExampleSpec("sweep", mg,
                                     {"f": realize_rose_endo(mg, bm)}, None))
            if c.verdict != "Unknown":
                decided += 1
                oracle = rank2_classify(abelianization(bm))
                assert c.verdict == ("Loxodromic" if oracle == "Loxodromic"
                                     else "PeriodicVertex"), bm
            if i < 67:
                got["/".join(bm)] = [c.verdict, c.witness_kind, c.stage,
                                     c.power]
        assert got == golden
        assert decided >= 270


def inner_power_reference(mg, f):
    """_inner_power as it searched before the exact order test: every
    power up to 12 is composed and screened (no finite order in rank two
    is above 6)."""
    basis = identity_map(mg.rank)
    step = MapTables(mg.induced_rose_map(f))
    cur = basis
    for p in range(1, 13):
        cur = compose_maps(step, cur)
        if max(len(w) for w in cur) > INNER_POWER_MAX_LETTERS:
            return None
        if all(strip_cyclic(cur[i]) in (FWD[i], BWD[i])
               for i in range(mg.rank)):
            verdict, _ = outer_equal(cur, basis)
            if verdict == "Equal":
                return p
    return None


def inner_order(mg, f):
    """The least inner power _inner_power finds, or None."""
    inner = _inner_power(mg, f)
    return None if inner is None else inner[0]


class TestInnerPower:
    def test_matches_search_of_every_power(self):
        mg = marked_rose(2)
        found = set()
        for bm in rank2_products(6):
            f = realize_rose_endo(mg, bm)
            p = inner_order(mg, f)
            assert p == inner_power_reference(mg, f), bm
            found.add(p)
        assert found == {None, 1, 2, 3, 4, 6}

    @pytest.mark.parametrize("rank, bm, p", [
        (2, ("b", "a"), 2),
        (2, ("b", "A"), 4),
        (2, ("ab", "A"), 6),
        # (sigma1 sigma2)^3 is conjugation by x1 x2 x3
        (3, compose_maps(artin(1), artin(2)), 3),
        (3, artin(1), None),
    ], ids=["swap", "quarter_turn", "sixth_turn", "sigma1sigma2", "sigma1"])
    def test_named_maps(self, rank, bm, p):
        mg = marked_rose(rank)
        f = realize_rose_endo(mg, bm)
        assert inner_order(mg, f) == p

    def test_infinite_order_on_h1_composes_nothing(self, monkeypatch):
        composed = []

        def counted(f, p, cap):
            composed.append(p)
            return _power_map(f, p, cap)

        monkeypatch.setattr(classify_mod, "_power_map", counted)
        mg = marked_rose(2)
        for bm in (("a", "ba"), ("aba", "ab")):
            assert _inner_power(mg, realize_rose_endo(mg, bm)) is None
        assert composed == []

    def test_order_one_builds_the_basis_map_once(self, map_calls):
        built = map_calls("induced_rose_map")
        mg = marked_rose(2)
        f = identity_graph_map(mg.graph)
        assert _inner_power(mg, f) == (1, f)
        assert built == [f]

    def test_long_inner_map_is_tested_itself(self):
        # x -> u x u^-1 with u = (x1 x2)^3000: the images pass
        # INNER_POWER_MAX_LETTERS, but H_1 order 1 leaves no power to
        # compose, so the map is found inner and no stratum is examined
        mg = marked_rose(2)
        u = (FWD[0] + FWD[1]) * 3000
        bm = tuple(reduce_word(u + FWD[i] + invert(u)) for i in range(2))
        assert min(len(w) for w in bm) > INNER_POWER_MAX_LETTERS
        f = realize_rose_endo(mg, bm)
        assert inner_order(mg, f) == 1
        c = classify(ExampleSpec("conjugation", mg, {"f": f}, None))
        assert c.verdict == "PeriodicVertex"
        assert c.witness["inner_power"] == 1
        assert c.notes == {}


def companion(coeffs):
    """Companion matrix of x^d + c_(d-1) x^(d-1) + ... + c_0, given the
    coefficients c_0 .. c_(d-1)."""
    d = len(coeffs)
    return tuple(tuple(-coeffs[r] if c == d - 1 else int(r == c + 1)
                       for c in range(d)) for r in range(d))


def block_sum(*blocks):
    n = sum(map(len, blocks))
    rows, at = [], 0
    for b in blocks:
        rows += [(0,) * at + tuple(r) + (0,) * (n - at - len(b)) for r in b]
        at += len(b)
    return tuple(rows)


def identity_powers(a):
    """The p <= 120 with a^p = I, by powering: every finite order in
    GL_n(Z) for n <= 8 is at most 60."""
    one = abelianization(identity_map(len(a)))
    out, power = set(), a
    for p in range(1, 121):
        if power == one:
            out.add(p)
        power = mat_mul(a, power)
    return frozenset(out)


def negated(a):
    return tuple(tuple(-x for x in row) for row in a)


class TestH1Order:
    def test_matches_powering_on_block_sums(self):
        # the order of a block sum is the least power that is the identity
        # on every block; the blocks are every 2x2 matrix with entries in
        # [-3, 3] and determinant +-1, the companion matrices of the
        # cyclotomic polynomials of 5, 7 and 9 (orders 5, 7, 9), and
        # unipotent Jordan blocks with their negatives
        two = [((a, b), (c, d)) for a, b, c, d
               in itertools.product(range(-3, 4), repeat=4)
               if a * d - b * c in (1, -1)]
        phis = [companion((1, 1, 1, 1)), companion((1,) * 6),
                companion((1, 0, 0, 1, 0, 0))]
        j3 = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
        j4 = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))
        jordan = [j3, j4, negated(j3), negated(j4)]
        cases = ([(m,) for m in two + phis + jordan]
                 + [(m, c) for m in two for c in phis]
                 + [(j, phis[0]) for j in jordan]
                 + [(j3, negated(j3)), (j4, negated(j4))])
        powers = {b: identity_powers(b) for b in two + phis + jordan}
        orders = set()
        for blocks in cases:
            order = min(frozenset.intersection(*map(powers.get, blocks)),
                        default=None)
            assert _h1_order(block_sum(*blocks)) == order, blocks
            orders.add(order)
        assert {None, 1, 2, 3, 4, 5, 6, 7, 9, 30, 42} <= orders
        assert max(orders - {None}) == 42


def theta_text(k, reversed_):
    """The theta graph with edges E1 .. Ek from u to v, marked
    xi = Ei Ek', and the map Ei -> E(i+1), reversed when asked, so that
    u and v swap; the map has order k, or 2k when reversed and k is odd."""
    bar = "'" if reversed_ else ""
    return ("VERTICES\nu\nv\nEDGES\n"
            + "".join(f"E{i} u v\n" for i in range(1, k + 1))
            + "MARKING\n"
            + "".join(f"x{i} E{i} E{k}'\n" for i in range(1, k))
            + "MAP\n"
            + "".join(f"E{i} E{i % k + 1}{bar}\n" for i in range(1, k + 1)))


def signed_cycles(*cycles):
    """The rose map cycling consecutive blocks of basis letters, given as
    (length, inverted): x_i -> x_i+1 within a block, and its last letter
    to the first, inverted when asked.  A block of length k has order k,
    or 2k when inverted."""
    images, start = [], 0
    for length, inverted in cycles:
        images += [FWD[i + 1] for i in range(start, start + length - 1)]
        images.append((BWD if inverted else FWD)[start])
        start += length
    return tuple(images)


class TestFiniteOrder:
    """Finite-order maps are PeriodicVertex with their order as the least
    inner power, also above 12."""

    @pytest.mark.parametrize("k", range(3, 12))
    @pytest.mark.parametrize("reversed_", [False, True],
                             ids=["rotation", "swap"])
    def test_theta_rotation(self, k, reversed_):
        mg, f, _ = parse_marked_graph(theta_text(k, reversed_))
        c = classify(ExampleSpec("theta", mg, {"f": f}, None))
        assert c.verdict == "PeriodicVertex"
        assert c.witness["inner_power"] == (2 * k if reversed_ and k % 2
                                            else k)

    @pytest.mark.parametrize("cycles, order", [
        (((2, True),), 4),
        (((3, True),), 6),
        (((2, True), (2, False)), 4),
        (((5, True),), 10),
        (((6, True),), 12),
        (((7, True),), 14),
        (((5, True), (3, False)), 30),
    ], ids=["2i", "3i", "2i+2", "5i", "6i", "7i", "5i+3"])
    def test_signed_permutation(self, cycles, order):
        bm = signed_cycles(*cycles)
        mg = marked_rose(len(bm))
        c = classify(ExampleSpec("perm", mg,
                                 {"f": realize_rose_endo(mg, bm)}, None))
        assert c.verdict == "PeriodicVertex"
        assert c.witness["inner_power"] == order


class TestPowers:
    def test_decided_verdicts_agree_across_powers(self):
        # f, f^2 and f^3 have one type: a decided verdict at one is the
        # verdict at every other that is decided
        mg2, mg3 = marked_rose(2), marked_rose(3)
        maps = ([(mg2, bm) for bm in rank2_products(4)]
                + [(mg3, bm) for bm in braid_maps(3).values()])
        assert len(maps) == 114
        for mg, bm in maps:
            spec = ExampleSpec("power", mg, {"f": realize_rose_endo(mg, bm)},
                               None)
            decided = {classify(spec, power=p).verdict for p in (1, 2, 3)}
            assert len(decided - {"Unknown"}) <= 1, bm

    @pytest.mark.parametrize("cap, power, stage", [
        (100, 4, "lamination_fills"), (100, 5, "power_map"),
        (144, 5, "lamination_fills"), (143, 5, "power_map")])
    def test_power_over_iterate_cap_is_unknown(self, cap, power, stage):
        # on rank2_tr3, composing f^5 maps the images of f^4 to unreduced
        # paths of 144 and 89 letters: the cap is read before that step
        c = classify(fixture("rank2_tr3"), Config(iterate_cap=cap), power)
        assert (c.verdict, c.stage, c.power) == ("Unknown", stage, power)


class TestPowerOne:
    """A map of infinite order goes through f itself unless the caller
    asks for a power; a finite-order map through the f^m of its inner
    power test, whatever ``iterate_cap`` is."""

    def test_rank2_tr_minus_two(self):
        # x1 -> x1^-1, x2 -> x2^-1 x1^-1 is the golden file's A/BA
        spec = fixture("rank2_tr-2")
        assert spec.mg.induced_rose_map(spec.f) == ("A", "BA")
        c = classify(spec)
        assert (c.verdict, c.power, c.notes["power"]) == (
            "PeriodicVertex", 1, 1)

    @pytest.mark.parametrize("cap", [0, 2])
    @pytest.mark.parametrize("name, power", [("rank2_tr1", 6),
                                             ("rank2_tr-2", 1)])
    def test_small_iterate_cap_still_periodic(self, name, power, cap):
        c = classify(fixture(name), Config(iterate_cap=cap))
        assert (c.verdict, c.power) == ("PeriodicVertex", power)


class TestBraids:
    """The 577 maps of the 3-braid words of length at most six, against
    the trace oracle of ``braids``."""

    def test_slice_matches_trace_oracle(self):
        maps = braid_maps(6)
        assert len(maps) == 577
        assert braid_type((1, -2)) == "pseudo-Anosov"  # s1 s2^-1, trace 3
        assert (1, -2) in maps
        allowed = {"pseudo-Anosov": {"Loxodromic", "Unknown"},
                   "reducible": {"PeriodicVertex", "Unknown"},
                   "periodic": {"PeriodicVertex"}}
        mg = marked_rose(3)
        for word, bm in maps.items():
            c = classify(ExampleSpec("braid", mg,
                                     {"f": realize_rose_endo(mg, bm)}, None))
            assert c.verdict in allowed[braid_type(word)], word


class TestPlanted:
    """Rank-3 maps with a planted invariant one-edge splitting (``planted``),
    whose exact verdict is PeriodicVertex."""

    def test_oracle_holds(self):
        # each map of length at most five, under each of the seven psi,
        # preserves its planted system, of co-edge number 1
        family = planted_maps(rank2_products(5))
        assert len(family) == 1064
        for name, phi_a, phi, ffs in family:
            assert apply_basis_map_to_ffs(phi, ffs) == ffs, (name, phi_a)
            assert co_edge_number(ffs) == 1

    def test_sound_slice_is_periodic(self):
        mg = marked_rose(3)
        family = planted_maps(rank2_products(4), SOUND_PSIS)
        assert len(family) == 201
        for name, phi_a, phi, _ in family:
            c = classify(ExampleSpec("planted", mg,
                                     {"f": realize_rose_endo(mg, phi)}, None))
            assert c.verdict == "PeriodicVertex", (name, phi_a)


class TestPeriodicWitness:
    def test_shear(self):
        mg = marked_rose(2, ["x", "y"])
        f = rose_map(mg, {"x": "x y", "y": "y"})
        s, rel = periodic_vertex_witness(mg, f)
        assert rel.holds
        assert s.pair.h_slots == frozenset({mg.graph.slot_of["y"]})

    def test_identity_any_coordinate(self):
        mg = marked_rose(2)
        s, rel = periodic_vertex_witness(mg, identity_graph_map(mg.graph))
        assert rel.holds

    def test_inner_map_by_identity_relation(self):
        # conjugation by x2 fixes every splitting; the caller that knows
        # the map is inner passes the identity as the relation map
        mg = marked_rose(2)
        f = realize_rose_endo(mg, (FWD[1] + FWD[0] + BWD[1], FWD[1]))
        s, rel = periodic_vertex_witness(
            mg, f, relation=identity_graph_map(mg.graph))
        assert rel.holds
        assert rel.witness.map == identity_graph_map(mg.graph)

    def test_filling_fixture_not_applicable(self, filling_spec):
        with pytest.raises(NotApplicable):
            periodic_vertex_witness(filling_spec.mg, filling_spec.f)

    def test_pair_over_another_marked_graph_rejected(self):
        # f acts on every pair through the one graph mg.f, so a pair over
        # another marking of the same graph is an input error
        mg = marked_rose(2)
        f = rose_map(mg, {"x1": "x1 x2", "x2": "x2"})
        other = _coordinate_pairs(mg.remark(f))
        with pytest.raises(InvalidInput):
            periodic_vertex_witness(mg, f, other)

    def test_pairs_share_one_remarked_graph(self, filling_spec, map_calls):
        remarked = map_calls("remark")
        mg, f = filling_spec.mg, filling_spec.f
        assert len(_coordinate_pairs(mg)) > 1
        with pytest.raises(NotApplicable):
            periodic_vertex_witness(mg, f)
        assert remarked == [f]

    def test_one_coordinate_pair_per_natural_class(self):
        # validate_pair accepts the complement of every natural edge (the
        # proof is in _coordinate_pairs), so no class is dropped
        texts = [THETA, SUB_THETA] + [theta_text(k, r) for k in range(3, 12)
                                      for r in (False, True)]
        graphs = ([fixture(name).mg for name in fixture_names()]
                  + [parse_marked_graph(t)[0] for t in texts])
        for mg in graphs:
            pairs = _coordinate_pairs(mg)
            assert [p.complement_classes() for p in pairs] == \
                [[cls] for cls in mg.graph.natural_classes]


class TestBoundedChain:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_chain_verifies(self, bdd_spec, k):
        chain = bounded_path_witness(bdd_spec, k)
        assert len(chain.vertices) == 5
        assert all(a["ok"] for a in chain.arrows)
        assert sum(1 for a in chain.arrows if a["move"] == "collapse") == 4

    @pytest.mark.parametrize("k, cap", [(1, 22), (2, 99), (3, 386)])
    def test_powers_capped_by_iterate_cap(self, bdd_spec, k, cap):
        # cap is the least iterate_cap under which the k-th powers compose
        chain = bounded_path_witness(bdd_spec, k, Config(iterate_cap=cap))
        assert chain.k == k
        with pytest.raises(BudgetExhausted):
            bounded_path_witness(bdd_spec, k, Config(iterate_cap=cap - 1))

    def test_one_remarked_graph_per_map(self, bdd_spec, map_calls):
        # the chain's vertices lie on mg, mg.f1^k and mg.f^k
        remarked = map_calls("remark")
        bounded_path_witness(bdd_spec, 1)
        assert [f.edge_images for f in remarked] == [
            bdd_spec.maps["f1"].edge_images, bdd_spec.f.edge_images]

    def test_no_decomposition_rejected(self, filling_spec):
        with pytest.raises(InvalidInput):
            bounded_path_witness(filling_spec, 1)

    def test_contractible_component_rejected(self, bdd_spec):
        bad = ExampleSpec(
            bdd_spec.name, bdd_spec.mg, bdd_spec.maps, bdd_spec.expected,
            params=bdd_spec.params,
            decomposition={**bdd_spec.decomposition, "K2": frozenset()},
        )
        with pytest.raises(InvalidInput):
            bounded_path_witness(bad, 1)


class TestClassify:
    def test_filling_reducible(self, filling_spec):
        c = classify(filling_spec)
        assert c.verdict == "Loxodromic"
        assert c.witness_kind == "displacement-table"
        t = {int(k): v for k, v in c.witness["table"].items()}
        assert all(t[m] == t[0] - m for m in t)

    def test_bdd(self, bdd_spec):
        c = classify(bdd_spec)
        assert c.verdict == "BoundedOrbits"
        assert c.witness_kind == "length-4-chain"

    def test_joint_fill_without_chain_is_unknown(self, bdd_spec):
        # a joint Fills verdict is no certificate: without decomposition
        # data there is no chain to verify, so no BoundedOrbits
        spec = ExampleSpec(bdd_spec.name, bdd_spec.mg, bdd_spec.maps, None)
        c = classify(spec)
        assert (c.verdict, c.stage) == ("Unknown", "bounded_path_witness")
        assert c.witness_kind is None and c.witness == {}
        assert c.notes["joint_verdict"] == "Fills"

    def test_joint_unknown_is_unknown(self, bdd_spec, monkeypatch):
        # neither lamination fills alone, so an undecided joint verdict
        # leaves the map Unknown at that stage
        monkeypatch.setattr(classify_mod, "laminations_jointly_fill",
                            lambda lams: FillsVerdict(UNKNOWN))
        c = classify(bdd_spec)
        assert (c.verdict, c.stage) == ("Unknown", "laminations_jointly_fill")
        assert c.notes["joint_verdict"] == UNKNOWN

    def test_invariant_splitting_decides_before_filling_lamination(
            self, monkeypatch):
        # x1 -> x1 x2, x2 -> x1, x3 -> x3 fixes <x1, x2> * <x3>; even with
        # a lamination said to fill, the verified splitting decides
        monkeypatch.setattr(laminations, "lamination_fills",
                            lambda lam: FillsVerdict(FILLS))
        mg = marked_rose(3)
        f = rose_map(mg, {"x1": "x1 x2", "x2": "x1", "x3": "x3"})
        c = classify(ExampleSpec("order", mg, {"f": f}, None))
        assert c.verdict == "PeriodicVertex"
        assert c.notes["lamination_verdicts"] == [FILLS]
        h_slots = parse_marked_graph(c.witness["splitting"])[2]
        assert h_slots == frozenset({mg.graph.slot_of["x1"],
                                  mg.graph.slot_of["x2"]})

    def test_linear_shear(self):
        mg = marked_rose(2, ["x", "y"])
        spec = ExampleSpec("shear", mg,
                           {"f": rose_map(mg, {"x": "x y", "y": "y"})}, None)
        c = classify(spec)
        assert c.verdict == "PeriodicVertex"

    @pytest.mark.parametrize("power", [0, -2])
    @pytest.mark.parametrize("name", ["rank2_tr3", "rank2_tr0"])
    def test_power_below_one_rejected(self, name, power):
        # rank2_tr0 has an inner power, which classify finds first
        with pytest.raises(InvalidInput):
            classify(fixture(name), power=power)

    def test_linear_example_generator_is_periodic(self):
        spec = fixture("linear_example", i=1, j=1)
        gen_spec = ExampleSpec("theta", spec.mg,
                               {"f": spec.maps["theta"]}, None)
        c = classify(gen_spec)
        assert c.verdict == "PeriodicVertex"

    @pytest.mark.parametrize("cfg", [Config(iterate_cap=2),
                                     Config(lam_depth_cap=0)],
                             ids=["iterate_cap=2", "lam_depth_cap=0"])
    @pytest.mark.parametrize("name", ["rank2_tr3", "filling_reducible",
                                      "bdd_no_periodic", "rank2_tr2_shear"])
    def test_lamination_that_cannot_grow_is_unknown(self, name, cfg):
        # the invariant-splitting decider runs first, so the shear keeps
        # its PeriodicVertex; on the others a depth-0 lamination gets
        # Unknown from lamination_fills
        c = classify(fixture(name), cfg)
        if name == "rank2_tr2_shear":
            assert c.verdict == "PeriodicVertex"
        else:
            assert (c.verdict, c.stage) == ("Unknown", "lamination_fills")


class TestLoxodromicBranch:
    # loxodromic rank-2 maps whose sample groups give no two defined phases
    @pytest.mark.parametrize("bm", [("b", "Abb"), ("B", "abb"), ("Baa", "a")])
    def test_estimate_m_failure_is_unknown(self, bm):
        mg = marked_rose(2)
        spec = ExampleSpec("tail", mg, {"f": realize_rose_endo(mg, bm)}, None)
        c = classify(spec)
        assert c.verdict == "Unknown"
        assert c.stage == "estimate_M"

    def test_power_two(self):
        c = classify(fixture("rank2_tr3"), power=2)
        assert c.verdict == "Loxodromic"
        assert c.power == 2

    def test_certificate_not_serialized(self):
        c = classify(fixture("rank2_tr3"))
        assert c.verdict == "Loxodromic"
        assert c._certificate.ctx.m_hat == c.witness["m_hat"]
        assert "_certificate" not in json.dumps(c.to_json())


class TestFixtureCatalog:
    def test_names_listed(self):
        names = fixture_names()
        for expected in ("filling_reducible", "bdd_no_periodic",
                         "linear_example", "divergence", "rank2_tr3"):
            assert expected in names

    def test_unknown_rejected(self):
        with pytest.raises(InvalidInput):
            fixture("no_such_example")

    def test_filling_reducible_strata(self, filling_spec):
        assert filling_spec.params["m"] == 3
        assert filling_spec.expected == "Loxodromic"

    def test_bad_sigma_rejected(self):
        with pytest.raises(FixtureInvalid):
            fixture("filling_reducible", sigma="X")  # does not fill G1

    def test_sigma_outside_rose_rejected(self):
        with pytest.raises(FixtureInvalid):
            fixture("filling_reducible", sigma="A A")

    def test_linear_example_commutes(self):
        spec = fixture("linear_example", i=1, j=0)
        th10 = spec.maps["theta_10"]
        th01 = spec.maps["theta_01"]
        assert compose(th10, th01).edge_images == \
            compose(th01, th10).edge_images

    def test_bdd_decomposition_keys(self, bdd_spec):
        assert set(bdd_spec.decomposition) == {"K1", "K2", "J2", "J3"}


def run_cli(*argv, env=None):
    cmd = [sys.executable, "-m", "freesplit.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          env=env)


class TestCLI:
    def test_fixtures_list(self):
        res = run_cli("fixtures")
        assert res.returncode == 0
        assert "filling_reducible" in res.stdout

    @pytest.mark.parametrize("argv", [("fixtures",), ("fixtures", "--json"),
                                      ("classify", "--fixture", "rank2_tr3")])
    def test_closed_stdout_exits_quietly(self, argv):
        # the reader is gone before the first write, as after `| head -3`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run([sys.executable, "-m", "freesplit.cli", *argv],
                                 stdout=write_end, stderr=subprocess.PIPE,
                                 text=True, timeout=300)
        finally:
            os.close(write_end)
        assert res.returncode == 0
        assert res.stderr == ""

    def test_classify_json(self):
        res = run_cli("classify", "--fixture", "rank2_tr2_shear", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["schema"] == "freesplit-report/1"
        assert payload["verdict"] == "PeriodicVertex"

    def test_unknown_fixture_exit_code(self):
        res = run_cli("classify", "--fixture", "nope")
        assert res.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["classify"], ["report"], ["distance"], ["leaf"],
        ["fills", "--classes", "x1"], ["w", "--word", "x1"],
    ], ids=lambda argv: argv[0])
    def test_every_command_rejects_a_name_outside_the_catalog(self, argv,
                                                               capsys):
        # surface_example is no catalog fixture: an input error, exit 2
        assert cli.main([*argv, "--fixture", "surface_example"]) == 2
        assert capsys.readouterr().err == \
            "error: unknown fixture 'surface_example'\n"

    @pytest.mark.parametrize("flag", [("--horizon", "2"), ("--horizon", "0"),
                                      ("--seg-len", "0")])
    def test_invalid_neighbourhood_exit_code(self, flag, capsys):
        argv = ["classify", "--fixture", "filling_reducible", *flag]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_whitehead_budget_exit_code(self, tmp_path, capsys):
        # the budget is whitehead.MAX_LETTERS, no config key: a file that
        # sets it is rejected on load like any unknown key
        path = tmp_path / "wml.cfg"
        path.write_text("whitehead_max_letters=0\n")
        argv = ["classify", "--fixture", "rank2_tr3", "--config", str(path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown config key 'whitehead_max_letters'\n"

    @pytest.mark.parametrize("argv, err", [
        (["w", "--fixture", "rank2_tr2_shear", "--word", "x1"],
         "not applicable: no certified filling lamination for this map\n"),
        (["distance", "--fixture", "bdd_no_periodic", "--k", "9"],
         "budget: power images exceeded the length cap\n"),
    ], ids=["not-applicable", "budget"])
    def test_exit_3_names_its_cause(self, argv, err, capsys):
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == err

    def test_fixture_fills_check_names_its_reason(self, monkeypatch, capsys):
        # a budget below the base word's length leaves its verdict Unknown
        monkeypatch.setattr(whitehead, "MAX_LETTERS", 3)
        assert cli.main(["classify", "--fixture", "filling_reducible"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: base word does not fill its invariant "
                       "subgraph: Unknown (class set exceeds letter budget)\n")

    @pytest.mark.parametrize("command", ["classify", "report"])
    @pytest.mark.parametrize("power", ["0", "-2"])
    def test_invalid_power_exit_code(self, command, power, capsys):
        argv = [command, "--fixture", "rank2_tr3", "--power", power]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["w", "--fixture", "filling_reducible", "--word", "A", "--power", "5"],
        ["distance", "--fixture", "bdd_no_periodic", "--power", "3"],
        ["leaf", "--fixture", "filling_reducible", "--horizon", "5"],
        ["fills", "--fixture", "filling_reducible", "--classes", "X",
         "--config", "run.cfg"],
        ["classify", "--fixture", "rank2_tr3", "--input", "theta.txt"],
    ], ids=["w-power", "distance-power", "leaf-horizon", "fills-config",
            "fixture-and-input"])
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        # a command takes only the flags it reads, and one map source
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: freesplit")

    def test_distance_command(self):
        res = run_cli("distance", "--fixture", "bdd_no_periodic", "--k", "1",
                      "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["results"]["bound"] <= 4

    def test_fills_command(self):
        res = run_cli("fills", "--fixture", "filling_reducible",
                      "--classes", "X Y X' Y'", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["verdict"] == "ProperFactor"

    def test_leaf_command(self):
        res = run_cli("leaf", "--fixture", "filling_reducible", "--depth", "2",
                      "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["results"]["seed"] == "A"

    @pytest.mark.parametrize("stratum", ["1", "7", "-1"])
    def test_leaf_stratum_out_of_range(self, stratum, capsys):
        # filling_reducible has exactly one exponential stratum
        argv = ["leaf", "--fixture", "filling_reducible", "--stratum", stratum]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("depth", ["-1", "-3"])
    def test_leaf_negative_depth(self, depth, capsys):
        argv = ["leaf", "--fixture", "filling_reducible", "--depth", depth]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_w_command(self):
        res = run_cli("w", "--fixture", "filling_reducible", "--word", "A",
                      "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["results"]["status"] == "Defined"

    @pytest.mark.parametrize("name, word", [("rank2_tr3", ""),
                                            ("filling_reducible", "A A'")])
    def test_trivial_class_exit_code(self, name, word, capsys):
        # the empty path and a backtrack are the trivial class, an input
        # error for w as for fills
        assert cli.main(["w", "--fixture", name, "--word", word]) == 2
        assert capsys.readouterr().err == \
            f"error: class {word!r} is trivial\n"
        assert cli.main(["fills", "--fixture", name, "--classes", word]) == 2

    def test_out_dir(self, tmp_path):
        res = run_cli("classify", "--fixture", "rank2_tr0", "--out",
                      str(tmp_path), "--json")
        assert res.returncode == 0
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text())["verdict"] == "PeriodicVertex"

    def test_golden_rank2_classify(self):
        res = run_cli("classify", "--fixture", "rank2_tr3", "--json")
        assert res.returncode == 0
        with open(os.path.join(GOLDEN, "rank2_tr3_classify.json")) as fh:
            assert json.loads(res.stdout) == json.load(fh)

    def test_report_command(self, capsys):
        assert cli.main(["report", "--fixture", "rank2_tr3", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        witness = results["classification"]["witness"]
        assert results["m_hat"] == witness["m_hat"]
        assert results["displacement"]["table"] == witness["table"]

    @pytest.mark.parametrize("name", ["divergence", "filling_reducible",
                                      "linear_example"])
    def test_golden_report(self, name, capsys):
        # pins every witness of the displacement table, byte for byte
        assert cli.main(["report", "--fixture", name, "--json"]) == 0
        path = os.path.join(GOLDEN, f"report_{name}.json")
        with open(path, encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    @pytest.mark.parametrize("name", ["bdd_no_periodic", "filling_reducible"])
    def test_report_independent_of_hash_seed(self, name):
        # set or hash order must not leak into the output
        outs = []
        for seed in ("0", "1"):
            res = run_cli("report", "--fixture", name, "--json",
                          env={**os.environ, "PYTHONHASHSEED": seed})
            assert res.returncode == 0, res.stderr
            outs.append(res.stdout)
        assert outs[0] and outs[0] == outs[1]

    def test_golden_fixture_list(self):
        res = run_cli("fixtures", "--json")
        with open(os.path.join(GOLDEN, "fixtures_list.json")) as fh:
            assert json.loads(res.stdout) == json.load(fh)


class TestSerializationCLIRoundTrip:
    def test_input_file_classify(self, tmp_path, filling_spec):
        path = tmp_path / "map.txt"
        path.write_text(print_marked_graph(filling_spec.mg, filling_spec.f),
                        encoding="utf-8")
        res = run_cli("classify", "--input", str(path))
        assert res.returncode == 0
        assert "Loxodromic" in res.stdout

    def test_input_not_homotopy_equivalence_rejected(self, tmp_path, capsys):
        # x1 -> x1 x2 x1 x2, x2 -> x2 x1: the images generate a proper subgroup
        mg = marked_rose(2)
        x, y = FWD[0], FWD[1]
        endo = realize_rose_endo(mg, (x + y + x + y, y + x))
        path = tmp_path / "map.txt"
        path.write_text(print_marked_graph(mg, endo), encoding="utf-8")
        assert cli.main(["classify", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "homotopy equivalence" in err

    def test_input_file_text_format(self, tmp_path, capsys):
        path = tmp_path / "map.txt"
        path.write_text(ROSE2_SHEAR, encoding="utf-8")
        assert cli.main(["classify", "--input", str(path)]) == 0
        assert "PeriodicVertex" in capsys.readouterr().out

    @pytest.mark.parametrize("command,flag", [("fills", "--classes"),
                                              ("w", "--word")])
    def test_open_path_rejected_as_class(self, tmp_path, capsys, command,
                                         flag):
        path = tmp_path / "theta.txt"
        path.write_text(THETA, encoding="utf-8")
        assert cli.main([command, "--input", str(path), flag, "b"]) == 2
        assert capsys.readouterr().err == \
            "error: edge path 'b' is not closed\n"

    def test_closed_path_on_theta_graph(self, tmp_path, capsys):
        path = tmp_path / "theta.txt"
        path.write_text(THETA, encoding="utf-8")
        argv = ["fills", "--input", str(path), "--classes", "a b'"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "fills: ProperFactor\n"

    @pytest.mark.parametrize("text,config", [
        (ROSE2_SHEAR.replace("x2 x2\nMAP", "x3 x2\nMAP"), None),
        (ROSE2_SHEAR.replace("x2 x2\nMAP", "xq x2\nMAP"), None),
        (ROSE2_SHEAR.replace("x1 x1\nx2 x2\nMAP", "x0 x1\nx2 x2\nMAP"), None),
        (ROSE2_SHEAR.replace("x1 x1\nx2 x2\nMAP", "x2 x1\nx2 x2\nMAP"), None),
        (ROSE2_SHEAR.replace("x1 x1\nx2 x2\n", ""), None),
        (ROSE2_SHEAR + "c x1\n", None),
        (ROSE2_SHEAR + "x1 x1\n", None),
        (ROSE2_SHEAR + "H\nc\n", None),
        (None, None),
        (ROSE2_SHEAR, "missing.cfg"),
    ], ids=["marking_x3", "marking_xq", "marking_x0", "marking_twice",
            "marking_empty", "map_unknown_edge", "map_row_twice", "h_unknown_edge",
            "missing_input", "missing_config"])
    def test_malformed_input_rejected(self, tmp_path, capsys, text, config):
        path = tmp_path / "map.txt"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = ["classify", "--input", str(path)]
        if config:
            argv += ["--config", str(tmp_path / config)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
