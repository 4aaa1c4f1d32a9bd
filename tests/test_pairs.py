import itertools

import pytest

from freesplit import automorphisms, graphs
from freesplit.automorphisms import (apply_map, identity_map, invert_map,
                                     outer_equal)
from freesplit.classify import _power_map
from freesplit.config import DEFAULT
from freesplit.errors import InvalidInput
from freesplit.factors import ffs_from_generators
from freesplit.graphs import (Graph, MarkedGraph, compose, graph_map,
                              identity_graph_map, map_path, marked_rose,
                              realize_rose_endo, rose_map)
from freesplit.pairs import (elliptic_system, faces, one_edge_splitting,
                             pair_relation_check, remark_pair,
                             remark_splitting, validate_pair)
from freesplit.words import FWD, invert, slot
from freesplit.wproj import apply_basis_map_to_ffs
from test_classify import rank2_products


def dumbbell_marked():
    """Two loops joined by an arc, marked from the rank-2 rose."""
    g = Graph(["u", "v"],
              [("p", "u", "u"), ("q", "v", "v"), ("t", "u", "v")])
    p, q, t = (FWD[g.slot_of[n]] for n in ("p", "q", "t"))

    marking = [p, t + q + invert(t)]
    return MarkedGraph(g, "u", marking)


class TestValidatePair:
    def test_rose_coordinate(self):
        mg = marked_rose(3)
        pair = validate_pair(mg, ["x1"])
        assert pair.co_edge == 2

    def test_contractible_component_rejected(self):
        mg = dumbbell_marked()
        with pytest.raises(InvalidInput):
            validate_pair(mg, ["t"])

    def test_bdd_decomposition_pairs(self, bdd_spec):
        for key in ("K1", "J2", "J3"):
            pair = validate_pair(bdd_spec.mg, bdd_spec.decomposition[key])
            assert pair.co_edge >= 1

    def test_empty_subgraph_allowed(self):
        mg = marked_rose(2)
        pair = validate_pair(mg, [])
        assert pair.co_edge == 2

    def test_non_natural_rejected(self):
        mg = dumbbell_marked()
        # the arc and one loop form a natural subgraph; half a chain cannot
        g2 = Graph(["u", "w", "v"],
                   [("p", "u", "u"), ("q", "v", "v"),
                    ("t1", "u", "w"), ("t2", "w", "v")])

        t1, t2, p, q = (FWD[g2.slot_of[n]] for n in ("t1", "t2", "p", "q"))
        mg2 = MarkedGraph(g2, "u", [p, t1 + t2 + q + invert(t2) + invert(t1)])
        with pytest.raises(InvalidInput):
            validate_pair(mg2, ["t1", "p"])


class TestFaces:
    def test_two_faces_of_coedge_two(self):
        mg = marked_rose(3)
        pair = validate_pair(mg, ["x1"])
        got = faces(pair)
        assert len(got) == 2
        assert {frozenset(mg.graph.edge_names[s] for s in f.h_slots)
                for f in got} == {frozenset({"x1", "x2"}),
                                  frozenset({"x1", "x3"})}

    def test_coedge_one_rejected(self):
        mg = marked_rose(2)
        with pytest.raises(InvalidInput):
            faces(validate_pair(mg, ["x1"]))

    def test_bdd_faces_include_both_strata(self, bdd_spec):
        pair = validate_pair(bdd_spec.mg, bdd_spec.decomposition["J3"])
        names = {frozenset(bdd_spec.mg.graph.edge_names[s] for s in f.h_slots)
                 for f in faces(pair)}
        g1 = {"X", "Y", "Z"}
        assert frozenset(g1 | {"A", "B"}) in names
        assert frozenset(g1 | {"A2", "B2"}) in names

    def test_face_of_face(self, bdd_spec):
        pair = validate_pair(bdd_spec.mg, bdd_spec.decomposition["J3"])
        for face1 in faces(pair):
            if face1.co_edge >= 2:
                for face2 in faces(face1):
                    assert face2.h_slots > pair.h_slots


class TestEllipticSystem:
    def test_rose_coordinate(self):
        mg = marked_rose(2)
        s = one_edge_splitting(mg, ["x2"])
        assert s.elliptic == ffs_from_generators(2, [FWD[1]])

    def test_fixture_subrose(self, filling_spec):
        mg = filling_spec.mg
        s = one_edge_splitting(mg, ["X", "Y", "Z", "A"])
        gens = [mg.path_to_rose(mg.graph.parse_path(n))
                for n in ("X", "Y", "Z", "A")]
        assert s.elliptic == ffs_from_generators(5, gens)

    def test_bdd_lower_factor(self, bdd_spec):
        mg = bdd_spec.mg
        s = one_edge_splitting(mg, ["X", "Y", "Z", "A", "B", "A2"])
        assert s.elliptic.ranks == (6,)
        assert s.elliptic.is_proper

    def test_bdd_first_stratum_subgraph(self, bdd_spec):
        # collapsing the invariant rose plus the first pair of petals gives
        # a proper rank m+2 factor inside rank m+4
        pair = validate_pair(bdd_spec.mg, ["X", "Y", "Z", "A", "B"])
        ell = elliptic_system(pair)
        assert ell.ranks == (5,)
        assert ell.is_proper

    def test_dumbbell_matches_rose_presentation(self):
        rose2 = marked_rose(2)
        s_rose = one_edge_splitting(rose2, ["x1"])
        bell = dumbbell_marked()
        s_bell = one_edge_splitting(bell, ["p", "t"])
        assert s_rose.elliptic == s_bell.elliptic


class TestEquivalence:
    def test_reflexive(self, filling_spec):
        s = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        assert s.elliptic == s.elliptic

    def test_coordinate_splittings_differ(self):
        mg = marked_rose(2)
        assert one_edge_splitting(mg, ["x1"]).elliptic != \
            one_edge_splitting(mg, ["x2"]).elliptic

    def test_small_battery_is_equivalence(self):
        mg = marked_rose(3)
        splittings = [one_edge_splitting(mg, [a, b])
                      for a, b in itertools.combinations(
                          ("x1", "x2", "x3"), 2)]
        for a in splittings:
            assert a.elliptic == a.elliptic
            for b in splittings:
                assert (a.elliptic == b.elliptic) == (b.elliptic == a.elliptic)
                for c in splittings:
                    if a.elliptic == b.elliptic == c.elliptic:
                        assert a.elliptic == c.elliptic


class TestPairRelation:
    def test_identity_holds(self, filling_spec):
        pair = validate_pair(filling_spec.mg, ["X", "Y", "Z", "A"])
        res = pair_relation_check(identity_graph_map(filling_spec.mg.graph),
                                  pair, pair)
        assert res.holds

    def test_bdd_core_equality(self, bdd_spec):
        for k in (1, 2):
            f1k = _power_map(bdd_spec.maps["f1"], k, DEFAULT.iterate_cap)
            pair = validate_pair(bdd_spec.mg, bdd_spec.decomposition["K1"])
            res = pair_relation_check(f1k, pair, remark_pair(pair, f1k))
            assert res.holds

    def test_fixture_fails_clause_three(self, filling_spec):
        f = filling_spec.f
        pair = validate_pair(filling_spec.mg, ["X", "Y", "Z", "A"])
        res = pair_relation_check(f, pair, remark_pair(pair, f))
        assert res.status == "FailsClause" and res.clause == 3

    def test_witness_flanks_in_subgraph(self, bdd_spec):
        f1 = bdd_spec.maps["f1"]
        pair = validate_pair(bdd_spec.mg, bdd_spec.decomposition["K1"])
        res = pair_relation_check(f1, pair, remark_pair(pair, f1))
        assert res.holds
        for mu, cls, nu, flip in res.witness.edge_assignments.values():
            for ch in mu + nu:
                assert slot(ch) in pair.h_slots

    @pytest.mark.parametrize("inner", [{"a": "a", "b": "a b a'"},
                                       {"a": "b' a b", "b": "b"}])
    def test_identity_relation_inverts_no_marking(self, inner, monkeypatch):
        # an inner f remarks a pair to one related to it by the identity;
        # the source keeps its marking's inverse, so clause 1 inverts nothing
        mg = marked_rose(2, ["a", "b"])
        f = rose_map(mg, inner)
        pair = validate_pair(mg, ["a"])
        target = remark_pair(pair, f)
        mg.loop_marking_inv
        calls = []

        def counting(bm):
            calls.append(bm)
            return invert_map(bm)

        monkeypatch.setattr(automorphisms, "invert_map", counting)
        monkeypatch.setattr(graphs, "invert_map", counting)
        res = pair_relation_check(identity_graph_map(mg.graph), pair, target)
        assert res.holds and calls == []

    def test_clause_one_mutant(self):
        # x2 -> x2 x2 keeps H = {x2} and the complement edge x1 in place,
        # so only the marking clause can reject it
        mg = marked_rose(2)
        pair = validate_pair(mg, ["x2"])
        h = rose_map(mg, {"x1": "x1", "x2": "x2 x2"})
        res = pair_relation_check(h, pair, pair)
        assert res.status == "FailsClause" and res.clause == 1

    def test_clause_one_matches_nielsen_reference(self, bdd_spec):
        """Clause 1 read in the target's loops agrees with the former
        check through the target's remarked marking inverse."""
        cases = []  # (h, p1, p2, base pair of p2, map p2 is remarked by)
        mg2 = marked_rose(2)
        for bm in rank2_products(4):
            f = realize_rose_endo(mg2, bm)
            for pair in (validate_pair(mg2, ["x1"]),
                         validate_pair(mg2, ["x2"])):
                moved = remark_pair(pair, f)
                for h in (f, identity_graph_map(mg2.graph)):
                    cases.append((h, pair, moved, pair, f))
        mg, dec = bdd_spec.mg, bdd_spec.decomposition
        ident = identity_graph_map(mg.graph)
        p_j3, p_k1, p_j2 = (validate_pair(mg, dec[k])
                            for k in ("J3", "K1", "J2"))
        for k in (0, 1, 2):
            f1k, f2k, fk = (_power_map(m, k, DEFAULT.iterate_cap) for m in (
                bdd_spec.maps["f1"], bdd_spec.maps["f2"], bdd_spec.f))
            v2b, v3 = remark_pair(p_k1, f1k), remark_pair(p_j3, f1k)
            v4, v4b = remark_pair(p_j2, f1k), remark_pair(p_j2, fk)
            v5 = remark_pair(p_j3, fk)
            cases += [(ident, p_j3, p_k1, p_k1, None),
                      (f1k, p_k1, v2b, p_k1, f1k),
                      (ident, v3, v2b, p_k1, f1k),
                      (ident, v3, v4, p_j2, f1k),
                      (f2k, v4, v4b, p_j2, fk),
                      (ident, v5, v4b, p_j2, fk)]
        seen = set()
        for h, p1, p2, base, f in cases:
            inv = base.mg.marking_inv
            if f is not None:
                f_inv = invert_map(base.mg.induced_rose_map(f))
                inv = tuple(apply_map(f_inv, w) for w in inv)
            images = [map_path(h, w) for w in p1.mg.marking]
            old = outer_equal(tuple(apply_map(inv, w) for w in images),
                              identity_map(p1.mg.rank))[0]
            new = outer_equal(
                tuple(p2.mg.loop_word(w) for w in images),
                tuple(p2.mg.loop_word(w) for w in p2.mg.marking))[0]
            assert old == new
            res = pair_relation_check(h, p1, p2)
            if res.status != "FailsClause" or res.clause == 1:
                assert res.holds == (new == "Equal")
            seen.add(new)
        assert seen == {"Equal", "Distinct"}


class TestRemark:
    def test_identity_remark(self, filling_spec):
        pair = validate_pair(filling_spec.mg, ["X", "Y", "Z", "A"])
        same = remark_pair(pair, identity_graph_map(filling_spec.mg.graph))
        assert same.mg.marking == pair.mg.marking

    def test_remark_twice_matches_composite(self, filling_spec):
        f = filling_spec.f
        pair = validate_pair(filling_spec.mg, ["X", "Y", "Z", "A"])
        twice = remark_pair(remark_pair(pair, f), f)
        joint = remark_pair(pair, compose(f, f))
        assert twice.mg.marking == joint.mg.marking

    def test_elliptic_transforms_by_inverse(self, filling_spec):
        mg, f = filling_spec.mg, filling_spec.f
        s = one_edge_splitting(mg, ["X", "Y", "Z", "A"])
        moved = remark_splitting(s, f)
        bwd = invert_map(mg.induced_rose_map(f))
        assert moved.elliptic == apply_basis_map_to_ffs(bwd, s.elliptic)

    def test_right_action_with_distinct_maps(self, filling_spec):
        mg, f = filling_spec.mg, filling_spec.f
        swap = rose_map(mg, {"X": "Y", "Y": "X", "Z": "Z",
                             "A": "A", "B": "B"})
        pair = validate_pair(mg, ["X", "Y", "Z", "A"])
        stepwise = remark_pair(remark_pair(pair, f), swap)
        joint = remark_pair(pair, compose(swap, f))
        assert stepwise.mg.marking == joint.mg.marking
