"""Marked graph pairs, one-edge splittings, faces and sibling splittings.

A pair (G, H) is a marked graph with a natural subgraph whose components
are noncontractible (H may be empty); collapsing H gives a free splitting
with as many orbits of edges as the pair's co-edge number.  One-edge
splittings are compared through their elliptic free factor systems; pairs
of higher co-edge are compared only through explicit relation maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .automorphisms import compose_maps, identity_map, outer_equal
from .errors import InvalidInput
from .factors import FreeFactorSystem
from .graphs import (GraphMap, MarkedGraph, map_path, print_marked_graph,
                     subgraph_factor_system)
from .words import invert, slot


@dataclass(frozen=True)
class MarkedGraphPair:
    mg: MarkedGraph
    h_slots: frozenset[int]

    @property
    def graph(self):
        return self.mg.graph

    @property
    def co_edge(self) -> int:
        return len(self.complement_classes())

    def complement_classes(self):
        return [cls for cls in self.graph.natural_classes
                if not cls <= self.h_slots]

    def serialize(self) -> str:
        return print_marked_graph(self.mg, None, self.h_slots)


def validate_pair(mg: MarkedGraph, h_edges) -> MarkedGraphPair:
    """Check naturality, noncontractibility and a positive co-edge number."""
    g = mg.graph
    h = frozenset(
        s if isinstance(s, int) else g.slot_of[s] for s in h_edges
    )
    for s in h:
        if not 0 <= s < g.n_edges:
            raise InvalidInput("H contains an unknown edge")
    for cls in g.natural_classes:
        if (cls & h) and not cls <= h:
            raise InvalidInput("H is not a union of natural edges")
    if not g.every_component_has_cycle(h):
        raise InvalidInput("H has a contractible component")
    pair = MarkedGraphPair(mg, h)
    if pair.co_edge < 1:
        raise InvalidInput("co-edge number must be at least 1")
    return pair


def faces(pair: MarkedGraphPair) -> list[MarkedGraphPair]:
    """All pairs (G, H') with H strictly between H and G, valid components."""
    if pair.co_edge < 2:
        raise InvalidInput("faces require co-edge at least 2")
    out = []
    complement = pair.complement_classes()
    for r in range(1, len(complement)):
        for chosen in itertools.combinations(complement, r):
            h2 = set(pair.h_slots)
            for cls in chosen:
                h2 |= cls
            try:
                out.append(validate_pair(pair.mg, h2))
            except InvalidInput:
                continue
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneEdgeSplitting:
    pair: MarkedGraphPair
    elliptic: FreeFactorSystem = field(compare=False)

    def serialize(self) -> str:
        return self.pair.serialize()


def one_edge_splitting(mg: MarkedGraph, h_edges) -> OneEdgeSplitting:
    pair = validate_pair(mg, h_edges)
    return splitting_of_pair(pair)


def splitting_of_pair(pair: MarkedGraphPair) -> OneEdgeSplitting:
    if pair.co_edge != 1:
        raise InvalidInput("one-edge splittings have co-edge exactly 1")
    ell = elliptic_system(pair)
    if not ell.is_proper:
        raise InvalidInput("elliptic system of a splitting must be proper")
    return OneEdgeSplitting(pair, ell)


def elliptic_system(pair: MarkedGraphPair) -> FreeFactorSystem:
    """Factor system of the collapsed subgraph, through the marking."""
    return subgraph_factor_system(pair.mg, pair.h_slots)


def remark_pair(pair: MarkedGraphPair, f: GraphMap) -> MarkedGraphPair:
    """The pair with marking precomposed by ``f``; same graph and subgraph."""
    return MarkedGraphPair(pair.mg.remark(f), pair.h_slots)


def remark_splitting(s: OneEdgeSplitting, f: GraphMap) -> OneEdgeSplitting:
    """The action of the outer automorphism of ``f`` on one-edge
    splittings: the marking precomposed by ``f``.  Acceptance criterion 4
    moves sibling pairs along the orbit with it."""
    return splitting_of_pair(remark_pair(s.pair, f))


# ---------------------------------------------------------------------------
# The relation between pairs, verified by a map


HOLDS = "Holds"
FAILS = "FailsClause"


@dataclass(frozen=True)
class PairRelationWitness:
    map: GraphMap
    edge_assignments: dict  # natural class of source -> (mu, class, nu, flip)


@dataclass(frozen=True)
class RelationResult:
    status: str
    clause: int | None = None
    detail: str = ""
    witness: PairRelationWitness | None = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def pair_relation_check(h: GraphMap, p1: MarkedGraphPair,
                        p2: MarkedGraphPair) -> RelationResult:
    """Check the defining relation between pairs along the map ``h``.

    Clause 1: h preserves markings: h after the first marking equals the
    second marking in the outer automorphism group, both read as words in
    the target graph's cotree loops (:meth:`MarkedGraph.loop_word`).  When
    they differ, both are first composed with the inverse of the first
    marking, which its graph keeps (:attr:`MarkedGraph.loop_marking_inv`).
    Clause 2: h gives a bijection of natural vertices off the subgraphs.
    Clause 3: h carries H into H', and each complement natural edge maps
    to flank * edge * flank with flanks trivial or in H'.
    """
    if h.source is not p1.graph or h.target is not p2.graph:
        raise InvalidInput("map endpoints do not match the pairs")
    # The structural clauses (2) and (3) are cheap; the marking clause (1)
    # may invert a marking, so it runs last.
    nv1 = set(p1.graph.natural_vertices()) - p1.graph.vertices_of(p1.h_slots)
    nv2 = set(p2.graph.natural_vertices()) - p2.graph.vertices_of(p2.h_slots)
    images = [h.vertex_map[v] for v in nv1]
    if len(set(images)) != len(images) or set(images) != nv2:
        return RelationResult(FAILS, 2, "no bijection on complement vertices")

    h2 = p2.h_slots
    for s in p1.h_slots:
        if any(slot(ch) not in h2 for ch in h.edge_images[s]):
            return RelationResult(
                FAILS, 3, f"image of collapsed edge "
                f"{p1.graph.edge_names[s]} leaves the target subgraph")
    complement2 = set(p2.complement_classes())
    assignments = {}
    seen_targets = set()
    for cls in p1.complement_classes():
        word = map_path(h, p1.graph.natural_paths[cls])
        i, j = 0, len(word)
        while i < j and slot(word[i]) in h2:
            i += 1
        while j > i and slot(word[j - 1]) in h2:
            j -= 1
        core = word[i:j]
        if not core:
            return RelationResult(
                FAILS, 3, "complement edge image collapses into the subgraph")
        target = frozenset(slot(ch) for ch in core)
        if target not in complement2:
            return RelationResult(
                FAILS, 3, "complement edge image is not flank-edge-flank")
        expected = p2.graph.natural_paths[target]
        if core == expected:
            flip = False
        elif core == invert(expected):
            flip = True
        else:
            return RelationResult(
                FAILS, 3, "complement edge crossed more than once")
        if target in seen_targets:
            return RelationResult(FAILS, 3, "complement edges not bijective")
        seen_targets.add(target)
        assignments[cls] = (word[:i], target, word[j:], flip)
    if seen_targets != complement2:
        return RelationResult(FAILS, 3, "complement edges not bijective")

    carried = tuple(p2.mg.loop_word(map_path(h, w)) for w in p1.mg.marking)
    marked = p2.mg.loop_marking
    if carried != marked:
        # f = g in Out iff f x = g x in Out, for any automorphism x.  With x
        # the inverse of the source marking, which the source graph keeps,
        # the carried side is the identity when h is the identity map of
        # the graph.  outer_equal inverts its second map unless it is the
        # identity; the marked side is an automorphism, the carried side
        # only if h is a homotopy equivalence.
        back = p1.mg.loop_marking_inv
        moved, target = (compose_maps(w, back) for w in (carried, marked))
        if moved == identity_map(len(moved)):
            moved, target = target, moved
        verdict, _ = outer_equal(moved, target)
        if verdict != "Equal":
            return RelationResult(FAILS, 1, "marking not preserved")
    return RelationResult(
        HOLDS, witness=PairRelationWitness(h, assignments))


def sibling_splittings(pair: MarkedGraphPair):
    """The two one-edge collapses of a co-edge-2 pair: adjacent vertices
    of the free splitting complex, as acceptance criterion 4 takes them."""
    if pair.co_edge != 2:
        raise InvalidInput("co-edge 2 required")
    return [splitting_of_pair(fp) for fp in faces(pair)]
