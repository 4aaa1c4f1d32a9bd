"""The classifier: verdicts with machine-checkable witnesses.

The deciders run in a fixed order, and the first certificate decides.  A
map is PeriodicVertex when an invariant one-edge splitting is verified
through the pair relation; else Loxodromic when a lamination certifiably
fills and a splitting's displacement table has exact unit slope; else
BoundedOrbits when the laminations jointly fill and decomposition data
yields the verified length-four chain.  Otherwise it is Unknown, and
carries the stage where the sequence stopped.  Finite order is exact:
such a map goes through its least inner power m, found from its H_1 order,
and the f^m composed to test it is the map classified.  Any other map goes
through f itself, or through the power the caller asks for.  Every power
is composed by ``_power_map`` under a letter cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .automorphisms import abelianization, identity_map, mat_mul, outer_equal
from .config import DEFAULT, Config
from .errors import BudgetExhausted, InvalidInput, NotApplicable
from .fixtures import ExampleSpec
from .graphs import (GraphMap, MarkedGraph, compose, identity_graph_map,
                     is_invariant_subgraph, restricted_map)
from .laminations import (LaminationApprox, lamination_verdicts,
                          laminations_jointly_fill)
from .pairs import (MarkedGraphPair, pair_relation_check, remark_pair,
                    splitting_of_pair, validate_pair)
from .whitehead import FILLS, UNKNOWN
from .wproj import (WContext, build_context, default_m_samples,
                    displacement_table, estimate_M)
from .words import FWD, slot

DISPLACEMENT_RADIUS = 4  # translations tabulated on each side of W
CHAIN_K = 1  # power of the map in the BoundedOrbits chain witness
# A longer unreduced power image ends the inner-power test: EG images grow
# geometrically, and such a power is inner only by a conjugator of 5,000+.
INNER_POWER_MAX_LETTERS = 10_000


@dataclass(frozen=True)
class LoxodromicCertificate:
    """The objects behind a Loxodromic verdict, kept for in-process reuse:
    the W context with M-hat set, and the certifying displacement table."""

    ctx: WContext
    displacement: dict


@dataclass(frozen=True)
class Classification:
    verdict: str  # Loxodromic | BoundedOrbits | PeriodicVertex | Unknown
    witness_kind: str | None = None
    witness: dict = field(default_factory=dict)
    stage: str | None = None  # failing stage when Unknown
    power: int = 1
    notes: dict = field(default_factory=dict)
    # never serialized: reports read the certificate instead of rebuilding it
    _certificate: LoxodromicCertificate | None = field(
        default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness_kind": self.witness_kind,
            "witness": self.witness,
            "stage": self.stage,
            "power": self.power,
            "notes": self.notes,
        }


def rank2_classify(matrix) -> str:
    """Trace test for rank two on the abelianization in GL2(Z).

    Loxodromic iff the matrix is hyperbolic: |trace| > 2 for determinant
    +1, trace != 0 for determinant -1.
    """
    if (len(matrix) != 2 or any(len(r) != 2 for r in matrix)
            or any(not isinstance(v, int) for r in matrix for v in r)):
        raise InvalidInput("a 2x2 integer matrix is required")
    det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    if det not in (1, -1):
        raise InvalidInput("determinant must be +1 or -1")
    trace = matrix[0][0] + matrix[1][1]
    hyperbolic = abs(trace) > 2 if det == 1 else trace != 0
    return "Loxodromic" if hyperbolic else "NotLoxodromic"


def _power_map(f: GraphMap, p: int, cap: int) -> GraphMap:
    """f^p; BudgetExhausted before composing once an edge's unreduced
    image, the intermediate path, would pass ``cap`` letters."""
    out = identity_graph_map(f.source)
    for _ in range(p):
        if any(f.tables.unreduced_length(w) > cap for w in out.edge_images):
            raise BudgetExhausted("power images exceeded the length cap")
        out = compose(f, out)
    return out


def _inner_power(mg: MarkedGraph, f: GraphMap):
    """(m, f^m) for the least m with f^m inner, or None.

    Inner maps act trivially on H_1, and the kernel of Out(F_n) ->
    GL_n(Z/3) is torsion-free (Baumslag-Taylor, Math. Ann. 1968).  So the
    map has finite order exactly when its H_1 matrix has a finite order m
    and the m-th power is inner, and m is then the least inner power: one
    ``outer_equal`` on f^m decides.  For m > 1 an unreduced power image
    over ``INNER_POWER_MAX_LETTERS`` letters ends the test with None; for
    m = 1 there is nothing to compose, and f itself is tested.
    """
    m = _h1_order(abelianization(mg.induced_rose_map(f)))
    if m is None:
        return None
    try:
        fm = f if m == 1 else _power_map(f, m, INNER_POWER_MAX_LETTERS)
    except BudgetExhausted:
        return None
    inner = outer_equal(mg.induced_rose_map(fm), identity_map(mg.rank))
    return (m, fm) if inner[0] == "Equal" else None


def _h1_order(a) -> int | None:
    """The order of the square integer matrix ``a``, or None if infinite.

    The kernel of GL_n(Z) -> GL_n(Z/3) is torsion-free (Minkowski), so a
    finite order is the order of ``a`` mod 3, which GL_n(F_3) bounds.  A
    finite-order matrix has root-of-unity eigenvalues, so a power with
    |trace| > n shows infinite order early.
    """
    n = len(a)
    power, p, one = a, 1, abelianization(identity_map(n))
    while any((x - y) % 3 for r, s in zip(power, one) for x, y in zip(r, s)):
        if abs(sum(power[i][i] for i in range(n))) > n:
            return None
        power, p = mat_mul(a, power), p + 1
    return p if power == one else None


def periodic_vertex_witness(mg: MarkedGraph, f: GraphMap,
                            pairs: list[MarkedGraphPair] | None = None,
                            relation: GraphMap | None = None):
    """An invariant one-edge splitting with a verified relation map.

    The one-edge pairs, by default the coordinate pairs of ``mg``, are
    searched with the relation map, by default f itself; an inner f fixes
    every splitting, witnessed by the identity relation map.  NotApplicable
    when nothing is exhibited.
    """
    relation = f if relation is None else relation
    for pair in _coordinate_pairs(mg) if pairs is None else pairs:
        rel = pair_relation_check(relation, pair, remark_pair(pair, f))
        if rel.holds:
            return splitting_of_pair(pair), rel
    raise NotApplicable("no invariant one-edge splitting was exhibited")


def _coordinate_pairs(mg: MarkedGraph) -> list[MarkedGraphPair]:
    """The one-edge pairs collapsing all but one natural class, one pair
    per class.

    ``validate_pair`` accepts each H = G - e: it is a union of natural
    edges, and e is its only complementary class, so its co-edge number
    is 1.  A tree component T of H would have two leaves or more, each of
    valence at least 2 in G (MarkedGraph enforces it), so each an end of
    e.  Then G would be the circle T + e, whose one natural edge is all of
    G, and H would be empty.
    """
    g = mg.graph
    return [validate_pair(mg, frozenset(range(g.n_edges)) - cls)
            for cls in g.natural_classes]


@dataclass(frozen=True)
class BoundedChain:
    vertices: tuple[str, ...]  # five pair serializations
    arrows: tuple[dict, ...]
    k: int

    def to_json(self) -> dict:
        return {"k": self.k, "vertices": list(self.vertices),
                "arrows": [dict(a) for a in self.arrows]}


def bounded_path_witness(spec: ExampleSpec, k: int,
                         cfg: Config = DEFAULT) -> BoundedChain:
    """The verified length-four chain between a splitting and its image.

    Re-verifies the decomposition clauses, builds the two restricted maps,
    checks the composition law edgewise, and certifies every arrow of the
    five-vertex chain as a face relation or a verified equality.  The k-th
    powers are composed under ``cfg.iterate_cap``: BudgetExhausted past it.
    """
    if not spec.decomposition:
        raise InvalidInput("fixture carries no decomposition data")
    if k < 0:
        raise InvalidInput("k must be nonnegative")
    mg, f = spec.mg, spec.f
    g = mg.graph
    dec = spec.decomposition
    k1, k2 = frozenset(dec["K1"]), frozenset(dec["K2"])
    j2, j3 = frozenset(dec["J2"]), frozenset(dec["J3"])

    if k1 | k2 != frozenset(range(g.n_edges)):
        raise InvalidInput("decomposition clause 1: subgraphs do not cover")
    frontier = {v for s in k1 for v in (g._init[s], g._term[s])} & \
               {v for s in set(range(g.n_edges)) - k1
                for v in (g._init[s], g._term[s])}
    for comp in g.subgraph_components(k1):
        if not g.component_has_cycle(comp):
            raise InvalidInput("decomposition clause 2: first subgraph not core")
    if any(f.vertex_map[v] != v for v in frontier):
        raise InvalidInput("decomposition clause 2: frontier vertex moves")
    for comp in g.subgraph_components(k2):
        if not g.component_has_cycle(comp):
            raise InvalidInput(
                "decomposition clause 3: contractible component")
    if not (is_invariant_subgraph(f, j2) and j2 <= k2):
        raise InvalidInput("decomposition clause 4: inner core not invariant")
    for s in k2 - j2:
        img = f.edge_images[s]
        if img == FWD[s]:
            continue
        if not (img.startswith(FWD[s])
                and img[1:] and all(slot(ch) in j2 for ch in img[1:])):
            raise InvalidInput(
                "decomposition clause 4: edge is not a twist into the core")
    if not j3 <= (k1 & j2):
        raise InvalidInput("inner subgraph must sit inside the intersection")

    f1 = restricted_map(f, k1)
    f2 = restricted_map(f, frozenset(range(g.n_edges)) - k1)
    if compose(f2, f1).edge_images != f.edge_images:
        raise InvalidInput("restricted maps do not compose to the map")
    f1k, f2k, fk = (_power_map(m, k, cfg.iterate_cap) for m in (f1, f2, f))
    if compose(f2k, f1k).edge_images != fk.edge_images:
        raise InvalidInput("restricted powers do not compose to the power")

    v1, v2, p_j2 = (validate_pair(mg, h) for h in (j3, k1, j2))
    v2b = remark_pair(v2, f1k)
    v3 = remark_pair(v1, f1k)
    v4 = remark_pair(p_j2, f1k)
    v4b = remark_pair(p_j2, fk)
    v5 = remark_pair(v1, fk)

    rel_k1 = pair_relation_check(f1k, v2, v2b)
    if not rel_k1.holds:
        raise InvalidInput(f"chain equality at the core pair fails: {rel_k1.detail}")
    rel_j2 = pair_relation_check(f2k, v4, v4b)
    if not rel_j2.holds:
        raise InvalidInput(f"chain equality at the inner pair fails: {rel_j2.detail}")

    def face(a: MarkedGraphPair, b: MarkedGraphPair) -> bool:
        return (a.mg.marking == b.mg.marking and a.h_slots < b.h_slots)

    arrows = (
        {"move": "collapse", "from": 0, "to": 1, "ok": face(v1, v2)},
        {"move": "equality-witness", "at": 1, "via": f"f1^{k}",
         "ok": rel_k1.holds},
        {"move": "collapse", "from": 2, "to": 1, "ok": face(v3, v2b)},
        {"move": "collapse", "from": 2, "to": 3, "ok": face(v3, v4)},
        {"move": "equality-witness", "at": 3, "via": f"f2^{k}",
         "ok": rel_j2.holds},
        {"move": "collapse", "from": 4, "to": 3, "ok": face(v5, v4b)},
    )
    if not all(a["ok"] for a in arrows):
        raise InvalidInput("a chain arrow failed verification")
    return BoundedChain(
        vertices=(v1.serialize(), v2.serialize(), v3.serialize(),
                  v4.serialize(), v5.serialize()),
        arrows=arrows, k=k)


def classify(spec: ExampleSpec, cfg: Config = DEFAULT,
             power: int | None = None) -> Classification:
    """Run the full pipeline on a loaded example; ``power``, when given,
    is the positive power of f to classify through, unless f has finite
    order and goes through its least inner power.

    The shared artifacts are computed once, then the deciders run in a
    fixed order and the first certificate decides; otherwise the verdict
    is Unknown at the stage where the sequence stopped.
    """
    if power is not None and power < 1:
        raise InvalidInput(f"power must be at least 1, got {power}")
    mg, f = spec.mg, spec.f
    inner = _inner_power(mg, f)
    p, fp = inner or (power or 1, f)
    if inner is None and p > 1:
        try:
            fp = _power_map(f, p, cfg.iterate_cap)
        except BudgetExhausted:
            return Classification("Unknown", stage="power_map", power=p)
    # an inner power fixes every splitting
    verdicts = [] if inner else list(lamination_verdicts(mg, fp, cfg))
    notes = {} if inner else {
        "power": p, "eg_strata": len(verdicts),
        "lamination_verdicts": [v.kind for _, v in verdicts]}
    filling = next((lam for lam, v in verdicts if v.kind == FILLS), None)
    undecided = any(v.kind == UNKNOWN for _, v in verdicts)
    joint = None
    if verdicts and filling is None and not undecided:
        joint = laminations_jointly_fill([lam for lam, _ in verdicts]).kind
        notes["joint_verdict"] = joint
    pairs = _coordinate_pairs(mg)
    found = _invariant_splitting(mg, fp, pairs, p if inner else None)
    if isinstance(found, str):
        if filling is not None:
            found = _loxodromic(mg, fp, filling, pairs, cfg)
        elif undecided:
            found = "lamination_fills"
        elif joint == UNKNOWN:
            found = "laminations_jointly_fill"
        elif joint == FILLS:
            found = _bounded_chain(spec)
    if isinstance(found, str):
        found = Classification("Unknown", stage=found)
    return replace(found, power=p, notes=notes)


def _invariant_splitting(mg: MarkedGraph, fp: GraphMap,
                         pairs: list[MarkedGraphPair],
                         inner_power: int | None) -> Classification | str:
    """PeriodicVertex on a verified invariant splitting of fp = f^p; an
    inner fp is related to its remarking by the identity map."""
    relation = None if inner_power is None else identity_graph_map(mg.graph)
    try:
        s, rel = periodic_vertex_witness(mg, fp, pairs, relation)
    except NotApplicable:
        return "periodic_vertex_witness"
    witness = {"splitting": s.serialize(), "relation": rel.status}
    if inner_power is not None:
        witness["inner_power"] = inner_power
    return Classification("PeriodicVertex", "invariant-splitting", witness)


def _loxodromic(mg: MarkedGraph, fp: GraphMap, lam: LaminationApprox,
                pairs: list[MarkedGraphPair],
                cfg: Config) -> Classification | str:
    """Loxodromic on a displacement table of exact unit slope."""
    try:
        ctx = build_context(mg, fp, cfg, lam_plus=lam)
    except NotApplicable as exc:
        return f"build_context: {exc}"
    splittings = [splitting_of_pair(pair) for pair in pairs]
    try:
        estimate_M(ctx, default_m_samples(ctx, splittings[:2]))
    except NotApplicable:
        return "estimate_M"
    for s in splittings:
        try:
            table = displacement_table(ctx, s, DISPLACEMENT_RADIUS)
        except NotApplicable:
            continue
        if table["slope_exact"] and table["raw_within_m_hat"]:
            return Classification(
                "Loxodromic", "displacement-table",
                {"splitting": s.serialize(), "table": table["table"],
                 "m_hat": ctx.m_hat, "slope_exact": True,
                 "raw_spot_checks": table["raw_spot_checks"],
                 "distance_rate_lower_bound":
                     table["distance_rate_lower_bound"]},
                _certificate=LoxodromicCertificate(ctx, table))
    return "displacement witness"


def _bounded_chain(spec: ExampleSpec) -> Classification | str:
    """BoundedOrbits on the chain, which needs decomposition data."""
    if not spec.decomposition:
        return "bounded_path_witness"
    return Classification("BoundedOrbits", "length-4-chain",
                          bounded_path_witness(spec, CHAIN_K).to_json())
