"""Finite approximations of attracting laminations.

A lamination attached to an exponentially growing stratum is approximated
by the tightened iterates of a seed edge.  Filling is certified either by
a proper invariant subgraph carrying the stratum (negative certificate)
or by the Whitehead support of the accumulated closures of the leaf
segments, accepted only when the verdict stabilizes at two consecutive
depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT, Config
from .errors import BudgetExhausted, InvalidInput
from .factors import carries
from .graphs import (Filtration, GraphMap, MarkedGraph, close_path, iterate,
                     map_circuit, map_path, minimal_invariant_superset,
                     pf_eigenvalue, strata, subgraph_factor_system,
                     transition_matrix)
from .whitehead import PROPER, UNKNOWN, FillsVerdict, fills
from .words import (FWD, canonical_cyclic, cyclic_contains, invert,
                    path_contains)


@dataclass(frozen=True)
class AttractionParams:
    seg_len: int = DEFAULT.seg_len
    horizon_fwd: int = DEFAULT.horizon_fwd
    horizon_bwd: int = DEFAULT.horizon_bwd
    stability: int = DEFAULT.stability

    def __post_init__(self):
        if self.seg_len < 1:
            raise InvalidInput("defining segment length must be >= 1")
        if not (min(self.horizon_fwd, self.horizon_bwd) >= self.stability >= 1):
            raise InvalidInput("horizons >= stability >= 1 required")


@dataclass(frozen=True)
class LaminationApprox:
    mg: MarkedGraph
    f: GraphMap
    stratum_index: int
    stratum: frozenset[int]
    seed: int
    segments: tuple[str, ...]  # segments[k] = k-fold tightened image of seed
    depth: int
    stratum_growth: tuple[int, ...]  # stratum-edge counts per depth

    def deepest(self) -> str:
        return self.segments[-1]

    def growth_ratio(self) -> float | None:
        g = self.stratum_growth
        if len(g) < 2 or g[-2] == 0:
            return None
        return g[-1] / g[-2]


def leaf_segment(f: GraphMap, edge: str | int, k: int,
                 cfg: Config = DEFAULT) -> str:
    """Tightened k-fold image of a single edge."""
    s = edge if isinstance(edge, int) else f.source.slot_of[edge]
    return iterate(f, FWD[s], k, cap=cfg.iterate_cap)


def _stratum_count(stratum, word: str) -> int:
    return sum(word.count(FWD[s]) + word.count(invert(FWD[s])) for s in stratum)


def lamination_approx(mg: MarkedGraph, f: GraphMap, stratum_index: int,
                      cfg: Config = DEFAULT,
                      filtration: Filtration | None = None) -> LaminationApprox:
    """Iterated-seed approximation of the lamination of an EG stratum."""
    filtration = filtration or strata(f, cfg)
    st = filtration.strata[stratum_index]
    if st.label != "EG":
        raise InvalidInput(f"stratum {stratum_index} is {st.label}, not EG")
    seed = min(st.slots)
    segs = [FWD[seed]]
    counts = [1]
    while len(segs) - 1 < cfg.lam_depth_cap:
        if (len(segs[-1]) >= cfg.lam_len_target
                and len(segs) >= 3):
            break
        try:
            nxt = map_path(f, segs[-1])
        except Exception:
            break
        if len(nxt) > cfg.iterate_cap:
            break
        segs.append(nxt)
        counts.append(_stratum_count(st.slots, nxt))
    if len(segs) < 2:
        raise BudgetExhausted("could not grow any leaf segment within budget")
    return LaminationApprox(mg, f, stratum_index, st.slots, seed,
                            tuple(segs), len(segs) - 1, tuple(counts))


def growth_certified(lam: LaminationApprox, cfg: Config = DEFAULT,
                     rel_tol: float = 0.35) -> bool:
    """Loose check that stratum-edge counts grow like the block's Perron root."""
    tm = transition_matrix(lam.f).block(sorted(lam.stratum))
    rho = pf_eigenvalue(tm, cfg)
    r = lam.growth_ratio()
    return r is not None and r > 1.0 and abs(r - rho) <= rel_tol * rho


def defining_segment(lam: LaminationApprox, seg_len: int) -> str:
    """Central subword of the deepest segment, centered at a seed occurrence."""
    deep = lam.deepest()
    if len(deep) < seg_len:
        raise InvalidInput(
            f"deepest segment ({len(deep)} letters) shorter than L={seg_len}")
    mid = len(deep) // 2
    seed_fwd, seed_bwd = FWD[lam.seed], invert(FWD[lam.seed])
    positions = [i for i, ch in enumerate(deep) if ch in (seed_fwd, seed_bwd)]
    center = min(positions, key=lambda i: abs(i - mid)) if positions else mid
    start = max(0, min(center - seg_len // 2, len(deep) - seg_len))
    seg = deep[start : start + seg_len]
    if not path_contains(deep, seg):
        raise InvalidInput("defining segment does not occur in its own leaf")
    return seg


# ---------------------------------------------------------------------------
# Weak attraction


@dataclass(frozen=True)
class AttractionVerdict:
    attracted: bool
    index: int | None = None
    checked: int = 0

    @property
    def kind(self) -> str:
        return "Attracted" if self.attracted else "NotWithinHorizon"


def weakly_attracted(f: GraphMap, circuit: str, lam: LaminationApprox,
                     params: AttractionParams,
                     cfg: Config = DEFAULT) -> AttractionVerdict:
    """Scan forward iterates of a circuit for the defining segment.

    Attracted(i) when containment holds on [i, i+s]; NotWithinHorizon after
    the forward horizon; BudgetExhausted when the length cap strikes before
    the question is settled.
    """
    seg = defining_segment(lam, params.seg_len)
    cur = canonical_cyclic(circuit)
    mem: list[bool] = []
    for j in range(params.horizon_fwd + 1):
        mem.append(cyclic_contains(cur, seg))
        i = len(mem) - 1 - params.stability
        if i >= 0 and all(mem[i:]):
            return AttractionVerdict(True, i, checked=len(mem))
        if j < params.horizon_fwd:
            nxt = map_circuit(f, cur)
            if len(nxt) > cfg.iterate_cap:
                raise BudgetExhausted(
                    "iterates exceeded the length cap before the horizon")
            cur = nxt
    return AttractionVerdict(False, None, checked=len(mem))


# ---------------------------------------------------------------------------
# Filling certificates


def _segment_classes(lam: LaminationApprox, depth: int) -> list[str]:
    """Closures of the leaf segments at depths 1..depth, as basis classes."""
    out = []
    for k in range(1, depth + 1):
        loop = close_path(lam.mg, lam.segments[k])
        cls = canonical_cyclic(lam.mg.path_to_rose(loop))
        if cls:
            out.append(cls)
    return sorted(set(out))


def _verdict_key(v: FillsVerdict):
    if v.kind == PROPER:
        return (PROPER, v.witness.canonical_key())
    return (v.kind,)


def _stabilized_fills(accumulated_lists, rank: int, cfg: Config) -> FillsVerdict:
    """fills() on accumulated class sets; accept two consecutive agreements."""
    prev: FillsVerdict | None = None
    for classes in accumulated_lists:
        if not classes:
            continue
        cur = fills(sorted(classes), rank, cfg)
        if prev is not None and cur.kind != UNKNOWN \
                and _verdict_key(prev) == _verdict_key(cur):
            return cur
        prev = cur
    return FillsVerdict(UNKNOWN, reason="verdict did not stabilize")


def lamination_fills(lam: LaminationApprox, cfg: Config = DEFAULT) -> FillsVerdict:
    """Does the lamination fill?

    Negative certificate first: the smallest invariant subgraph containing
    the stratum carries every leaf, so a proper one settles the question
    exactly.  Otherwise the stabilized Whitehead support of the accumulated
    segment closures decides, or reports Unknown.
    """
    if lam.depth < 2:
        return FillsVerdict(UNKNOWN, reason="needs at least two depths")
    hull = minimal_invariant_superset(lam.f, lam.stratum)
    if len(hull) < lam.mg.graph.n_edges:
        witness = subgraph_factor_system(lam.mg, hull)
        if witness.components and witness.is_proper:
            classes = _segment_classes(lam, lam.depth)
            if all(carries(witness, c) for c in classes):
                return FillsVerdict(PROPER, witness=witness,
                                    reason="proper invariant subgraph")
    per_depth = [_segment_classes(lam, k) for k in range(1, lam.depth + 1)]
    return _stabilized_fills(per_depth, lam.mg.rank, cfg)


def laminations_jointly_fill(lams, cfg: Config = DEFAULT) -> FillsVerdict:
    """fills() on the union of all laminations' accumulated closures."""
    if not lams:
        raise InvalidInput("nonempty list of laminations required")
    mg = lams[0].mg
    hull: set[int] = set()
    for lam in lams:
        if lam.mg is not mg:
            raise InvalidInput("laminations live on different graphs")
        hull |= minimal_invariant_superset(lam.f, lam.stratum)
    if len(hull) < mg.graph.n_edges:
        witness = subgraph_factor_system(mg, frozenset(hull))
        if witness.components and witness.is_proper:
            classes = sorted({c for lam in lams
                              for c in _segment_classes(lam, lam.depth)})
            if all(carries(witness, c) for c in classes):
                return FillsVerdict(PROPER, witness=witness,
                                    reason="proper invariant subgraph")
    max_depth = max(lam.depth for lam in lams)
    lists = []
    for k in range(1, max_depth + 1):
        step = sorted({c for lam in lams
                       for c in _segment_classes(lam, min(k, lam.depth))})
        lists.append(step)
    return _stabilized_fills(lists, mg.rank, cfg)


# ---------------------------------------------------------------------------
# Expansion factor estimation


def pf_estimate(g: GraphMap, lam: LaminationApprox,
                depth: int | None = None) -> float:
    """log of the stratum-edge expansion of a deep leaf segment under g."""
    if g.source is not lam.f.source or not g.is_endo():
        raise InvalidInput("map must be an endomorphism of the lamination graph")
    seg = lam.segments[depth if depth is not None else lam.depth]
    before = _stratum_count(lam.stratum, seg)
    if before == 0:
        raise InvalidInput("segment does not cross the stratum")
    after = _stratum_count(lam.stratum, map_path(g, seg))
    if after == 0:
        raise InvalidInput("image does not cross the stratum")
    return math.log(after / before)
