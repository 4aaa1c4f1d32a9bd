"""Finite approximations of attracting laminations.

A lamination attached to an exponentially growing stratum is approximated
by the tightened iterates of a seed edge.  Filling is certified either by
a proper invariant subgraph carrying the stratum (negative certificate)
or by the Whitehead support of the accumulated closures of the leaf
segments, accepted only when the verdict stabilizes at two consecutive
depths.  Filling is monotone in the class set, so a Fills at one depth
settles the next, larger one without a second Whitehead minimization.
A deep leaf segment also yields the defining segment whose presence the
orbit phase of :mod:`freesplit.wproj` scans for, and the stretch that
:func:`pf_estimate` reads off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .config import DEFAULT, Config
from .errors import InvalidInput
from .factors import carries
from .graphs import (Filtration, GraphMap, MarkedGraph, close_path, map_path,
                     minimal_invariant_superset, strata,
                     subgraph_factor_system)
from .whitehead import (FILLS, MAX_LETTERS, PROPER, UNKNOWN, FillsVerdict,
                        fills)
from .words import FWD, count_crossings, invert

# _stabilized_fills accepts a verdict only when the closures at two
# consecutive depths agree, so a lamination is grown to depth 2 at least
# before it is cut at the length target, and a shallower one is Unknown.
VERDICT_DEPTH = 2


@dataclass(frozen=True)
class LaminationApprox:
    mg: MarkedGraph
    f: GraphMap
    stratum: frozenset[int]
    seed: int
    segments: tuple[str, ...]  # segments[k] = k-fold tightened image of seed
    depth: int

    def deepest(self) -> str:
        return self.segments[-1]

    @cached_property
    def _closures(self) -> dict[int, str]:
        """Depth -> closure class, filled in by :meth:`closure_class`."""
        return {}

    def closure_class(self, k: int) -> str:
        """Basis class of the closed-up segment at depth k, 1 <= k <= depth,
        computed on first use: the stabilization loop seldom reads them all."""
        if k not in self._closures:
            self._closures[k] = self.mg.circuit_to_rose_class(
                close_path(self.mg, self.segments[k]))
        return self._closures[k]


def lamination_approx(mg: MarkedGraph, f: GraphMap, stratum_index: int,
                      cfg: Config = DEFAULT,
                      filtration: Filtration | None = None) -> LaminationApprox:
    """Iterated-seed approximation of the lamination of an EG stratum; of
    depth 0 when no image of the seed fits the caps."""
    filtration = filtration or strata(f)
    st = filtration.strata[stratum_index]
    if st.label != "EG":
        raise InvalidInput(f"stratum {stratum_index} is {st.label}, not EG")
    seed = min(st.slots)
    segs = [FWD[seed]]
    while len(segs) - 1 < cfg.lam_depth_cap:
        if (len(segs[-1]) >= cfg.lam_len_target
                and len(segs) > VERDICT_DEPTH):
            break
        # the unreduced image, the intermediate path the cap bounds
        seg = segs[-1]
        if f.tables.unreduced_length(seg) > cfg.iterate_cap:
            break
        segs.append(map_path(f, seg))
    return LaminationApprox(mg, f, st.slots, seed, tuple(segs), len(segs) - 1)


def lamination_verdicts(mg: MarkedGraph, f: GraphMap, cfg: Config = DEFAULT):
    """Each EG stratum's lamination with its :func:`lamination_fills`
    verdict, bottom up.  A generator: a caller after the first filling
    lamination approximates no stratum above it."""
    filt = strata(f)
    for idx in filt.eg_strata():
        lam = lamination_approx(mg, f, idx, cfg, filt)
        yield lam, lamination_fills(lam)


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
    return deep[start : start + seg_len]


# ---------------------------------------------------------------------------
# Filling certificates


def _stabilized_fills(accumulated_lists, rank: int) -> FillsVerdict:
    """fills() on accumulated class sets; accept two consecutive agreements.

    Filling is monotone: a set that no proper free factor system carries
    has no carried superset.  So after a Fills, the next, larger set is
    read off as Fills without minimizing it, provided it fits the letter
    budget ``MAX_LETTERS`` that would otherwise make fills() say Unknown.
    The sets are nested, so the moves that minimized one set shorten most
    of the next: each descent starts from the last verdict's move log.
    """
    prev: FillsVerdict | None = None
    for classes in accumulated_lists:
        if not classes:
            continue
        if prev is not None and prev.kind == FILLS \
                and sum(map(len, classes)) <= MAX_LETTERS:
            return prev
        cur = fills(sorted(classes), rank,
                    start=prev.move_log if prev is not None else ())
        if prev is not None and cur.kind != UNKNOWN \
                and (prev.kind, prev.witness) == (cur.kind, cur.witness):
            return cur
        prev = cur
    return FillsVerdict(UNKNOWN, reason="verdict did not stabilize")


def lamination_fills(lam: LaminationApprox) -> FillsVerdict:
    """Does the lamination fill?

    Negative certificate first: the smallest invariant subgraph containing
    the stratum carries every leaf, so a proper one settles the question
    exactly.  Otherwise the stabilized Whitehead support of the accumulated
    segment closures decides, or reports Unknown.
    """
    if lam.depth < VERDICT_DEPTH:
        return FillsVerdict(UNKNOWN, reason="needs at least two depths")
    return laminations_jointly_fill([lam])


def _classes_to_depth(lams, depth: int) -> list[str]:
    """Sorted union of the nonempty closure classes at depths 1..depth."""
    return sorted({lam.closure_class(k) for lam in lams
                   for k in range(1, min(depth, lam.depth) + 1)} - {""})


def laminations_jointly_fill(lams) -> FillsVerdict:
    """fills() on the union of all laminations' accumulated closures.

    The negative certificate and the stabilized support are those of
    :func:`lamination_fills`, taken over every lamination at once.
    """
    if not lams:
        raise InvalidInput("nonempty list of laminations required")
    mg = lams[0].mg
    max_depth = max(lam.depth for lam in lams)
    hull: set[int] = set()
    for lam in lams:
        if lam.mg is not mg:
            raise InvalidInput("laminations live on different graphs")
        hull |= minimal_invariant_superset(lam.f, lam.stratum)
    if len(hull) < mg.graph.n_edges:
        witness = subgraph_factor_system(mg, frozenset(hull))
        if witness.components and witness.is_proper:
            if all(carries(witness, c)
                   for c in _classes_to_depth(lams, max_depth)):
                return FillsVerdict(PROPER, witness=witness,
                                    reason="proper invariant subgraph")
    lists = (_classes_to_depth(lams, k) for k in range(1, max_depth + 1))
    return _stabilized_fills(lists, mg.rank)


# ---------------------------------------------------------------------------
# Expansion factor estimation


def pf_estimate(g: GraphMap, lam: LaminationApprox,
                depth: int | None = None) -> float:
    """Log of the expansion factor of g on the lamination: how much g
    stretches the stratum edges of a deep leaf segment.  Acceptance
    criterion 7 checks that it is 0 for the generators of the linear
    example's stabilizer."""
    if g.source is not lam.f.source or not g.is_endo():
        raise InvalidInput("map must be an endomorphism of the lamination graph")
    seg = lam.segments[depth if depth is not None else lam.depth]
    before = sum(count_crossings(seg, s) for s in lam.stratum)
    if before == 0:
        raise InvalidInput("segment does not cross the stratum")
    image = map_path(g, seg)
    after = sum(count_crossings(image, s) for s in lam.stratum)
    if after == 0:
        raise InvalidInput("image does not cross the stratum")
    return math.log(after / before)
