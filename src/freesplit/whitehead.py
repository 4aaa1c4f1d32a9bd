"""Whitehead minimization and the free-factor-support test.

Total cyclic length of a set of conjugacy classes is driven to a local
minimum by Whitehead moves (a local minimum is global for this length
function), scored in O(1) per move from the cyclic adjacency counts.
The minimized set fills iff its Whitehead graph is connected on a full
letter set; otherwise the letter partition yields a proper free factor
system, transported back through the inverted move log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .automorphisms import BasisMap, apply_map, compose_maps, identity_map
from .config import DEFAULT, Config
from .errors import BudgetExhausted, InvalidInput
from .factors import (FreeFactorSystem, _dedupe, carries, fold, partition,
                      whole_group)
from .words import BWD, FWD, canonical_cyclic, invert, sort_key

FILLS = "Fills"
PROPER = "ProperFactor"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Move:
    """Whitehead move: multiplier letter m, per-letter bits.

    Letter g with left bit maps to m^-1 g, with right bit to g m, with
    both to m^-1 g m; the multiplier's own letter is fixed.
    """

    multiplier: str
    left: frozenset[int]
    right: frozenset[int]

    def basis_map(self, rank: int) -> BasisMap:
        m = self.multiplier
        mi = invert(m)
        images = []
        for g in range(rank):
            w = FWD[g]
            if FWD[g] != m and BWD[g] != m:
                if g in self.left:
                    w = mi + w
                if g in self.right:
                    w = w + m
            images.append(w)
        return tuple(images)

    def inverse(self) -> "Move":
        return Move(invert(self.multiplier), self.left, self.right)

    def to_json(self, rank: int) -> dict:
        if self.multiplier in FWD:
            tok = f"x{FWD.index(self.multiplier) + 1}"
        else:
            tok = f"x{BWD.index(self.multiplier) + 1}'"
        return {
            "multiplier": tok,
            "left": sorted(f"x{g + 1}" for g in self.left),
            "right": sorted(f"x{g + 1}" for g in self.right),
        }


def apply_move(move: Move, rank: int, cyclic_word: str) -> str:
    return canonical_cyclic(apply_map(move.basis_map(rank), cyclic_word))


def _pair_counts(rank: int, classes) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic adjacency counts P[u][v] and occurrence counts, oriented
    letters indexed fwd slots then bwd slots."""
    dim = 2 * rank
    P = np.zeros((dim, dim), dtype=np.int64)
    occ = np.zeros(dim, dtype=np.int64)

    def col(ch):
        return (FWD.index(ch) if ch in FWD[:rank] else rank + BWD.index(ch))

    for w in classes:
        if not w:
            continue
        idxs = [col(ch) for ch in w]
        for i, u in enumerate(idxs):
            occ[u] += 1
            P[u][idxs[(i + 1) % len(idxs)]] += 1
    return P, occ


_combo_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _combos(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All (left, right) bit assignments over k letters as 0/1 matrices."""
    if k not in _combo_cache:
        n = 4**k
        rows = np.arange(n)
        left = np.zeros((n, k), dtype=np.int64)
        right = np.zeros((n, k), dtype=np.int64)
        for j in range(k):
            digit = (rows // (4**j)) % 4
            left[:, j] = digit % 2
            right[:, j] = digit // 2
        _combo_cache[k] = (left, right)
    return _combo_cache[k]


def _best_move(rank: int, classes) -> tuple[int, Move | None]:
    """Most reducing Whitehead move (first in fixed enumeration order)."""
    P, occ = _pair_counts(rank, classes)
    occ2 = occ[:rank] + occ[rank:]
    best_delta = 0
    best: list[Move] = []
    for p in range(rank):
        others = [g for g in range(rank) if g != p]
        if not others:
            continue
        left, right = _combos(len(others))
        occ_sub = occ2[others]
        lin = left @ occ_sub + right @ occ_sub
        for ch in (FWD[p], BWD[p]):
            dim = 2 * rank
            R = np.zeros((left.shape[0], dim), dtype=np.int64)
            L = np.zeros((left.shape[0], dim), dtype=np.int64)
            for j, g in enumerate(others):
                R[:, g] = right[:, j]
                R[:, rank + g] = left[:, j]
                L[:, g] = left[:, j]
                L[:, rank + g] = right[:, j]
            m_col = p if ch == FWD[p] else rank + p
            mi_col = rank + p if ch == FWD[p] else p
            R[:, m_col] = 1
            L[:, mi_col] = 1
            quad = ((R @ P) * L).sum(axis=1)
            delta = lin - 2 * quad
            i = int(np.argmin(delta))
            d = int(delta[i])
            if d < best_delta:
                best_delta = d
                best = [Move(ch, frozenset(others[j] for j in range(len(others))
                                           if left[i][j]),
                             frozenset(others[j] for j in range(len(others))
                                       if right[i][j]))]
            elif d == best_delta and d < 0:
                best.append(Move(ch, frozenset(others[j] for j in range(len(others))
                                               if left[i][j]),
                                 frozenset(others[j] for j in range(len(others))
                                           if right[i][j])))
    if not best:
        return 0, None
    if len(best) == 1:
        return best_delta, best[0]
    # break ties by the canonical order of the resulting class sets
    scored = []
    for mv in best[:32]:
        result = tuple(sorted((apply_move(mv, rank, w) for w in classes),
                              key=sort_key))
        scored.append((tuple(sort_key(w) for w in result), mv))
    scored.sort(key=lambda t: t[0])
    return best_delta, scored[0][1]


def whitehead_minimize(classes, rank: int, cfg: Config = DEFAULT):
    """Reduce total cyclic length to a global minimum.

    Returns (minimized sorted tuple, total length, move log).
    """
    cur = sorted({canonical_cyclic(w) for w in classes}, key=sort_key)
    if not cur or any(not w for w in cur):
        raise InvalidInput("nonempty, nontrivial classes required")
    if sum(len(w) for w in cur) > cfg.whitehead_max_letters:
        raise BudgetExhausted("class set exceeds letter budget")
    log: list[Move] = []
    for _ in range(cfg.whitehead_max_moves):
        delta, move = _best_move(rank, cur)
        if move is None or delta >= 0:
            return tuple(cur), sum(len(w) for w in cur), log
        cur = sorted({apply_move(move, rank, w) for w in cur}, key=sort_key)
        log.append(move)
    raise BudgetExhausted("Whitehead minimization exceeded move budget")


def replay_move_log(classes, rank: int, log) -> tuple[str, ...]:
    cur = sorted({canonical_cyclic(w) for w in classes}, key=sort_key)
    for mv in log:
        cur = sorted({apply_move(mv, rank, w) for w in cur}, key=sort_key)
    return tuple(cur)


def inverse_log_map(log, rank: int) -> BasisMap:
    """Basis map undoing a move log (original = map(minimized), classwise)."""
    acc = identity_map(rank)
    for mv in log:
        acc = compose_maps(acc, mv.inverse().basis_map(rank))
    return acc


# ---------------------------------------------------------------------------
# Whitehead graph analysis


def whitehead_graph(rank: int, classes):
    """Adjacency sets over oriented letters 0..2n-1 (fwd then bwd)."""
    P, occ = _pair_counts(rank, classes)
    dim = 2 * rank
    adj = [set() for _ in range(dim)]

    def invcol(u):
        return u + rank if u < rank else u - rank

    for u in range(dim):
        for v in range(dim):
            if P[u][v]:
                a, b = u, invcol(v)
                adj[a].add(b)
                adj[b].add(a)
    used = {u for u in range(dim) if occ[u]}
    used |= {invcol(u) for u in used}
    return adj, used


def _has_cut_vertex(adj, verts) -> bool:
    for v in verts:
        rest = verts - {v}
        if len(partition(rest, ({u} | adj[u] - {v} for u in rest))) > 1:
            return True
    return False


@dataclass(frozen=True)
class FillsVerdict:
    kind: str  # Fills | ProperFactor | Unknown
    witness: FreeFactorSystem | None = None
    reason: str = ""
    minimized: tuple[str, ...] = ()
    move_log: tuple = ()
    graph_summary: dict = field(default_factory=dict)

    def to_json(self, rank: int) -> dict:
        return {
            "kind": self.kind,
            "reason": self.reason,
            "minimized_total_length": sum(len(w) for w in self.minimized),
            "move_log": [mv.to_json(rank) for mv in self.move_log],
            "graph_summary": dict(self.graph_summary),
            "witness_ranks": list(self.witness.ranks) if self.witness else None,
        }


@dataclass(frozen=True)
class _Analysis:
    """Shared opening of :func:`fills` and :func:`free_factor_support`.

    ``kind`` is FILLS or UNKNOWN when the Whitehead graph at the minimum
    decides, PROPER when its letter groups split the classes.
    """

    kind: str
    reason: str = ""
    minimized: tuple[str, ...] = ()
    move_log: tuple = ()
    letter_groups: tuple = ()
    summary: dict = field(default_factory=dict)


def _whitehead_analysis(classes, rank: int, cfg: Config) -> _Analysis:
    """Minimize, read the Whitehead graph, apply the all-letters and
    cut-vertex tests."""
    try:
        minimized, _, log = whitehead_minimize(classes, rank, cfg)
    except BudgetExhausted as exc:
        return _Analysis(UNKNOWN, reason=str(exc))
    adj, used = whitehead_graph(rank, minimized)
    comps = partition(used, ({u} | adj[u] for u in used))
    # components sharing a letter, in either orientation, merge
    letters = {u % rank for u in used}
    letter_groups = partition(letters, ({u % rank for u in c} for c in comps))
    summary = {
        "components": len(comps),
        "letters_used": len(letters),
        "letter_groups": [sorted(g) for g in letter_groups],
    }
    kind, reason = PROPER, ""
    if len(letters) == rank and len(comps) == 1:
        if _has_cut_vertex(adj, used):
            kind, reason = UNKNOWN, "cut vertex at minimum"
        else:
            kind = FILLS
    elif len(letters) == rank and len(letter_groups) == 1:
        kind, reason = UNKNOWN, "crossed disconnection at minimum"
    return _Analysis(kind, reason, minimized, tuple(log),
                     tuple(letter_groups), summary)


def fills(classes, rank: int, cfg: Config = DEFAULT) -> FillsVerdict:
    """Whitehead criterion: minimize, then read the Whitehead graph."""
    a = _whitehead_analysis(classes, rank, cfg)
    if a.kind != PROPER:
        return FillsVerdict(a.kind, reason=a.reason, minimized=a.minimized,
                            move_log=a.move_log, graph_summary=a.summary)
    back = inverse_log_map(a.move_log, rank)
    comps_out = []
    for group in a.letter_groups:
        gens = [apply_map(back, FWD[g]) for g in sorted(group)]
        comps_out.append(fold(rank, gens))
    witness = FreeFactorSystem(rank, _dedupe(tuple(comps_out)))
    for w in classes:
        if not carries(witness, canonical_cyclic(w)):
            return FillsVerdict(UNKNOWN, reason="witness failed carry check",
                                minimized=a.minimized, move_log=a.move_log,
                                graph_summary=a.summary)
    return FillsVerdict(PROPER, witness=witness, minimized=a.minimized,
                        move_log=a.move_log, graph_summary=a.summary)


def free_factor_support(classes, rank: int, cfg: Config = DEFAULT):
    """Smallest free factor system carrying all classes, or None (unknown)."""
    a = _whitehead_analysis(classes, rank, cfg)
    if a.kind == FILLS:
        return whole_group(rank)
    if a.kind == UNKNOWN:
        return None
    letter_groups = a.letter_groups
    back = inverse_log_map(a.move_log, rank)
    group_of = {}
    for i, group in enumerate(letter_groups):
        for g in group:
            group_of[g] = i
    buckets: list[list[str]] = [[] for _ in letter_groups]
    for w in a.minimized:
        gs = {FWD.index(ch) if ch in FWD[:rank] else BWD.index(ch) for ch in w}
        owners = {group_of[g] for g in gs}
        if len(owners) != 1:
            return None
        buckets[owners.pop()].append(w)
    comps_out = []
    for group, bucket in zip(letter_groups, buckets):
        if not bucket:
            continue
        sub_rank = len(group)
        ordered = sorted(group)
        down = str.maketrans(
            {**{FWD[g]: FWD[i] for i, g in enumerate(ordered)},
             **{BWD[g]: BWD[i] for i, g in enumerate(ordered)}})
        up = str.maketrans(
            {**{FWD[i]: FWD[g] for i, g in enumerate(ordered)},
             **{BWD[i]: BWD[g] for i, g in enumerate(ordered)}})
        sub = free_factor_support([w.translate(down) for w in bucket],
                                  sub_rank, cfg)
        if sub is None:
            return None
        for comp in sub.components:
            gens = [apply_map(back, bw.translate(up)) for bw in comp.basis_words()]
            comps_out.append(fold(rank, gens))
    if not comps_out:
        return None
    return FreeFactorSystem(rank, _dedupe(tuple(comps_out)))
