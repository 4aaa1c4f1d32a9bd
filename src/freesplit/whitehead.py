"""Whitehead minimization and the free-factor-support test.

Total cyclic length of a set of conjugacy classes is driven to a local
minimum by Whitehead moves (a local minimum is global for this length
function).  For one multiplier m, the length change of a move is
cap(A, ∁A) - deg(m) in the Whitehead graph, A the letters whose images
end in m: a submodular quadratic in the move's per-letter bits, so one
minimum cut between m and m^-1 minimizes it exactly (Roig, Ventura and
Weil, IJAC 2007).  The graph is built once per step and each flow runs
on a copy of it.  As cap >= 0 the change is at least -deg(m), so a
multiplier with -deg(m) at or above the least change already found is
skipped without a flow.  Minimizers are closed under bitwise AND and OR.
The nodes reachable from m after a max flow are the least minimizer,
below every other one, the move an enumeration of all 4^(n-1) bit
assignments in increasing order keeps first.  Each step takes the first
multiplier x_p reaching the least change, with that cut.  The move
(m^-1, L, R) is (m, ∁L, ∁R) followed by conjugation by m, so it gives
the same cyclic classes and the length change f_{m^-1}(x) = f_m(1 - x):
the multipliers x_p alone reach every length change.  A move maps a
cyclically reduced word by one ``str.translate`` to the letters' images
and one ``replace`` of m m^-1, the only pair that cancels, once per
maximal run of m^{±1}, then a strip of the cyclic ends.  Length changes
do not depend on the rotation or orientation of a word, so the iterates
stay cyclically reduced images, and only the minimum is put in canonical
form.
At the minimum no move shortens the set, and two facts about its
Whitehead graph follow.  (i) Every component is closed under inversion:
were x in a component C without x^-1, the move (C, x) would change the
length by cap(C, ∁C) - deg(x) = -deg(x) < 0.  (ii) No component has a cut
vertex (Whitehead's cut-vertex lemma): were v one, with A = v and a piece
of C - v that misses v^-1, the move (A, v) would change the length by
minus the edges from v into that piece.  So each component is one letter
group, and the set fills iff there is one component on every letter;
otherwise the letter groups, transported back through the inverted move
log, are a proper free factor system, each group filled by its part of
the set.  :func:`fills` is the one reading of the graph, and
:func:`free_factor_support` maps its verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from .automorphisms import BasisMap, compose_maps, identity_map
from .errors import BudgetExhausted, InvalidInput
from .factors import (FreeFactorSystem, _dedupe, carries, fold, partition,
                      whole_group)
from .words import (BWD, FWD, _canonical_reduced, canonical_cyclic,
                    image_table, invert, sort_key, strip_cyclic)

FILLS = "Fills"
PROPER = "ProperFactor"
UNKNOWN = "Unknown"
# letters of a class set to minimize; a move drops one or more, so it caps moves
MAX_LETTERS = 10**4


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

    def to_json(self) -> dict:
        if self.multiplier in FWD:
            tok = f"x{FWD.index(self.multiplier) + 1}"
        else:
            tok = f"x{BWD.index(self.multiplier) + 1}'"
        return {
            "multiplier": tok,
            "left": sorted(f"x{g + 1}" for g in self.left),
            "right": sorted(f"x{g + 1}" for g in self.right),
        }


def _class_images(move: Move, rank: int, words) -> list[str]:
    """Cyclically reduced images of cyclically reduced ``words`` under a
    move, each letter translated to its image at C speed.

    A letter's image ends in m only if it is m or has the right bit, and
    begins with m^-1 only if it is m^-1 or has the left bit, so in the
    translated word each maximal run of m^{±1} reads [m] m^{±k} [m^-1]:
    at most its one pair m m^-1 cancels, and nothing else does.  Inside
    the word one ``replace`` removes those pairs; a run that wraps round
    the ends cancels in :func:`strip_cyclic`.
    """
    m = move.multiplier
    table = str.maketrans(image_table(move.basis_map(rank)))
    mm = m + invert(m)
    return [strip_cyclic(w.translate(table).replace(mm, "")) for w in words]


def _canonical_set(words) -> tuple[str, ...]:
    """Canonical forms of cyclically reduced words, in canonical order."""
    return tuple(sorted(map(_canonical_reduced, words), key=sort_key))


def _whitehead_network(rank: int, classes) -> tuple[list[list[int]],
                                                    list[list[int]]]:
    """Whitehead graph of cyclically reduced classes: the symmetric matrix
    of edge weights over oriented letters, fwd slots then bwd slots, each
    cyclic adjacency u v adding 1 to the edge {u, v^-1}, and each node's
    neighbours.  Node u has degree occ(u) + occ(u^-1): it is an end of one
    edge for each pair starting with u and for each pair ending in u^-1.
    """
    col = {**{FWD[g]: g for g in range(rank)},
           **{BWD[g]: rank + g for g in range(rank)}}
    dim = 2 * rank
    cap = [[0] * dim for _ in range(dim)]
    pairs: Counter = Counter()
    for w in classes:
        pairs.update(zip(w, w[1:] + w[:1]))
    for (a, b), k in pairs.items():
        u, v = col[a], (col[b] + rank) % dim
        cap[u][v] += k
        cap[v][u] += k
    adj = [[v for v in range(dim) if row[v]] for row in cap]
    return cap, adj


def _min_cut(cap, adj, s: int, t: int) -> tuple[int, list[int]]:
    """Edmonds–Karp max flow from node s to node t of a capacity matrix.

    ``cap`` becomes the residual matrix; ``adj`` lists, for each node, the
    nodes joined to it by a nonzero entry in either direction, the only
    pairs whose residual capacity can be nonzero.  Returns the flow value
    and the nodes reachable from s in the residual graph: the source side
    of the least minimum cut, below every other one, whichever maximum
    flow was found.  Each augmenting search stops once it reaches t.
    """
    size = len(cap)
    flow = 0
    while True:
        prev = [-1] * size
        prev[s] = s
        queue = [s]
        for u in queue:
            row = cap[u]
            for v in adj[u]:
                if row[v] and prev[v] < 0:
                    prev[v] = u
                    queue.append(v)
            if prev[t] >= 0:
                break
        if prev[t] < 0:
            return flow, queue
        path = []
        v = t
        while v != s:
            path.append((prev[v], v))
            v = prev[v]
        push = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= push
            cap[v][u] += push
        flow += push


def _best_move(rank: int, classes) -> tuple[int, Move | None]:
    """Most reducing Whitehead move, by one minimum cut per multiplier
    letter m = x_p; (0, None) when none shortens.

    Put the letter u in A when the move's image of u ends in m: m itself,
    g when g has the right bit and g^-1 when g has the left bit, never
    m^-1.  The length change of the move is then

        f_m = cap(A, ∁A) - deg(m)

    in the Whitehead graph (:func:`_whitehead_network`).  Charge each m
    ending an image and each m^-1 starting one to the cyclic adjacency u v
    at whose junction it sits: u v holds one letter when exactly one of u
    and v^-1 is in A, as a pair m m^-1 cancels, and the deg(m) letters
    m^{±1} of the word itself were there before the move.  So a minimum
    cut between m and m^-1, with "bit = 1 iff source side", minimizes it,
    and f_m >= -deg(m): a multiplier with -deg(m) at or above the least
    change found so far cannot beat it and gets no flow.  The move is the
    first x_p, in p order, that reaches the least change, with its least
    cut.  No x_p^-1 move is needed: (m^-1, L, R) is (m, ∁L, ∁R) followed
    by conjugation by m, so it gives the same cyclic classes and
    f_{m^-1}(x) = f_m(1 - x).  The graph is built once, and each flow runs
    on a copy of it.
    """
    cap, adj = _whitehead_network(rank, classes)
    best_delta, best = 0, None
    for p in range(rank):
        deg = sum(cap[p])
        if -deg >= best_delta:
            continue
        flow, low = _min_cut([row[:] for row in cap], adj, p, rank + p)
        if flow - deg < best_delta:
            others = [g for g in range(rank) if g != p]
            best_delta = flow - deg
            best = Move(FWD[p], frozenset(g for g in others if rank + g in low),
                        frozenset(g for g in others if g in low))
    return best_delta, best


def _class_set(classes) -> list[str]:
    """Distinct canonical classes in canonical order; InvalidInput when
    empty or trivial, BudgetExhausted over ``MAX_LETTERS``."""
    cur = sorted({canonical_cyclic(w) for w in classes}, key=sort_key)
    if not cur or any(not w for w in cur):
        raise InvalidInput("nonempty, nontrivial classes required")
    if sum(map(len, cur)) > MAX_LETTERS:
        raise BudgetExhausted("class set exceeds letter budget")
    return cur


def whitehead_minimize(classes, rank: int):
    """Reduce total cyclic length to a global minimum.

    Returns (minimized sorted tuple, total length, move log).  Each move
    shortens the set by at least one letter, so the log is no longer than
    the starting total less the minimum; ``MAX_LETTERS`` caps the starting
    total.  Pair counts, and with them every length change, do not depend
    on the rotation or orientation of a word, and an automorphism cannot
    merge distinct classes; so the iterates are the cyclically reduced
    images, and only the minimum is put in canonical form.
    """
    cur = _class_set(classes)
    log: list[Move] = []
    # ends: each move shortens the total by at least 1, which stays >= 1
    while True:
        _, move = _best_move(rank, cur)
        if move is None:
            break
        cur = _class_images(move, rank, cur)
        log.append(move)
    minimized = _canonical_set(cur) if log else tuple(cur)
    return minimized, sum(len(w) for w in minimized), log


def inverse_log_map(log, rank: int) -> BasisMap:
    """Basis map undoing a move log (original = map(minimized), classwise):
    the inverse moves applied to the basis from the last one back."""
    acc = identity_map(rank)
    for mv in reversed(log):
        acc = compose_maps(mv.inverse().basis_map(rank), acc)
    return acc


# ---------------------------------------------------------------------------
# Whitehead graph analysis


def whitehead_graph(rank: int, classes):
    """Adjacency sets over oriented letters 0..2n-1 (fwd then bwd), and
    the letters with an edge."""
    _, adj = _whitehead_network(rank, classes)
    return [set(a) for a in adj], {u for u in range(2 * rank) if adj[u]}


@dataclass(frozen=True)
class FillsVerdict:
    kind: str  # Fills | ProperFactor | Unknown
    witness: FreeFactorSystem | None = None
    reason: str = ""
    minimized: tuple[str, ...] = ()
    move_log: tuple = ()
    graph_summary: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "reason": self.reason,
            "minimized_total_length": sum(len(w) for w in self.minimized),
            "move_log": [mv.to_json() for mv in self.move_log],
            "graph_summary": dict(self.graph_summary),
            "witness_ranks": list(self.witness.ranks) if self.witness else None,
        }


def fills(classes, rank: int, start=()) -> FillsVerdict:
    """Whitehead criterion: minimize, then read the Whitehead graph.

    Each component of the graph at the minimum is closed under inversion,
    so its forward letters are a letter group.  Fills when one component
    uses every letter; otherwise the letter groups, transported back
    through the inverted move log, are a proper free factor system, which
    is checked to carry the input classes.  Unknown when the input set is
    over the letter budget or that check fails.

    ``start``, a move log (say the minimizer of a smaller set), warm-starts
    the descent: the classes are mapped through its moves and minimized
    from there, and the verdict's log is ``start`` followed by the moves
    made.  When the mapped set is longer than the input, the descent starts
    from the input instead.  Whether a set fills, and its free factor
    support (the least free factor system carrying it, which a ProperFactor
    witness is), do not depend on the basis, so ``start`` changes only the
    verdict's ``minimized`` and ``move_log``.
    """
    try:
        warm = classes
        if start:
            warm = cur = _class_set(classes)
            for mv in start:
                warm = _class_images(mv, rank, warm)
            if sum(map(len, warm)) > sum(map(len, cur)):
                warm, start = cur, ()
        minimized, _, log = whitehead_minimize(warm, rank)
    except BudgetExhausted as exc:
        return FillsVerdict(UNKNOWN, reason=str(exc))
    log = [*start, *log]
    adj, used = whitehead_graph(rank, minimized)
    letter_groups = [sorted(u for u in comp if u < rank)
                     for comp in partition(used, ({u} | adj[u] for u in used))]
    summary = {
        "components": len(letter_groups),
        "letters_used": len(used) // 2,
        "letter_groups": letter_groups,
    }
    verdict = partial(FillsVerdict, minimized=minimized, move_log=tuple(log),
                      graph_summary=summary)
    if letter_groups == [list(range(rank))]:
        return verdict(FILLS)
    back = inverse_log_map(log, rank)
    witness = FreeFactorSystem(rank, _dedupe(tuple(
        fold(rank, [back[g] for g in group]) for group in letter_groups)))
    if not all(carries(witness, canonical_cyclic(w)) for w in classes):
        return verdict(UNKNOWN, reason="witness failed carry check")
    return verdict(PROPER, witness=witness)


def free_factor_support(classes, rank: int):
    """Smallest free factor system carrying all classes, or None (unknown).

    The :func:`fills` verdict read as a support: the whole group on Fills,
    the witness on ProperFactor (each letter group's part of the minimized
    set fills that group's factor, since its part of the graph is a
    component with no cut vertex), None on Unknown.
    """
    verdict = fills(classes, rank)
    return whole_group(rank) if verdict.kind == FILLS else verdict.witness
