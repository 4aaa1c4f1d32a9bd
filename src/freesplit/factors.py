"""Free factor systems realized as folded core graphs.

A core graph is a connected, folded graph with edges labeled by basis
letters of the ambient free group, immersing into the rose; it stands for
the conjugacy class of the subgroup its loops generate.  Folding is
Stallings' algorithm, and :func:`_fold` is the package's only fold: its
edges carry words through every identification, so :func:`fold` (empty
words) and :func:`freesplit.automorphisms.invert_map` (domain words)
share it.  Carrying and co-edge numbers are computed directly on the
graphs.

The three connectivity routines every graph of the package shares live
here too: :func:`partition` (connected classes: also the strata of a graph
map, as edges each in the other's invariant closure), :func:`tree_loops`
(BFS spanning-tree paths and the basis loops off the tree) and
:func:`natural_arcs` (natural edges: the pair relation's unit and the
arcs candidate classes are enumerated over).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidInput
from .words import (BWD, FWD, _canonical_reduced, invert, is_fwd,
                    reduce_word, reduced_product, slot)


def partition(items, links) -> list[frozenset]:
    """Classes of ``items`` under the equivalence generated by ``links``.

    Each link is an iterable of items that belong to one class.  Classes
    are sorted by their least member, so the result depends neither on the
    order of the links nor on set order.
    """
    root = {x: x for x in items}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for link in links:
        first = None
        for x in link:
            r = find(x)
            if first is None:
                first = r
            elif r != first:
                root[r] = first
    classes: dict = {}
    for x in root:
        classes.setdefault(find(x), set()).add(x)
    return sorted(map(frozenset, classes.values()), key=min)


def tree_loops(edges, root):
    """BFS spanning tree of distinct labelled edges ``(slot, init, term)``.

    Returns ``(paths, loops)``: ``paths`` maps each vertex reached from
    ``root`` to its tree path; ``loops`` maps each reached edge off the
    tree, in the order given, to the reduced loop at ``root`` through it.
    Vertices are visited first in, first out, and each one scans the edges
    in the order given, forward before backward.
    """
    paths = {root: ""}
    queue = [root]
    tree = set()
    for v in queue:
        for e in edges:
            lab, a, b = e
            for ch, x, y in ((FWD[lab], a, b), (BWD[lab], b, a)):
                if x == v and y not in paths:
                    paths[y] = paths[v] + ch
                    tree.add(e)
                    queue.append(y)
    loops = {e: reduce_word(paths[e[1]] + FWD[e[0]] + invert(paths[e[2]]))
             for e in edges if e not in tree and e[1] in paths}
    return paths, loops


def natural_arcs(edges) -> list[tuple[str, object, object]]:
    """Natural edges of a graph of distinct edges ``(slot, init, term)``:
    the maximal paths whose inner vertices have valence 2.

    Returns each as ``(word, start, end)``: its edge letters and its end
    vertices (on a core graph, whose slots are labels, the label word).
    Arcs leave the vertices of valence other than 2 in sorted order, each
    by its edges in the order given, forward before backward.  A circle
    component has no such vertex and gives one closed arc at its least
    vertex.  Every edge lies on exactly one arc, crossed once.
    """
    out: dict = {}  # vertex -> its half-edges (letter, edge, far end)
    for e in edges:
        lab, a, b = e
        out.setdefault(a, []).append((FWD[lab], e, b))
        out.setdefault(b, []).append((BWD[lab], e, a))
    anchors = {v for v, half in out.items() if len(half) != 2}
    used = set()
    arcs = []
    for v in sorted(anchors) + sorted(out.keys() - anchors):
        for ch, e, w in out[v]:
            if e in used:
                continue
            anchors.add(v)  # new only at the least vertex of a circle
            word = ch
            used.add(e)
            while w not in anchors:
                ch, e, w = next(h for h in out[w] if h[1] != e)
                word += ch
                used.add(e)
            arcs.append((word, v, w))
    return arcs


class CoreGraph:
    """Connected folded graph over the rank-n rose basis.

    Edges are (label_slot, init_vertex, term_vertex) with integer vertices.
    Vertices are renumbered 0..V-1 on construction, in the order they
    first occur in the sorted edges, so the numbering depends on the edge
    set alone, not on how it was built.
    """

    def __init__(self, rank: int, edges):
        self.rank = rank
        order: dict[int, int] = {}
        edges = sorted(edges)
        for lab, a, b in edges:
            order.setdefault(a, len(order))
            order.setdefault(b, len(order))
        self.n_vertices = max(len(order), 1)
        self.edges = tuple(sorted((lab, order[a], order[b]) for lab, a, b in edges))
        self._out: dict[tuple[int, str], int] = {}
        for lab, a, b in self.edges:
            if (a, FWD[lab]) in self._out or (b, BWD[lab]) in self._out:
                raise InvalidInput("graph is not folded")
            self._out[(a, FWD[lab])] = b
            self._out[(b, BWD[lab])] = a

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def graph_rank(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def lifts_closed(self, word: str, start: int) -> bool:
        v = start
        for ch in word:
            v = self._out.get((v, ch))
            if v is None:
                return False
        return v == start

    def carries_class(self, cyclic: str) -> bool:
        """True if the cyclic word lifts to a closed loop somewhere."""
        if not cyclic:
            return True
        return any(self.lifts_closed(cyclic, v) for v in range(self.n_vertices))

    @cached_property
    def canonical_key(self) -> str:
        """Canonical string up to basepoint-free isomorphism.

        BFS relabeling from each vertex; the lexicographically least
        serialization wins.  A root is dropped as soon as its serialization
        sorts after the best one so far, so a losing root costs only the
        rows up to its first difference.
        """
        best = None
        for root in range(self.n_vertices):
            sig = self._bfs_signature(root, best)
            if sig is not None:
                best = sig
        return best or ""

    def _bfs_signature(self, root: int, best: str | None) -> str | None:
        """Serialization of the BFS relabeling from ``root``, built row by
        row; None once it is known to sort after ``best``.

        While the rows so far equal the prefix of ``best``, each new row is
        compared with the next slice of ``best``: a greater row means the
        whole key sorts after ``best``, a lesser one that it sorts before,
        so comparing stops.
        """
        number = {root: 0}
        queue = [root]
        pieces = []
        pos = 0  # length of the serialization so far, while it ties best
        for v in queue:  # the queue grows while it is walked
            row = []
            for lab in range(self.rank):
                for ch in (FWD[lab], BWD[lab]):
                    w = self._out.get((v, ch))
                    if w is None:
                        row.append(".")
                        continue
                    if w not in number:
                        number[w] = len(number)
                        queue.append(w)
                    row.append(f"{ch}{number[w]}")
            piece = (";" if pieces else "") + ",".join(row)
            pieces.append(piece)
            if best is not None:
                ahead = best[pos:pos + len(piece)]
                if piece > ahead:
                    return None
                if piece < ahead:
                    best = None
                pos += len(piece)
        return "".join(pieces)

    def basis_words(self) -> list[str]:
        """Words (in ambient letters) of a free basis of the represented
        subgroup, read off a spanning tree at vertex 0."""
        return list(tree_loops(self.edges, 0)[1].values())


def _fold(raw_edges, words) -> dict[tuple[int, int, int], str]:
    """Stallings folding of edges that each carry a reduced word.

    ``words[k]`` is the word of ``raw_edges[k]``: a path reads the product
    of its edges' words, an edge crossed backward reading its word
    inverted.  Returns the folded edges ``(slot, init, term)``, each with
    its word.  Each vertex keeps one edge per out-label (slot, forward); a
    second edge with that label is a pending identification.  Before two
    edges are identified, the larger far end is re-gauged so that both
    carry the same word, and merged into the smaller: re-gauging a vertex
    by g appends g to the words of the edges into it and prepends g^-1 to
    those out of it, which changes no loop through it.  So each vertex is
    named by the least member of its class, and the least vertex is never
    re-gauged: a loop there keeps its word.  Of two edges made parallel,
    one is kept with its word.  Only forced identifications are made, so
    the folded graph does not depend on the order in which they are made.
    """
    # edges[k] = [slot, init, term, word], None once folded away
    edges = [[*e, w] for e, w in zip(raw_edges, words)]
    out: dict[int, dict] = {}  # vertex -> (slot, forward) -> edge
    inc: dict[int, set] = {}  # vertex -> the edges at it
    merged: dict[int, int] = {}  # folded-away edge -> the edge kept for it
    pending = []  # pairs of edges with one label at one vertex

    def attach(v, key, k):
        inc.setdefault(v, set()).add(k)
        held = out.setdefault(v, {}).setdefault(key, k)
        if held != k:
            pending.append((held, k))

    def live(k):
        while k in merged:
            k = merged[k]
        return k

    for k, (lab, a, b, _) in enumerate(edges):
        attach(a, (lab, True), k)
        attach(b, (lab, False), k)
    while pending:
        e, f = map(live, pending.pop())
        if e == f:
            continue
        lab, a1, b1, d1 = edges[e]
        _, a2, b2, d2 = edges[f]
        # far ends x, y and words r1, r2, read from the shared vertex
        if a1 == a2:
            x, y, r1, r2 = b1, b2, d1, d2
        else:
            x, y, r1, r2 = a1, a2, invert(d1), invert(d2)
        if x > y:
            e, f, x, y, r1, r2 = f, e, y, x, r2, r1
        # f goes; e takes over its labels, which are e's own once y is x
        _, a2, b2, _ = edges[f]
        edges[f], merged[f] = None, e
        for v, key in ((a2, (lab, True)), (b2, (lab, False))):
            inc[v].discard(f)
            if out[v][key] == f:
                out[v][key] = e
        if x == y:
            continue
        # re-gauge y by g = r2^-1 r1, under which f would read r2 g = r1
        # (also when y is the shared vertex), and move y's edges onto x
        g = reduced_product(invert(r2), r1)
        gi = invert(g)
        for k in inc.pop(y):
            edge = edges[k]
            if edge[1] == y:
                edge[1], edge[3] = x, reduced_product(gi, edge[3])
            if edge[2] == y:
                edge[2], edge[3] = x, reduced_product(edge[3], g)
            inc[x].add(k)
        for key, k in out.pop(y).items():
            attach(x, key, k)
    return {(lab, a, b): w for lab, a, b, w in filter(None, edges)}


def _trim(edges):
    """Remove valence-1 vertices repeatedly (core graph)."""
    edges = set(edges)
    while True:
        deg: dict[int, int] = {}
        for lab, a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        drop = {v for v, d in deg.items() if d == 1}
        if not drop:
            return edges
        edges = {(lab, a, b) for lab, a, b in edges
                 if a not in drop and b not in drop}


def _wedge(gens) -> list[tuple[int, int, int]]:
    """Edges of the wedge of loops at vertex 0 spelling the given words,
    one edge per letter, in the order of the letters."""
    raw = []
    fresh = 1
    for w in gens:
        prev = 0
        for i, ch in enumerate(w):
            if i == len(w) - 1:
                nxt = 0
            else:
                fresh += 1
                nxt = fresh
            raw.append((slot(ch), prev, nxt) if is_fwd(ch)
                       else (slot(ch), nxt, prev))
            prev = nxt
    return raw


def fold(rank: int, generators) -> CoreGraph:
    """Folded core of the subgroup generated by the given reduced words."""
    gens = [reduce_word(w) for w in generators]
    if any(not w for w in gens):
        raise InvalidInput("trivial generator")
    raw = _wedge(gens)
    edges = _trim(_fold(raw, [""] * len(raw)))
    if not edges:
        raise InvalidInput("generators collapse to the trivial subgroup")
    return CoreGraph(rank, edges)


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FreeFactorSystem:
    """Conjugacy classes of free factors, one core graph per component.

    The free-factor property is trusted from the construction path
    (subgraphs of marked graphs, Whitehead witnesses); it is not re-decided.
    """

    ambient_rank: int
    components: tuple[CoreGraph, ...]

    def __post_init__(self):
        for c in self.components:
            if c.rank != self.ambient_rank:
                raise InvalidInput("component over wrong ambient rank")
            if c.graph_rank < 1:
                raise InvalidInput("trivial component in factor system")

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(c.graph_rank for c in self.components)

    @property
    def is_proper(self) -> bool:
        return not (
            len(self.components) == 1
            and self.components[0].graph_rank == self.ambient_rank
        )

    def canonical_key(self) -> tuple[str, ...]:
        return tuple(sorted(c.canonical_key for c in self.components))

    def __eq__(self, other):
        return (
            isinstance(other, FreeFactorSystem)
            and self.ambient_rank == other.ambient_rank
            and self.canonical_key() == other.canonical_key()
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.canonical_key()))


def ffs_from_generators(rank: int, *component_generators) -> FreeFactorSystem:
    comps = tuple(fold(rank, gens) for gens in component_generators)
    return FreeFactorSystem(rank, _dedupe(comps))


def _dedupe(comps):
    """Components with one per canonical key, sorted by key; a single
    component is returned as it is, without computing its key."""
    if len(comps) == 1:
        return tuple(comps)
    seen = {}
    for c in comps:
        seen.setdefault(c.canonical_key, c)
    return tuple(seen[k] for k in sorted(seen))


def carries(ffs: FreeFactorSystem, cyclic: str) -> bool:
    """True iff some component carries the conjugacy class."""
    return any(c.carries_class(cyclic) for c in ffs.components)


def subgroup_carried(inner: CoreGraph, outer: CoreGraph) -> bool:
    """True iff the subgroup of ``inner`` is conjugate into ``outer``.

    All basis loops of ``inner`` must lift closed from a common vertex.
    """
    loops = inner.basis_words()
    return any(
        all(outer.lifts_closed(w, v) for w in loops)
        for v in range(outer.n_vertices)
    )


def ffs_carried(f1: FreeFactorSystem, f2: FreeFactorSystem) -> bool:
    """The order F1 ⊏ F2 on free factor systems: each component of F1 is
    conjugate into a component of F2."""
    return all(
        any(subgroup_carried(a, b) for b in f2.components) for a in f1.components
    )


def co_edge_number(ffs: FreeFactorSystem) -> int:
    """Co-edge number of a proper system F: the fewest edges outside H of
    a marked graph pair (G, H) whose subgraph H carries F, which is
    (n - sum of ranks) + (number of components - 1).  It is 1 exactly for
    the elliptic system of a one-edge splitting."""
    if not ffs.is_proper:
        raise InvalidInput("co-edge number requires a proper factor system")
    n = ffs.ambient_rank
    return (n - sum(ffs.ranks)) + (len(ffs.components) - 1)


def whole_group(rank: int) -> FreeFactorSystem:
    return ffs_from_generators(rank, [FWD[i] for i in range(rank)])


def enumerate_classes(ffs: FreeFactorSystem, max_len: int, cap: int):
    """Canonical cyclic classes crossing at most max_len natural arcs.

    On rose realizations an arc is a single letter, so this is exactly
    "cyclic words of length <= max_len"; on stretched realizations the
    long generator loops still appear as short arc words.  Deterministic:
    canonical forms deduped, sorted by (arcs crossed, length, word).

    Closed walks grow from every anchor one arc per level, as tuples of
    signed arc ids (arc i crossed backward is -i), so the level at which a
    class first closes is the fewest arcs it crosses.  Once a complete
    level leaves at least ``cap`` classes, every later class sorts after
    all of them, so the deeper levels are never built.

    A walk never turns back along an arc, so in a folded graph it spells a
    reduced word.  A closed one is cut down to its cyclic arc sequence by
    stripping cancelling end arcs; the two end letters of that sequence
    cross different edges, and a folded graph has one edge with a given
    label at a vertex, so they do not cancel and the sequence spells a
    cyclically reduced word: one sequence, one class.  The same sequence
    closes at every anchor it passes, in both directions, so it is spelled
    and canonicalized only the first time, when its rotations and their
    reversals are recorded.  Each closed walk is looked up in one
    orientation only, the one whose first arc id is at most the negated
    last: its reversal closes at the same anchor and level.
    """
    found: dict[str, int] = {}
    frontiers = []  # per anchor: [anchor, arcs by start vertex, open walks]
    spell: dict[int, str] = {}  # arc id -> word; ids run on across components
    seen = set()  # arc sequences spelled, with their rotations and reversals
    for comp in ffs.components:
        out: dict[int, list] = {}
        for word, a, b in natural_arcs(comp.edges):
            i = len(spell) // 2 + 1
            spell[i], spell[-i] = word, invert(word)
            out.setdefault(a, []).append((b, i))
            out.setdefault(b, []).append((a, -i))
        frontiers += [[start, out, [(start, ())]] for start in out]
    for used in range(1, max_len + 1):
        for frontier in frontiers:
            start, out, walks = frontier
            grown = []
            for v, walk in walks:
                last = walk[-1] if walk else 0
                for b, i in out.get(v, ()):
                    if i == -last:
                        continue
                    nxt = walk + (i,)
                    grown.append((b, nxt))
                    if b != start or nxt[0] > -i:
                        continue
                    while len(nxt) > 1 and nxt[0] == -nxt[-1]:
                        nxt = nxt[1:-1]
                    if nxt in seen:
                        continue
                    back = tuple(-j for j in reversed(nxt))
                    for k in range(len(nxt)):
                        seen.add(nxt[k:] + nxt[:k])
                        seen.add(back[k:] + back[:k])
                    cls = _canonical_reduced("".join(map(spell.get, nxt)))
                    if cls not in found:
                        found[cls] = used
            frontier[2] = grown
        if len(found) >= cap:
            break
    return sorted(found, key=lambda w: (found[w], len(w), w))[:cap]
