"""Free factor systems realized as folded core graphs.

A core graph is a connected, folded graph with edges labeled by basis
letters of the ambient free group, immersing into the rose; it stands for
the conjugacy class of the subgroup its loops generate.  Folding is
Stallings' algorithm; carrying, meets (fiber products) and co-edge
numbers are computed directly on the graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .automorphisms import apply_map
from .errors import InvalidInput
from .words import (BWD, FWD, canonical_cyclic, invert, is_fwd, reduce_word,
                    slot)


class CoreGraph:
    """Connected folded graph over the rank-n rose basis.

    Edges are (label_slot, init_vertex, term_vertex) with integer vertices.
    Vertices are renumbered 0..V-1 on construction, deterministic in the
    input order.
    """

    def __init__(self, rank: int, edges, keep_vertices=None):
        self.rank = rank
        order: dict[int, int] = {}
        for v in keep_vertices or ():
            order.setdefault(v, len(order))
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

    def step(self, v: int, ch: str) -> int | None:
        return self._out.get((v, ch))

    def lifts_closed(self, word: str, start: int) -> bool:
        v = start
        for ch in word:
            v = self._out.get((v, ch))
            if v is None:
                return False
        return v == start

    def lifts_path(self, word: str, start: int) -> bool:
        v = start
        for ch in word:
            v = self._out.get((v, ch))
            if v is None:
                return False
        return True

    def carries_class(self, cyclic: str) -> bool:
        """True if the cyclic word lifts to a closed loop somewhere."""
        if not cyclic:
            return True
        return any(self.lifts_closed(cyclic, v) for v in range(self.n_vertices))

    def carries_path(self, word: str) -> bool:
        return any(self.lifts_path(word, v) for v in range(self.n_vertices))

    @cached_property
    def canonical_key(self) -> str:
        """Canonical string up to basepoint-free isomorphism.

        BFS relabeling from each vertex; the lexicographically least
        serialization wins.  Quadratic, fine at desk scale.
        """
        best = None
        for root in range(self.n_vertices):
            sig = self._bfs_signature(root)
            if best is None or sig < best:
                best = sig
        return best or ""

    def _bfs_signature(self, root: int) -> str:
        number = {root: 0}
        queue = [root]
        rows = []
        while queue:
            v = queue.pop(0)
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
            rows.append(",".join(row))
        return ";".join(rows)

    def basis_words(self, base: int = 0) -> list[str]:
        """Words (in ambient letters) of a free basis of the represented
        subgroup, read off a spanning tree at ``base``."""
        tree = {base: ""}
        queue = [base]
        tree_edges = set()
        while queue:
            v = queue.pop(0)
            for lab, a, b in self.edges:
                for ch, x, y in ((FWD[lab], a, b), (BWD[lab], b, a)):
                    if x == v and y not in tree:
                        tree[y] = tree[v] + ch
                        tree_edges.add((lab, a, b))
                        queue.append(y)
        out = []
        for lab, a, b in self.edges:
            if (lab, a, b) in tree_edges:
                continue
            out.append(reduce_word(tree[a] + FWD[lab] + invert(tree[b])))
        return out


def _fold(rank: int, raw_edges, base=None):
    """Stallings folding with union-find; returns (edges, root_of_base)."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    edges = set(raw_edges)
    changed = True
    while changed:
        changed = False
        seen: dict[tuple[int, int, bool], int] = {}
        for lab, a, b in sorted(edges):
            ra, rb = find(a), find(b)
            key_out = (ra, lab, True)
            key_in = (rb, lab, False)
            if key_out in seen and seen[key_out] != rb:
                union(seen[key_out], rb)
                changed = True
                break
            if key_in in seen and seen[key_in] != ra:
                union(seen[key_in], ra)
                changed = True
                break
            seen[key_out] = rb
            seen[key_in] = ra
        edges = {(lab, find(a), find(b)) for lab, a, b in edges}
    return edges, (find(base) if base is not None else None)


def _trim(edges, protect=None):
    """Remove valence-1 vertices repeatedly (core graph), keeping ``protect``."""
    edges = set(edges)
    while True:
        deg: dict[int, int] = {}
        for lab, a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        drop = {v for v, d in deg.items() if d == 1 and v != protect}
        if not drop:
            return edges
        edges = {(lab, a, b) for lab, a, b in edges
                 if a not in drop and b not in drop}


def fold(rank: int, generators) -> CoreGraph:
    """Folded core of the subgroup generated by the given reduced words."""
    gens = [reduce_word(w) for w in generators]
    if any(not w for w in gens):
        raise InvalidInput("trivial generator")
    raw = []
    fresh = [1]

    def new_vertex():
        fresh[0] += 1
        return fresh[0]

    for w in gens:
        prev = 0
        for i, ch in enumerate(w):
            nxt = 0 if i == len(w) - 1 else new_vertex()
            if is_fwd(ch):
                raw.append((slot(ch), prev, nxt))
            else:
                raw.append((slot(ch), nxt, prev))
            prev = nxt
    edges, _ = _fold(rank, raw, base=0)
    edges = _trim(edges)
    if not edges:
        raise InvalidInput("generators collapse to the trivial subgroup")
    return CoreGraph(rank, edges)


def folds_to_rose(basis_images, rank: int) -> bool:
    """True iff the given words generate the whole rank-n free group."""
    gens = [reduce_word(w) for w in basis_images]
    if any(not w for w in gens):
        return False
    raw = []
    fresh = [1]
    for w in gens:
        prev = 0
        for i, ch in enumerate(w):
            nxt = 0 if i == len(w) - 1 else fresh[0] + 1
            if i != len(w) - 1:
                fresh[0] += 1
            if is_fwd(ch):
                raw.append((slot(ch), prev, nxt))
            else:
                raw.append((slot(ch), nxt, prev))
            prev = nxt
    edges, root = _fold(rank, raw, base=0)
    edges = _trim(edges, protect=root)
    verts = {v for _, a, b in edges for v in (a, b)}
    return (
        len(edges) == rank
        and verts == {root}
        and {lab for lab, _, _ in edges} == set(range(rank))
    )


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
    seen = {}
    for c in comps:
        seen.setdefault(c.canonical_key, c)
    return tuple(seen[k] for k in sorted(seen))


def carries(ffs: FreeFactorSystem, cyclic: str) -> bool:
    """True iff some component carries the conjugacy class."""
    return any(c.carries_class(cyclic) for c in ffs.components)


def carries_path(ffs: FreeFactorSystem, word: str) -> bool:
    return any(c.carries_path(word) for c in ffs.components)


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
    return all(
        any(subgroup_carried(a, b) for b in f2.components) for a in f1.components
    )


def meet(f1: FreeFactorSystem, f2: FreeFactorSystem) -> FreeFactorSystem:
    """Fiber product of the core immersions; nontrivial components only."""
    if f1.ambient_rank != f2.ambient_rank:
        raise InvalidInput("factor systems over different ranks")
    rank = f1.ambient_rank
    comps = []
    for c1 in f1.components:
        for c2 in f2.components:
            edges = []
            for lab, a, b in c1.edges:
                for lab2, a2, b2 in c2.edges:
                    if lab == lab2:
                        edges.append((lab, a * c2.n_vertices + a2,
                                      b * c2.n_vertices + b2))
            comps.extend(_nontrivial_components(rank, edges))
    return FreeFactorSystem(rank, _dedupe(tuple(comps)))


def _nontrivial_components(rank: int, edges) -> list[CoreGraph]:
    edges = _trim(edges)
    if not edges:
        return []
    adj: dict[int, set[int]] = {}
    for lab, a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    out = []
    remaining = set(adj)
    while remaining:
        seed = min(remaining)
        comp = {seed}
        stack = [seed]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        remaining -= comp
        sub = {(lab, a, b) for lab, a, b in edges if a in comp}
        sub = _trim(sub)
        if sub:
            core = CoreGraph(rank, sub)
            if core.graph_rank >= 1:
                out.append(core)
    return out


def co_edge_number(ffs: FreeFactorSystem) -> int:
    """(n - sum of ranks) + (number of components - 1) for a proper system."""
    if not ffs.is_proper:
        raise InvalidInput("co-edge number requires a proper factor system")
    n = ffs.ambient_rank
    return (n - sum(ffs.ranks)) + (len(ffs.components) - 1)


def whole_group(rank: int) -> FreeFactorSystem:
    return ffs_from_generators(rank, [FWD[i] for i in range(rank)])


def apply_basis_map_to_ffs(bm, ffs: FreeFactorSystem) -> FreeFactorSystem:
    """Image of a factor system under an automorphism given by basis images."""
    comps = []
    for c in ffs.components:
        gens = [apply_map(bm, w) for w in c.basis_words()]
        comps.append(fold(ffs.ambient_rank, gens))
    return FreeFactorSystem(ffs.ambient_rank, _dedupe(tuple(comps)))


def _natural_arcs(comp: CoreGraph):
    """Directed maximal arcs through valence-2 vertices.

    Returns (arcs, branch_vertices); each arc is (word, from, to, arc_id)
    with the reversed arc carrying the negated id.  A circle component
    yields a single closed arc anchored at its least vertex.
    """
    deg = [0] * comp.n_vertices
    for _, a, b in comp.edges:
        deg[a] += 1
        deg[b] += 1
    branch = [v for v in range(comp.n_vertices) if deg[v] != 2]
    anchors = branch if branch else [min(range(comp.n_vertices))]
    anchor_set = set(anchors)
    arcs = []
    seen_starts = set()
    for v in anchors:
        for lab in range(comp.rank):
            for ch in (FWD[lab], BWD[lab]):
                w = comp.step(v, ch)
                if w is None or (v, ch) in seen_starts:
                    continue
                word = ch
                cur = w
                prev_ch = ch
                while cur not in anchor_set:
                    nxt = None
                    for lab2 in range(comp.rank):
                        for ch2 in (FWD[lab2], BWD[lab2]):
                            if ch2 == invert(prev_ch):
                                continue
                            t = comp.step(cur, ch2)
                            if t is not None:
                                nxt = (ch2, t)
                    word += nxt[0]
                    prev_ch = nxt[0]
                    cur = nxt[1]
                seen_starts.add((v, ch))
                seen_starts.add((cur, invert(word[-1])))
                arc_id = len(arcs) + 1
                arcs.append((word, v, cur, arc_id))
    return arcs, anchors


def enumerate_classes(ffs: FreeFactorSystem, max_len: int, cap: int | None = None):
    """Canonical cyclic classes crossing at most max_len natural arcs.

    On rose realizations an arc is a single letter, so this is exactly
    "cyclic words of length <= max_len"; on stretched realizations the
    long generator loops still appear as short arc words.  Deterministic:
    canonical forms deduped, sorted by (length, word).
    """
    found: dict[str, int] = {}
    for comp in ffs.components:
        arcs, anchors = _natural_arcs(comp)
        directed = []
        for word, a, b, i in arcs:
            directed.append((word, a, b, i))
            directed.append((invert(word), b, a, -i))
        for start in anchors:
            stack = [(start, "", 0, 0)]
            while stack:
                v, word, last_id, used = stack.pop()
                if word and v == start:
                    cls = canonical_cyclic(word)
                    if cls and (cls not in found or used < found[cls]):
                        found[cls] = used
                if used >= max_len:
                    continue
                for aw, a, b, i in directed:
                    if a != v or i == -last_id:
                        continue
                    stack.append((b, word + aw, i, used + 1))
    ordered = sorted(found, key=lambda w: (found[w], len(w), w))
    return ordered[:cap] if cap else ordered
