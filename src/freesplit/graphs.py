"""Marked graphs, graph maps, path images, strata, transition matrices.

Edges of a graph are totally ordered by name; oriented edges are single
characters of the internal alphabet (slot = rank of the edge name), so
edge paths are strings and the word machinery of :mod:`words` applies
directly.  A marking is a homotopy equivalence from the rank-n rose,
stored as basis-letter loops; its homotopy-inverse edge assignment over
the abstract basis alphabet is computed from them on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import words
from .automorphisms import (BasisMap, MapTables, apply_map, identity_map,
                            invert_map, outer_equal)
from .errors import InvalidInput, NumericalTolerance
from .factors import (FreeFactorSystem, _dedupe, fold, natural_arcs,
                      partition, tree_loops)
from .words import BWD, FWD, invert, is_fwd, reduce_word, slot


class Graph:
    """Finite graph with named, totally ordered edges."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(vertices))
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInput("duplicate vertex names")
        edges = sorted(edges)
        names = [e[0] for e in edges]
        if len(set(names)) != len(names):
            raise InvalidInput("duplicate edge names")
        if len(names) > words.MAX_SLOTS:
            raise InvalidInput(f"too many edges (max {words.MAX_SLOTS})")
        vset = set(self.vertices)
        for name, a, b in edges:
            if a not in vset or b not in vset:
                raise InvalidInput(f"edge {name} has unknown endpoint")
            if "'" in name or any(c.isspace() for c in name):
                raise InvalidInput(f"bad edge name {name!r}")
        self.edge_names = tuple(names)
        self._init = tuple(e[1] for e in edges)
        self._term = tuple(e[2] for e in edges)
        self.slot_of = {n: i for i, n in enumerate(names)}
        # Each oriented letter to a one-character code of its initial or
        # terminal vertex, for :meth:`path_valid`.  At most 2 * MAX_SLOTS
        # vertices touch an edge, so the codes are ASCII, which
        # ``str.translate`` maps fastest.
        letters = FWD[:len(names)] + BWD[:len(names)]
        code = {v: chr(i) for i, v in
                enumerate(sorted({*self._init, *self._term}))}
        self._letters = frozenset(letters)
        self._init_code = str.maketrans(
            letters, "".join(code[v] for v in self._init + self._term))
        self._term_code = str.maketrans(
            letters, "".join(code[v] for v in self._term + self._init))

    @property
    def n_edges(self) -> int:
        return len(self.edge_names)

    def init_of(self, ch: str) -> str:
        s = slot(ch)
        return self._init[s] if is_fwd(ch) else self._term[s]

    def term_of(self, ch: str) -> str:
        s = slot(ch)
        return self._term[s] if is_fwd(ch) else self._init[s]

    def path_valid(self, word: str) -> bool:
        """Every letter is an oriented edge of the graph, and each ends
        where the next begins: the terminal vertices of all letters but the
        last, as codes, equal the initial vertices of all but the first."""
        return (self._letters.issuperset(word)
                and word[:-1].translate(self._term_code)
                == word[1:].translate(self._init_code))

    def check_path(self, word: str) -> str:
        if not self.path_valid(word):
            raise InvalidInput("edge sequence is not endpoint-compatible")
        return word

    def is_closed(self, word: str) -> bool:
        return not word or self.init_of(word[0]) == self.term_of(word[-1])

    def valence(self, v: str) -> int:
        return sum((a == v) + (b == v) for a, b in zip(self._init, self._term))

    def parse_path(self, tokens) -> str:
        if isinstance(tokens, str):
            tokens = tokens.split()
        return self.check_path(words.parse_word(tokens, self.slot_of))

    def print_path(self, word: str) -> str:
        return words.print_word(word, list(self.edge_names))

    def edges_of(self, slots) -> list[tuple[int, str, str]]:
        """``(slot, init, term)`` of each slot, as :func:`tree_loops` takes."""
        return [(s, self._init[s], self._term[s]) for s in slots]

    def _incident(self, slots) -> dict[str, list[int]]:
        """Vertex -> the slots touching it, a loop listed twice (valence)."""
        at: dict[str, list[int]] = {}
        for s in slots:
            at.setdefault(self._init[s], []).append(s)
            at.setdefault(self._term[s], []).append(s)
        return at

    @cached_property
    def natural_paths(self) -> dict[frozenset[int], str]:
        """The edge path of each natural edge (:func:`natural_arcs`; a
        circle component is one), keyed by its slots, in the order of
        their least slots."""
        arcs = natural_arcs(self.edges_of(range(self.n_edges)))
        return dict(sorted(((frozenset(map(slot, w)), w) for w, _, _ in arcs),
                           key=lambda kw: min(kw[0])))

    @cached_property
    def natural_classes(self) -> tuple[frozenset[int], ...]:
        """Partition of edge slots into natural edges."""
        return tuple(self.natural_paths)

    def natural_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.valence(v) != 2)

    def subgraph_components(self, slots) -> list[frozenset[int]]:
        """Connected components of the subgraph spanned by ``slots``."""
        slots = set(slots)
        return partition(slots, self._incident(slots).values())

    def component_has_cycle(self, comp_slots) -> bool:
        verts = set()
        for s in comp_slots:
            verts.add(self._init[s])
            verts.add(self._term[s])
        return len(comp_slots) >= len(verts)  # E >= V means a cycle


def rose(rank: int, names=None) -> Graph:
    if names is None:
        names = [f"x{i + 1}" for i in range(rank)]
    return Graph(["v"], [(n, "v", "v") for n in names])


# ---------------------------------------------------------------------------


class MarkedGraph:
    """Graph plus a marking from the rank-n rose.

    ``marking[i]`` is the image loop (at ``base``) of basis letter i;
    ``marking_inv[s]`` is an abstract basis word for edge slot s, chosen so
    that marking_inv after marking induces an inner automorphism.  It is
    computed on first use, for remarked graphs as for any other.  Both are
    :class:`MapTables` without a block memo, which :meth:`rose_to_path` and
    :meth:`path_to_rose` apply.
    """

    def __init__(self, graph: Graph, base: str, marking):
        self.graph = graph
        self.base = base
        self.marking = MapTables(marking, memo=False)
        self.rank = len(self.marking)
        for v in graph.vertices:
            if graph.valence(v) < 2:
                raise InvalidInput(f"vertex {v} has valence < 2")
        for w in self.marking:
            graph.check_path(w)
            if w and not (graph.init_of(w[0]) == base == graph.term_of(w[-1])):
                raise InvalidInput("marking images must be loops at the base")
        euler_rank = graph.n_edges - len(graph.vertices) + 1
        if euler_rank != self.rank:
            raise InvalidInput("marking rank does not match graph rank")

    @cached_property
    def tree(self) -> tuple[dict[str, str], dict]:
        """:func:`tree_loops` of the whole graph at the base."""
        g = self.graph
        paths, loops = tree_loops(g.edges_of(range(g.n_edges)), self.base)
        if len(paths) != len(g.vertices):
            raise InvalidInput("graph is not connected")
        return paths, loops

    @cached_property
    def _loop_table(self) -> dict[int, str | None]:
        """``str.translate`` table of :meth:`loop_word`: each cotree edge
        letter to its loop letter, every other letter deleted."""
        table: dict[int, str | None] = dict.fromkeys(map(ord, FWD + BWD))
        for i, (s, _, _) in enumerate(self.tree[1]):
            table[ord(FWD[s])] = FWD[i]
            table[ord(BWD[s])] = BWD[i]
        return table

    def loop_word(self, path: str) -> str:
        """A loop as a reduced word in the cotree loops: letter i is the
        i-th edge off the spanning tree; tree edges read as nothing.  A loop
        at another vertex reads as its conjugate along the tree path."""
        return reduce_word(path.translate(self._loop_table))

    @cached_property
    def loop_marking(self) -> BasisMap:
        """The marking read in the cotree loops."""
        return tuple(map(self.loop_word, self.marking))

    @cached_property
    def loop_marking_inv(self) -> BasisMap:
        """Inverse of :attr:`loop_marking`, computed once, on first use."""
        return invert_map(self.loop_marking)

    @cached_property
    def marking_inv(self) -> MapTables:
        """Edge words over the abstract basis: the inverse of the marking
        read in the cotree loops, on cotree edges; empty on tree edges."""
        rho_hat_inv = self.loop_marking_inv
        inv = [""] * self.graph.n_edges
        for i, (s, _, _) in enumerate(self.tree[1]):
            inv[s] = rho_hat_inv[i]
        return MapTables(inv, memo=False)

    def path_to_rose(self, path: str) -> str:
        """Abstract basis word of a path, via the stored marking inverse."""
        return apply_map(self.marking_inv, path)

    def rose_to_path(self, word: str) -> str:
        return apply_map(self.marking, word)

    def circuit_to_rose_class(self, circuit: str) -> str:
        # path_to_rose reduces over reduced images (those of invert_map)
        return words._canonical_reduced(
            words.strip_cyclic(self.path_to_rose(circuit)))

    def validate_marking(self) -> bool:
        comp = tuple(self.path_to_rose(w) for w in self.marking)
        verdict, _ = outer_equal(comp, identity_map(self.rank))
        return verdict == "Equal"

    def remark(self, f: "GraphMap") -> "MarkedGraph":
        """New marked graph with marking precomposed with ``f``.

        Its marking inverse is computed from the new marking on first use,
        as for any marked graph; most remarked graphs (e.g. pair-relation
        targets, which are read in their own loops) never need it.
        """
        if f.source is not self.graph or f.target is not self.graph:
            raise InvalidInput("remarking requires an endomorphism of the graph")
        new_marking = tuple(map_path(f, w) for w in self.marking)
        return MarkedGraph(self.graph, f.vertex_map[self.base], new_marking)

    def induced_rose_map(self, f: "GraphMap") -> BasisMap:
        """Basis map of the outer automorphism represented by ``f``."""
        if f.source is not self.graph or f.target is not self.graph:
            raise InvalidInput("induced map requires an endomorphism")
        return tuple(self.path_to_rose(map_path(f, w)) for w in self.marking)


def subgraph_factor_system(mg: MarkedGraph, edge_slots):
    """Free factor system of the noncontractible components of a subgraph,
    transported to the abstract basis through the marking."""
    g = mg.graph
    comps = []
    for comp in g.subgraph_components(edge_slots):
        if not g.component_has_cycle(comp):
            continue
        edges = g.edges_of(sorted(comp))
        _, loops = tree_loops(edges, min(v for _, a, b in edges for v in (a, b)))
        gens = [mg.path_to_rose(w) for w in loops.values()]
        gens = [w for w in gens if w]
        if gens:
            comps.append(fold(mg.rank, gens))
    return FreeFactorSystem(mg.rank, _dedupe(tuple(comps)))


def close_path(mg: MarkedGraph, path: str) -> str:
    """Close a path into a circuit along spanning-tree arcs."""
    g = mg.graph
    if g.is_closed(path):
        return path
    tree = mg.tree[0]
    back = invert(tree[g.term_of(path[-1])]) + tree[g.init_of(path[0])]
    return reduce_word(path + back)


def realize_rose_endo(mg: MarkedGraph, bm: BasisMap) -> GraphMap:
    """Graph self-map inducing the given outer automorphism.

    All vertices go to the marking base; edges map to marking realizations
    of their basis expressions.
    """
    g = mg.graph
    bm = MapTables(bm)
    images = tuple(mg.rose_to_path(apply_map(bm, w)) for w in mg.marking_inv)
    vmap = {v: mg.base for v in g.vertices}
    return GraphMap(g, g, vmap, images)


def marked_rose(rank: int, names=None) -> MarkedGraph:
    names = list(names) if names else [f"x{i + 1}" for i in range(rank)]
    g = rose(rank, names)
    return MarkedGraph(g, "v", [FWD[g.slot_of[n]] for n in names])


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphMap:
    """Homotopy equivalence given by vertex images and edge-path images.

    ``tables`` is the :class:`MapTables` of the edge images, without a
    block memo, which :func:`map_path` applies.
    """

    source: Graph
    target: Graph
    vertex_map: dict
    edge_images: tuple[str, ...]  # image of each forward slot, reduced

    def __post_init__(self):
        if len(self.edge_images) != self.source.n_edges:
            raise InvalidInput("one image per edge required")
        for v in self.source.vertices:
            if self.vertex_map.get(v) not in self.target.vertices:
                raise InvalidInput(f"vertex {v} has no valid image")
        tables = MapTables(self.edge_images, memo=False)
        if tables != self.edge_images:
            raise InvalidInput("edge images must be reduced")
        for s, img in enumerate(self.edge_images):
            self.target.check_path(img)
            a = self.vertex_map[self.source._init[s]]
            b = self.vertex_map[self.source._term[s]]
            if img:
                if self.target.init_of(img[0]) != a or self.target.term_of(img[-1]) != b:
                    raise InvalidInput(
                        f"image of edge {self.source.edge_names[s]} has wrong endpoints")
            elif a != b:
                raise InvalidInput(
                    f"trivial image of edge {self.source.edge_names[s]} "
                    "needs equal vertex images")
        object.__setattr__(self, "tables", tables)

    def is_endo(self) -> bool:
        return self.source is self.target


def identity_graph_map(g: Graph) -> GraphMap:
    return GraphMap(g, g, {v: v for v in g.vertices},
                    tuple(FWD[s] for s in range(g.n_edges)))


def graph_map(source: Graph, target: Graph, vertex_map, images_by_name) -> GraphMap:
    imgs = []
    for name in source.edge_names:
        spec = images_by_name[name]
        word = target.parse_path(spec) if isinstance(spec, (str, list)) else spec
        imgs.append(reduce_word(word))
    return GraphMap(source, target, dict(vertex_map), tuple(imgs))


def rose_map(mg: MarkedGraph, images_by_name) -> GraphMap:
    """Endomorphism of a rose-like graph, images given as token strings."""
    g = mg.graph
    return graph_map(g, g, {v: v for v in g.vertices}, images_by_name)


# ---------------------------------------------------------------------------
# Path calculus


def map_path(f: GraphMap, path: str) -> str:
    """Tightened image of a path (the # operation)."""
    return apply_map(f.tables, f.source.check_path(path))


def compose(f: GraphMap, g: GraphMap) -> GraphMap:
    """Composition f after g."""
    if g.target is not f.source:
        raise InvalidInput("target of inner map must be source of outer map")
    vmap = {v: f.vertex_map[g.vertex_map[v]] for v in g.source.vertices}
    images = tuple(map_path(f, w) for w in g.edge_images)
    return GraphMap(g.source, f.target, vmap, images)


def is_nielsen(f: GraphMap, path: str) -> bool:
    """Nielsen path test: the tightened image of ``path`` is ``path``,
    endpoints fixed.  Acceptance criterion 7 checks that the linear
    example's generators fix its loops."""
    if not f.is_endo():
        raise InvalidInput("Nielsen check requires an endomorphism")
    path = reduce_word(path)
    f.source.check_path(path)
    if path:
        a, b = f.source.init_of(path[0]), f.source.term_of(path[-1])
        if f.vertex_map[a] != a or f.vertex_map[b] != b:
            raise InvalidInput("endpoints of the path are not fixed")
    return map_path(f, path) == path


def restricted_map(f: GraphMap, support) -> GraphMap:
    """Endomorphism agreeing with f on ``support`` edges, identity elsewhere."""
    g = f.source
    return GraphMap(g, g, dict(f.vertex_map), tuple(
        f.edge_images[s] if s in support else FWD[s] for s in range(g.n_edges)))


def is_invariant_subgraph(f: GraphMap, edge_slots) -> bool:
    keep = set(edge_slots)
    for s in keep:
        if any(slot(ch) not in keep for ch in f.edge_images[s]):
            return False
    return True


# ---------------------------------------------------------------------------
# Transition matrices, strata


@dataclass(frozen=True)
class TransitionMatrix:
    edge_names: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]  # [e][e'] = crossings of e by image of e'

    def block(self, slots) -> "TransitionMatrix":
        slots = sorted(slots)
        names = tuple(self.edge_names[s] for s in slots)
        m = tuple(tuple(self.matrix[i][j] for j in slots) for i in slots)
        return TransitionMatrix(names, m)


def transition_matrix(f: GraphMap) -> TransitionMatrix:
    if not f.is_endo():
        raise InvalidInput("transition matrix requires an endomorphism")
    n = f.source.n_edges
    cols = [[words.count_crossings(f.edge_images[j], i) for i in range(n)]
            for j in range(n)]
    return TransitionMatrix(
        f.source.edge_names,
        tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)),
    )


# Collatz-Wielandt gap at which pf_eigenvalue stops: two orders below the
# 1e-9 its callers compare the Perron root to.
PF_TOLERANCE = 1e-11


def pf_eigenvalue(tm: TransitionMatrix, *, iter_cap: int = 10**5) -> float:
    """Perron root of an irreducible nonnegative integer block.

    Power iteration on M + I with Collatz-Wielandt bounds; the shift makes
    the iteration primitive so permutation blocks converge too.  The
    reference that :func:`strata`'s exact count is tested against.
    """
    m = tm.matrix
    n = len(m)
    if n == 0:
        raise InvalidInput("empty block")
    if n == 1:
        return float(m[0][0])
    v = [1.0] * n
    for _ in range(iter_cap):
        w = [sum(m[i][j] * v[j] for j in range(n)) + v[i] for i in range(n)]
        ratios = [w[i] / v[i] for i in range(n)]
        lo, hi = min(ratios), max(ratios)
        scale = max(w)
        v = [x / scale for x in w]
        if hi - lo <= PF_TOLERANCE:
            return (lo + hi) / 2.0 - 1.0
    raise NumericalTolerance("power iteration did not converge")


@dataclass(frozen=True)
class Stratum:
    slots: frozenset[int]
    label: str  # EG | NEG | FIXED | ZERO


@dataclass(frozen=True)
class Filtration:
    graph: Graph
    strata: tuple[Stratum, ...]

    def eg_strata(self):
        return [i for i, st in enumerate(self.strata) if st.label == "EG"]


def strata(f: GraphMap) -> Filtration:
    """Invariant filtration, with growth labels counted from the images.

    Two edges share a stratum when each lies in the other's invariant
    closure (:func:`minimal_invariant_superset`); :func:`partition` groups
    them.  The strata are placed bottom up: each time, the one with the
    least slot whose closure lies in the strata already placed plus itself.

    So each stratum's transition block is irreducible, and an irreducible
    nonnegative integer block has Perron root above 1 exactly when it is
    not a permutation matrix: when the images of the stratum's edges cross
    the stratum more times than it has edges.  That count labels the
    stratum EG, ZERO (a single edge not crossing itself), or else FIXED
    (every edge its own image) or NEG.
    """
    if not f.is_endo():
        raise InvalidInput("strata requires an endomorphism")
    n = f.source.n_edges
    reach = [minimal_invariant_superset(f, (e,)) for e in range(n)]
    comps = partition(range(n), ({d for d in reach[e] if e in reach[d]}
                                 for e in range(n)))
    placed: set[int] = set()
    out = []
    while comps:
        nxt = next(c for c in comps
                   if all(reach[e] <= placed | c for e in c))
        comps.remove(nxt)
        placed |= nxt
        crossings = sum(words.count_crossings(f.edge_images[s], t)
                        for s in nxt for t in nxt)
        if crossings == 0:
            label = "ZERO"
        elif crossings > len(nxt):
            label = "EG"
        elif all(f.edge_images[s] == FWD[s] for s in nxt):
            label = "FIXED"
        else:
            label = "NEG"
        out.append(Stratum(nxt, label))
    # Pointwise-fixed strata commute with the filtration, so runs of FIXED
    # strata are lumped into one.
    merged: list[Stratum] = []
    for st in out:
        if merged and st.label == "FIXED" and merged[-1].label == "FIXED":
            merged[-1] = Stratum(merged[-1].slots | st.slots, "FIXED")
        else:
            merged.append(st)
    return Filtration(f.source, tuple(merged))


def minimal_invariant_superset(f: GraphMap, edge_slots) -> frozenset[int]:
    """Smallest f-invariant edge set containing ``edge_slots``."""
    got = set(edge_slots)
    frontier = list(got)
    while frontier:
        s = frontier.pop()
        for ch in set(f.edge_images[s]):
            t = slot(ch)
            if t not in got:
                got.add(t)
                frontier.append(t)
    return frozenset(got)


# ---------------------------------------------------------------------------
# Text serialization


def print_marked_graph(mg: MarkedGraph, endo: GraphMap | None = None,
                       h_slots=None) -> str:
    g = mg.graph
    lines = ["VERTICES"]
    lines.extend(g.vertices)
    lines.append("EDGES")
    for s, name in enumerate(g.edge_names):
        lines.append(f"{name} {g._init[s]} {g._term[s]}")
    lines.append("MARKING")
    for i, w in enumerate(mg.marking):
        tok = g.print_path(w)
        lines.append(f"x{i + 1} {tok}".rstrip())
    if endo is not None:
        lines.append("MAP")
        for s, name in enumerate(g.edge_names):
            tok = g.print_path(endo.edge_images[s])
            lines.append(f"{name} {tok}".rstrip())
    if h_slots is not None:
        lines.append("H")
        for s in sorted(h_slots):
            lines.append(g.edge_names[s])
    return "\n".join(lines) + "\n"


_SECTIONS = ("VERTICES", "EDGES", "MARKING", "MAP", "H")


def parse_marked_graph(text: str):
    """Parse the text format; returns (MarkedGraph, GraphMap|None, h_slots|None)."""
    section = None
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    marking_rows: list[tuple[str, list[str]]] = []
    map_rows: list[tuple[str, list[str]]] = []
    h_names: list[str] = []
    saw = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in _SECTIONS:
            section = line
            saw.add(line)
            continue
        toks = line.split()
        if section in ("VERTICES", "H"):
            if len(toks) != 1:
                raise InvalidInput(f"one name per {section} line: {line!r}")
            (vertices if section == "VERTICES" else h_names).append(toks[0])
        elif section == "EDGES":
            if len(toks) != 3:
                raise InvalidInput(f"bad edge line: {line!r}")
            edges.append((toks[0], toks[1], toks[2]))
        elif section == "MARKING":
            marking_rows.append((toks[0], toks[1:]))
        elif section == "MAP":
            map_rows.append((toks[0], toks[1:]))
        else:
            raise InvalidInput(f"content before any section: {line!r}")
    if "VERTICES" not in saw or "EDGES" not in saw or "MARKING" not in saw:
        raise InvalidInput("missing required section")
    graph = Graph(vertices, edges)
    if not marking_rows:
        raise InvalidInput("MARKING section has no rows")
    marking = [None] * len(marking_rows)
    for key, toks in marking_rows:
        idx = int(key[1:]) - 1 if key[1:].isdecimal() and key[0] == "x" else -1
        if not 0 <= idx < len(marking) or marking[idx] is not None:
            raise InvalidInput(f"bad basis letter {key!r}: the MARKING rows "
                               f"must name x1..x{len(marking)} once each")
        if not toks:
            raise InvalidInput("marking images must be nonempty")
        marking[idx] = graph.parse_path(toks)
    base = graph.init_of(marking[0][0])
    mg = MarkedGraph(graph, base, marking)
    endo = None
    if "MAP" in saw:
        images = {}
        for key, toks in map_rows:
            if key not in graph.slot_of or key in images:
                raise InvalidInput(f"MAP row for unknown or repeated edge {key!r}")
            images[key] = graph.parse_path(toks) if toks else ""
        for name in graph.edge_names:
            if name not in images:
                raise InvalidInput(f"MAP section missing edge {name}")
        vmap = {}
        for s, name in enumerate(graph.edge_names):
            img = images[name]
            a, b = graph._init[s], graph._term[s]
            if img:
                vmap.setdefault(a, graph.init_of(img[0]))
                vmap.setdefault(b, graph.term_of(img[-1]))
        for v in graph.vertices:
            vmap.setdefault(v, v)
        endo = GraphMap(graph, graph, vmap,
                        tuple(images[n] for n in graph.edge_names))
    h_slots = None
    if "H" in saw:
        if not set(h_names) <= set(graph.slot_of):
            raise InvalidInput("H section names an unknown edge")
        h_slots = frozenset(graph.slot_of[n] for n in h_names)
    return mg, endo, h_slots
