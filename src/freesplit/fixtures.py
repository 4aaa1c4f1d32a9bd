"""Catalog of explicit examples, validated on load.

Every fixture re-verifies its declared structure (strata labels, subgraph
invariance, filling of the chosen base word, commutation claims) and
raises FixtureInvalid on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automorphisms import abelianization, invert_map
from .errors import FixtureInvalid, InvalidInput
from .graphs import (GraphMap, MarkedGraph, compose, is_invariant_subgraph,
                     map_path, marked_rose, restricted_map, rose_map, strata)
from .whitehead import FILLS, fills
from .words import BWD, FWD, invert, reduce_word, slot


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    mg: MarkedGraph
    maps: dict[str, GraphMap]
    expected: str | None
    params: dict = field(default_factory=dict)
    decomposition: dict | None = None  # K1, K2, J2, J3 -> frozenset of slots
    notes: str = ""

    @property
    def f(self) -> GraphMap:
        return self.maps["f"]


def _require(cond: bool, message: str):
    if not cond:
        raise FixtureInvalid(message)


def _g1_names(m: int) -> list[str]:
    return ["X", "Y", "Z"] if m == 3 else [f"X{i + 1}" for i in range(m)]


def _sigma_default(names: list[str]) -> str:
    return " ".join(f"{n} {n}" for n in names)


def _check_sigma_fills(mg: MarkedGraph, g1_names: list[str], sigma_path: str):
    """The base word must fill the invariant rose it lives in."""
    g = mg.graph
    g1_slots = sorted(g.slot_of[n] for n in g1_names)
    down = str.maketrans(
        {**{FWD[s]: FWD[i] for i, s in enumerate(g1_slots)},
         **{BWD[s]: BWD[i] for i, s in enumerate(g1_slots)}})
    word = sigma_path.translate(down)
    verdict = fills([word], len(g1_slots))
    reason = f" ({verdict.reason})" if verdict.reason else ""
    _require(verdict.kind == FILLS,
             "base word does not fill its invariant subgraph: "
             f"{verdict.kind}{reason}")


def filling_reducible(m: int = 3, sigma: str | None = None) -> ExampleSpec:
    """Reducible map with one exponential stratum whose lamination fills.

    An invariant rank-m rose is fixed pointwise; two further petals grow
    over it through a filling base word.
    """
    if m < 2:
        raise InvalidInput("the invariant rose needs rank at least 2")
    g1 = _g1_names(m)
    names = g1 + ["A", "B"]
    mg = marked_rose(m + 2, names)
    g = mg.graph
    sigma_tokens = sigma or _sigma_default(g1)
    sig = g.parse_path(sigma_tokens)
    _require(all(g.edge_names[slot(ch)] in g1 for ch in sig),
             "base word must lie in the invariant rose")
    images = {n: n for n in g1}
    images["A"] = f"A {sigma_tokens} B' {sigma_tokens} B"
    images["B"] = f"B {sigma_tokens} A {sigma_tokens} B' {sigma_tokens} B"
    f = rose_map(mg, images)
    filt = strata(f)
    labels = [(tuple(sorted(st.slots)), st.label) for st in filt.strata]
    g1_slots = tuple(sorted(g.slot_of[n] for n in g1))
    ab_slots = tuple(sorted((g.slot_of["A"], g.slot_of["B"])))
    _require(labels == [(g1_slots, "FIXED"), (ab_slots, "EG")],
             f"unexpected strata {labels}")
    _require(is_invariant_subgraph(f, g1_slots), "invariant rose is not invariant")
    _check_sigma_fills(mg, g1, sig)
    _require(mg.validate_marking(), "marking is not valid")
    return ExampleSpec(
        name="filling_reducible", mg=mg, maps={"f": f},
        expected="Loxodromic", params={"m": m, "sigma": sigma_tokens},
        notes="reducible, one exponential stratum, lamination fills",
    )


def bdd_no_periodic(m: int = 3, sigma: str | None = None) -> ExampleSpec:
    """Two parallel exponential strata; neither lamination fills but the
    pair does: bounded orbits without a periodic vertex."""
    g1 = _g1_names(m)
    names = g1 + ["A", "B", "A2", "B2"]
    mg = marked_rose(m + 4, names)
    g = mg.graph
    sigma_tokens = sigma or _sigma_default(g1)
    images = {n: n for n in g1}
    images["A"] = f"A {sigma_tokens} B' {sigma_tokens} B"
    images["B"] = f"B {sigma_tokens} A {sigma_tokens} B' {sigma_tokens} B"
    images["A2"] = f"A2 {sigma_tokens} B2' {sigma_tokens} B2"
    images["B2"] = f"B2 {sigma_tokens} A2 {sigma_tokens} B2' {sigma_tokens} B2"
    f = rose_map(mg, images)

    slots = {n: g.slot_of[n] for n in names}
    g1_slots = frozenset(slots[n] for n in g1)
    k1 = g1_slots | {slots["A"], slots["B"]}
    k2 = g1_slots | {slots["A2"], slots["B2"]}
    decomposition = {"K1": k1, "K2": k2, "J2": k2, "J3": g1_slots}

    filt = strata(f)
    eg = [st.slots for st in filt.strata if st.label == "EG"]
    _require(len(eg) == 2, f"expected two exponential strata, got {len(eg)}")
    _require(is_invariant_subgraph(f, k1) and is_invariant_subgraph(f, k2),
             "declared subgraphs are not invariant")
    _check_sigma_fills(mg, g1, g.parse_path(sigma_tokens))
    f1 = restricted_map(f, k1)
    f2 = restricted_map(f, frozenset(range(g.n_edges)) - k1)
    _require(compose(f2, f1).edge_images == f.edge_images,
             "the two restricted maps do not compose to the map")
    return ExampleSpec(
        name="bdd_no_periodic", mg=mg,
        maps={"f": f, "f1": f1, "f2": f2},
        expected="BoundedOrbits",
        params={"m": m, "sigma": sigma_tokens},
        decomposition=decomposition,
        notes="jointly filling lamination pair, no single one fills",
    )


def linear_example(i: int = 1, j: int = 1, w: str | None = None) -> ExampleSpec:
    """Commuting polynomially growing maps stabilizing the filling
    lamination of an ambient exponential map."""
    names = ["X", "Y", "Z", "A", "B"]
    mg = marked_rose(5, names)
    g = mg.graph
    w_tokens = w or "Y X Y'"
    w_path = g.parse_path(w_tokens)
    _require(all(g.edge_names[slot(ch)] in ("X", "Y") for ch in w_path),
             "twist word must lie in the first two petals")
    a = g.parse_path("X")
    b = g.parse_path("Y X Y'")
    c = g.parse_path("Z") + w_path + invert(g.parse_path("Z"))
    sig = reduce_word(a + a + b + b + c + c)
    sigma_tokens = g.print_path(sig)

    def theta(ii, jj):
        y_img = "Y" + (" X" * (3 * ii))
        z_img = "Z" + (" " + w_tokens) * (3 * jj)
        return rose_map(mg, {"X": "X", "Y": y_img, "Z": z_img,
                             "A": "A", "B": "B"})

    th = theta(i, j)
    th10, th01 = theta(1, 0), theta(0, 1)
    _require(compose(th10, th01).edge_images == compose(th01, th10).edge_images,
             "generators do not commute edgewise")
    for gen in (th10, th01, th):
        for loop in (a, b, c):
            _require(map_path(gen, loop) == loop,
                     "generator does not fix a declared loop")
    images = {"X": "X", "Y": "Y", "Z": "Z",
              "A": f"A {sigma_tokens} B' {sigma_tokens} B",
              "B": f"B {sigma_tokens} A {sigma_tokens} B' {sigma_tokens} B"}
    f = rose_map(mg, images)
    _check_sigma_fills(mg, ["X", "Y", "Z"], sig)
    return ExampleSpec(
        name="linear_example", mg=mg,
        maps={"f": f, "theta": th, "theta_10": th10, "theta_01": th01},
        expected="Loxodromic",
        params={"i": i, "j": j, "w": w_tokens, "sigma": sigma_tokens},
        notes="ambient exponential map with commuting linear stabilizers",
    )


RANK2_CATALOG = {
    "rank2_tr0": ([[0, -1], [1, 0]], {"x1": "x2", "x2": "x1'"}),
    "rank2_tr1": ([[1, 1], [-1, 0]], {"x1": "x1 x2'", "x2": "x1"}),
    "rank2_tr-1": ([[-1, -1], [1, 0]], {"x1": "x1' x2", "x2": "x1'"}),
    "rank2_tr2_id": ([[1, 0], [0, 1]], {"x1": "x1", "x2": "x2"}),
    "rank2_tr2_shear": ([[1, 1], [0, 1]], {"x1": "x1", "x2": "x2 x1"}),
    "rank2_tr2_shear_neg": ([[1, -1], [0, 1]], {"x1": "x1", "x2": "x2 x1'"}),
    "rank2_tr-2": ([[-1, -1], [0, -1]], {"x1": "x1'", "x2": "x2' x1'"}),
    "rank2_tr3": ([[2, 1], [1, 1]], {"x1": "x1 x2 x1", "x2": "x1 x2"}),
    "rank2_tr3_alt": ([[1, 1], [1, 2]], {"x1": "x1 x2", "x2": "x2 x1 x2"}),
    "rank2_tr-3": ([[-2, -1], [-1, -1]],
                   {"x1": "x1' x2' x1'", "x2": "x2' x1'"}),
    "rank2_tr4": ([[3, 1], [2, 1]], {"x1": "x1 x2 x1 x2 x1", "x2": "x1 x2"}),
    "rank2_tr-4": ([[-3, -1], [-2, -1]],
                   {"x1": "x1' x2' x1' x2' x1'", "x2": "x2' x1'"}),
}


def rank2_fixture(key: str) -> ExampleSpec:
    matrix, images = RANK2_CATALOG[key]
    mg = marked_rose(2)
    f = rose_map(mg, images)
    bm = mg.induced_rose_map(f)
    ab = abelianization(bm)
    _require([list(r) for r in ab] == matrix,
             f"abelianization {ab} does not match declared {matrix}")
    invert_map(bm)  # raises if not an automorphism
    trace = matrix[0][0] + matrix[1][1]
    expected = "Loxodromic" if abs(trace) > 2 else None
    return ExampleSpec(name=key, mg=mg, maps={"f": f}, expected=expected,
                       params={"matrix": matrix, "trace": trace},
                       notes="rank-2 battery member (determinant +1)")


def divergence_pair() -> ExampleSpec:
    """The filling-reducible map at m = 3 plus its conjugate by a petal
    swap.

    The conjugate has its own filling lamination on disjoint letters, so
    the two laminations are distinct by construction.
    """
    base = filling_reducible(3)
    mg, g, f = base.mg, base.mg.graph, base.f
    swap = rose_map(mg, {"X": "A", "A": "X", "Y": "B", "B": "Y", "Z": "Z"})
    psi = compose(swap, compose(f, swap))
    _require(psi.edge_images[g.slot_of["Z"]] == g.parse_path("Z"),
             "conjugated map should fix the third petal")
    _require(psi.edge_images[g.slot_of["A"]] == g.parse_path("A"),
             "conjugated map should fix the swapped petals")
    return ExampleSpec(
        name="divergence", mg=mg, maps={"f": f, "psi": psi},
        expected="Loxodromic",
        params={"m": 3, "splitting_h": ["X", "Y", "Z", "A"]},
        notes="pair with distinct filling laminations on disjoint letters",
    )


_CATALOG = {
    "filling_reducible": filling_reducible,
    "bdd_no_periodic": bdd_no_periodic,
    "linear_example": linear_example,
    "divergence": divergence_pair,
}


def fixture(name: str, **params) -> ExampleSpec:
    if name in RANK2_CATALOG:
        return rank2_fixture(name)
    if name not in _CATALOG:
        raise InvalidInput(f"unknown fixture {name!r}")
    return _CATALOG[name](**params)


def fixture_names() -> list[str]:
    return sorted(list(_CATALOG) + list(RANK2_CATALOG))
