"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line.  Tolerances are pinned here, not
configurable: exact integer laws are asserted with zero tolerance, the
Perron root at 1e-9, the stated runtime limits with time.monotonic.
"""

import itertools
import math
import time

import pytest

from freesplit.automorphisms import (MapTables, apply_map, compose_maps,
                                     identity_map)
from freesplit.classify import bounded_path_witness, classify, rank2_classify
from freesplit.config import Config
from freesplit.factors import CoreGraph, carries
from freesplit.fixtures import RANK2_CATALOG, fixture
from freesplit.graphs import (compose, is_nielsen, pf_eigenvalue, strata,
                              transition_matrix)
from freesplit.laminations import (lamination_approx, lamination_fills,
                                   laminations_jointly_fill, pf_estimate)
from freesplit.pairs import (one_edge_splitting, remark_splitting,
                             sibling_splittings, validate_pair)
from freesplit.whitehead import FILLS, PROPER, Move, fills
from freesplit.wproj import (build_context, candidate_classes,
                             default_m_samples, displacement_table,
                             divergence_check, estimate_M, lipschitz_check,
                             translate_class, w_of)
from freesplit.words import (BWD, FWD, canonical_cyclic, invert, path_contains,
                             reduce_word, strip_cyclic)


def report(ok: bool, label: str, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_filling_reducible_reproduction(filling_spec):
    start = time.monotonic()
    mg, f, g = filling_spec.mg, filling_spec.f, filling_spec.mg.graph

    filt = strata(f)
    got = [(tuple(sorted(g.edge_names[s] for s in st.slots)), st.label)
           for st in filt.strata]
    ok_strata = got == [(("X", "Y", "Z"), "FIXED"), (("A", "B"), "EG")]

    block = transition_matrix(f).block([g.slot_of["A"], g.slot_of["B"]])
    ok_block = block.matrix == ((1, 1), (2, 3))
    ok_pf = abs(pf_eigenvalue(block) - (2 + math.sqrt(3))) <= 1e-9

    cfg6 = Config(lam_depth_cap=6)
    lam = lamination_approx(mg, f, filt.eg_strata()[0], cfg6, filt)
    ok_fills = lamination_fills(lam).kind == FILLS and lam.depth <= 6

    verdict = classify(filling_spec)
    ok_classify = verdict.verdict == "Loxodromic"

    elapsed = time.monotonic() - start
    report(ok_strata and ok_block and ok_pf and ok_fills and ok_classify
           and elapsed < 10.0,
           "criterion 1: filling-reducible reproduction",
           f"strata={ok_strata} block={ok_block} pf={ok_pf} "
           f"fills={ok_fills} classify={verdict.verdict} "
           f"time={elapsed:.1f}s<10s")


def test_criterion_2_bounded_orbits_example(bdd_spec):
    start = time.monotonic()
    filt = strata(bdd_spec.f)
    lams = [lamination_approx(bdd_spec.mg, bdd_spec.f, i, filtration=filt)
            for i in filt.eg_strata()]
    singles = [lamination_fills(lam).kind for lam in lams]
    ok_singles = singles == [PROPER, PROPER]
    ok_joint = laminations_jointly_fill(lams).kind == FILLS

    verdict = classify(bdd_spec)
    ok_classify = verdict.verdict == "BoundedOrbits"

    ok_chains = True
    for k in (1, 2, 3):
        chain = bounded_path_witness(bdd_spec, k)
        faces_count = sum(1 for a in chain.arrows if a["move"] == "collapse")
        ok_chains &= (len(chain.vertices) == 5 and faces_count == 4
                      and all(a["ok"] for a in chain.arrows))

    elapsed = time.monotonic() - start
    report(ok_singles and ok_joint and ok_classify and ok_chains
           and elapsed < 30.0,
           "criterion 2: bounded orbits without periodic vertex",
           f"singles={singles} joint=Fills classify={verdict.verdict} "
           f"chains(k=1..3)={ok_chains} time={elapsed:.1f}s<30s")


def test_criterion_3_w_laws_exact(filling_ctx, filling_spec):
    mg = filling_spec.mg
    s = one_edge_splitting(mg, ["X", "Y", "Z", "A"])
    cands = candidate_classes(s.elliptic)
    sample = [c for c in cands if w_of(filling_ctx, c).defined][:6]
    assert sample, "no defined sample classes"

    ok_translation = True
    for c in sample:
        base = w_of(filling_ctx, c).value
        for m in range(-5, 6):
            moved = translate_class(filling_ctx, c, m)
            if w_of(filling_ctx, moved).value != base + m:
                ok_translation = False

    rep = displacement_table(filling_ctx, s, 5)
    t = rep["table"]
    ok_transport = rep["slope_exact"] and all(
        t[m] == t[0] - m for m in range(-5, 6))
    ok_raw = rep["raw_within_m_hat"] and all(
        v is not None for v in rep["raw_spot_checks"].values())

    report(ok_translation and ok_transport and ok_raw,
           "criterion 3: exact integer laws for the projection",
           f"sampled={len(sample)} translation=exact transport=exact "
           f"raw@±2 within m_hat={filling_ctx.m_hat}")


def test_criterion_4_lipschitz_bound(filling_ctx, filling_spec):
    mg, f = filling_spec.mg, filling_spec.f
    pairs = []
    for combo in itertools.combinations(mg.graph.edge_names, 3):
        pair = validate_pair(mg, combo)
        sibs = sibling_splittings(pair)
        if len(sibs) == 2:
            pairs.append(tuple(sibs))
            pairs.append(tuple(remark_splitting(x, f) for x in sibs))
    assert len(pairs) >= 20
    rep = lipschitz_check(filling_ctx, pairs)
    report(rep["n_pairs"] >= 20 and rep["violations"] == 0,
           "criterion 4: adjacent splittings within 8M",
           f"pairs={rep['n_pairs']} violations={rep['violations']} "
           f"max|dW|/m_hat={rep['max_ratio_to_m_hat']:.2f} bound=8")


def test_criterion_5_rank2_oracle_agreement():
    results = []
    for key in sorted(RANK2_CATALOG):
        spec = fixture(key)
        oracle = rank2_classify(spec.params["matrix"])
        got = classify(spec)
        agree = (got.verdict == "Loxodromic") == (oracle == "Loxodromic")
        slope_ok = True
        if oracle == "Loxodromic":
            t = {int(k): v for k, v in got.witness["table"].items()}
            slope_ok = all(t[m] == t[0] - m for m in range(-4, 5))
        results.append((key, agree and slope_ok))
    traces = {abs(fixture(k).params["trace"]) for k in sorted(RANK2_CATALOG)}
    ok = all(r for _, r in results) and len(results) >= 10 \
        and traces == {0, 1, 2, 3, 4}
    report(ok, "criterion 5: rank-2 trace oracle agreement",
           f"battery={len(results)} traces={sorted(traces)}")


def _whitehead_move_ball(rank: int, depth: int = 2):
    moves = []
    for p in range(rank):
        others = [g for g in range(rank) if g != p]
        for ch in (FWD[p], BWD[p]):
            for bits in itertools.product(range(4), repeat=len(others)):
                left = frozenset(g for g, b in zip(others, bits) if b % 2)
                right = frozenset(g for g, b in zip(others, bits) if b // 2)
                moves.append(Move(ch, left, right).basis_map(rank))
    ball = {identity_map(rank)}
    frontier = {identity_map(rank)}
    for _ in range(depth):
        nxt = set()
        for bm in frontier:
            for mv in moves:
                new = compose_maps(mv, bm)
                if new not in ball:
                    ball.add(new)
                    nxt.add(new)
        frontier = nxt
    return ball


def _enumerate_classes_up_to(rank: int, max_len: int):
    letters = list(FWD[:rank] + BWD[:rank])
    seen = set()
    for n in range(1, max_len + 1):
        for tup in itertools.product(letters, repeat=n):
            c = canonical_cyclic("".join(tup))
            if c and len(c) == n and c not in seen:
                seen.add(c)
                yield c


@pytest.mark.slow
def test_criterion_6_whitehead_oracle_equivalence():
    """fills() against brute force over factors from bounded folding.

    The enumerated factor family: images of coordinate subsets under a
    depth-two ball of Whitehead moves (detected through letter supports of
    transported classes), together with every witness produced by fills()
    on the corpus.  Agreement: a class fills exactly when no enumerated
    factor carries it.
    """
    start = time.monotonic()
    checked = violations = 0
    witness_cores: dict[str, CoreGraph] = {}
    for rank in (2, 3):
        # one table per ball map, built once for the whole corpus
        ball = [MapTables(bm) for bm in _whitehead_move_ball(rank, depth=2)]
        corpus = list(_enumerate_classes_up_to(rank, 6))
        verdicts = {}
        for w in corpus:
            v = fills([w], rank)
            assert v.kind in (FILLS, PROPER), f"unknown verdict for {w!r}"
            verdicts[w] = v
            if v.kind == PROPER:
                assert carries(v.witness, w)
                for comp in v.witness.components:
                    witness_cores.setdefault(comp.canonical_key, comp)
        full = set(range(rank))
        for w, v in verdicts.items():
            brute_not_fills = any(
                core.rank == rank and core.carries_class(w)
                for core in witness_cores.values()
            ) or any(
                {FWD.index(ch) if ch in FWD[:rank] else BWD.index(ch)
                 for ch in strip_cyclic(apply_map(bm, w))} < full
                for bm in ball)
            checked += 1
            if (v.kind == FILLS) == brute_not_fills:
                violations += 1
    elapsed = time.monotonic() - start
    report(violations == 0 and elapsed < 300.0,
           "criterion 6: Whitehead oracle equivalence",
           f"classes={checked} disagreements={violations} "
           f"time={elapsed:.0f}s<300s")


def test_criterion_7_linear_example_stabilizers():
    spec = fixture("linear_example", i=1, j=1)
    mg, g = spec.mg, spec.mg.graph
    th10, th01 = spec.maps["theta_10"], spec.maps["theta_01"]

    ok_commute = compose(th10, th01).edge_images == \
        compose(th01, th10).edge_images

    w = g.parse_path(spec.params["w"])
    loops = [g.parse_path("X"), g.parse_path("Y X Y'"),
             g.parse_path("Z") + w + invert(g.parse_path("Z"))]

    ok_fixed = all(is_nielsen(gen, reduce_word(loop))
                   for gen in (th10, th01) for loop in loops)

    filt = strata(spec.f)
    lam = lamination_approx(mg, spec.f, filt.eg_strata()[0], filtration=filt)
    ok_pf = all(
        pf_estimate(gen, lam, depth) == 0.0
        for gen in (th10, th01)
        for depth in range(1, lam.depth + 1))
    report(ok_commute and ok_fixed and ok_pf,
           "criterion 7: linear stabilizers of the lamination",
           f"commute={ok_commute} fixed-classes={ok_fixed} "
           f"pf-estimates-zero={ok_pf}")


def test_criterion_8_divergence(filling_ctx=None):
    spec = fixture("divergence")
    mg, f, psi = spec.mg, spec.maps["f"], spec.maps["psi"]
    t = one_edge_splitting(mg, spec.params["splitting_h"])
    ctx = build_context(mg, f)
    other = one_edge_splitting(mg, ["X", "Y", "Z", "B"])
    estimate_M(ctx, default_m_samples(ctx, [t, other]))

    # distinct filling laminations: neither defining segment occurs in the
    # other lamination's deep leaf
    ctx_psi = build_context(mg, psi)
    leaf_phi = mg.path_to_rose(ctx.lam_plus.deepest())
    leaf_psi = mg.path_to_rose(ctx_psi.lam_plus.deepest())
    assert not path_contains(leaf_psi, ctx.seg_plus)
    assert not path_contains(leaf_phi, ctx_psi.seg_plus)

    rep = divergence_check(ctx, mg.induced_rose_map(psi), t)
    ok_band = rep["verdict"] == "Bounded" and rep["band_start"] is not None \
        and rep["band_start"] <= 10
    window = [rep["psi_table"][l] for l in
              range(rep["band_start"], rep["band_start"] + 11)]
    ok_width = max(window) - min(window) <= 2 * ctx.m_hat
    ok_slope = rep["phi_slope_exact"]
    report(ok_band and ok_width and ok_slope,
           "criterion 8: divergence of translated systems",
           f"band@{rep['band_start']} width={max(window)-min(window)}"
           f"<=2*{ctx.m_hat} phi-slope=+1 exact")
