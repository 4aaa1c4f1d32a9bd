import importlib
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import freesplit.automorphisms as automorphisms_mod
import freesplit.wproj as wproj_mod
from freesplit.automorphisms import (MapTables, abelian_vector, apply_map,
                                     compose_maps, identity_map, invert_map,
                                     mat_vec)
from freesplit.classify import classify
from freesplit.config import STABILITY, Config
from freesplit.errors import BudgetExhausted, InvalidInput, NotApplicable
from freesplit.factors import ffs_from_generators, whole_group
from freesplit.fixtures import ExampleSpec, fixture
from freesplit.graphs import close_path, marked_rose, realize_rose_endo, rose_map
from freesplit.pairs import (one_edge_splitting, remark_splitting,
                             sibling_splittings, validate_pair)
from freesplit.wproj import (_DIVERGENCE_ORBIT_CAP, BUDGET, DEFINED,
                             NOT_DEFINED, W_of_ffs, WResult, _orbit_step,
                             _W_or_none, _window_start, build_context,
                             candidate_classes, default_m_samples,
                             displacement_table, divergence_check, estimate_M,
                             in_U, lipschitz_check, translate_class, w_of)
from freesplit.words import (BWD, FWD, canonical_cyclic, cyclic_contains,
                             cyclic_reduce, invert, primitive_root,
                             reduce_word, sort_key, strip_cyclic)
from test_classify import rank2_products
from test_laminations import window_outcome, window_start_reference

classify_mod = importlib.import_module("freesplit.classify")


def rose_class(spec, tokens):
    g = spec.mg.graph
    return spec.mg.circuit_to_rose_class(g.parse_path(tokens))


def least_phase_reference(ctx, candidates):
    """The least (phase, class) over full backward scans of ``candidates``
    on a copy of ``ctx`` with an empty memo, the least class in sort order
    among ties; None when no candidate has a defined phase."""
    ref = replace(ctx)
    scans = ((w_of(ref, c, forward=False), c) for c in candidates)
    phases = [(res.value, sort_key(c), c) for res, c in scans if res.defined]
    if not phases:
        return None
    value, _, c = min(phases)
    return value, c


def lipschitz_pairs(spec):
    """Acceptance criterion 4's splitting pairs: the sibling splittings of
    every validated pair on three edges, and their remarked translates."""
    pairs = []
    for combo in itertools.combinations(spec.mg.graph.edge_names, 3):
        sibs = sibling_splittings(validate_pair(spec.mg, combo))
        if len(sibs) == 2:
            pairs.append(tuple(sibs))
            pairs.append(tuple(remark_splitting(x, spec.f) for x in sibs))
    return pairs


class TestBuildContext:
    def test_filling_fixture(self, filling_ctx):
        assert len(filling_ctx.seg_plus) == filling_ctx.cfg.seg_len
        assert len(filling_ctx.seg_minus) == filling_ctx.cfg.seg_len
        assert filling_ctx.seg_plus != filling_ctx.seg_minus

    def test_no_eg_stratum_rejected(self):
        mg = marked_rose(2)
        f = rose_map(mg, {"x1": "x1", "x2": "x2 x1"})
        with pytest.raises(NotApplicable):
            build_context(mg, f)

    def test_certified_lamination_reused(self, filling_spec, filling_ctx):
        ctx = build_context(filling_spec.mg, filling_spec.f,
                            lam_plus=filling_ctx.lam_plus)
        assert ctx.lam_plus is filling_ctx.lam_plus
        assert (ctx.seg_plus, ctx.seg_minus) == \
            (filling_ctx.seg_plus, filling_ctx.seg_minus)

    def test_contexts_hold_their_own_memos(self, filling_spec, filling_ctx):
        mg, f = filling_spec.mg, filling_spec.f
        a, b = (build_context(mg, f, lam_plus=filling_ctx.lam_plus)
                for _ in range(2))
        assert a.fwd == b.fwd and a.fwd is not b.fwd

        def memo(t):
            return [k for k in t.images if len(k) > 1]

        assert memo(a.fwd) == memo(b.fwd) == []
        w_of(a, rose_class(filling_spec, "A"))
        assert memo(a.fwd) and memo(b.fwd) == []


class TestInU:
    def test_deep_segment_in_plus(self, filling_ctx, filling_spec):
        loop = close_path(filling_spec.mg, filling_ctx.lam_plus.deepest())
        cls = canonical_cyclic(filling_spec.mg.path_to_rose(loop))
        assert in_U(filling_ctx, cls, "+")

    def test_fixed_class_in_neither(self, filling_ctx, filling_spec):
        c = rose_class(filling_spec, filling_spec.params["sigma"])
        assert not in_U(filling_ctx, c, "+")
        assert not in_U(filling_ctx, c, "-")

    def test_short_class_not_contained(self, filling_ctx, filling_spec):
        assert not in_U(filling_ctx, rose_class(filling_spec, "A"), "+")

    def test_bad_side(self, filling_ctx):
        with pytest.raises(InvalidInput):
            in_U(filling_ctx, "", "?")

    @pytest.mark.parametrize("side", ["", "+-"])
    def test_side_is_one_sign(self, filling_ctx, side):
        # substrings of "+-" are not sides
        with pytest.raises(InvalidInput):
            in_U(filling_ctx, "", side)


class TestWOf:
    def test_fixed_class_not_defined(self, filling_ctx, filling_spec):
        res = w_of(filling_ctx, rose_class(filling_spec, filling_spec.params["sigma"]))
        assert res.status == "NotDefined"

    def test_growing_class_defined(self, filling_ctx, filling_spec):
        res = w_of(filling_ctx, rose_class(filling_spec, "A"))
        assert res.defined
        assert res.fwd_entry is not None

    def test_translation_law_raw(self, filling_ctx, filling_spec):
        c = rose_class(filling_spec, "A")
        base = w_of(filling_ctx, c).value
        for m in range(-3, 4):
            moved = translate_class(filling_ctx, c, m)
            assert w_of(filling_ctx, moved).value == base + m

    def test_stable_under_horizon_doubling(self, filling_ctx, filling_spec):
        c = rose_class(filling_spec, "A")
        v1 = w_of(filling_ctx, c).value
        p = filling_ctx.cfg
        doubled = replace(
            filling_ctx,
            cfg=replace(p, horizon=p.horizon * 2))
        assert w_of(doubled, c).value == v1

    def test_unreduced_class_is_reduced(self, filling_ctx, filling_spec,
                                        monkeypatch):
        # a class with a cancelling pair inside, or conjugated so that its
        # ends cancel, is scanned as its cyclic reduction
        c = rose_class(filling_spec, "A")
        y, Y = FWD[1], BWD[1]
        want = w_of(replace(filling_ctx), c + c)
        scanned = []
        scan = wproj_mod._w_scan

        def recorded(ctx, cyclic, *args):
            scanned.append(cyclic)
            return scan(ctx, cyclic, *args)

        monkeypatch.setattr(wproj_mod, "_w_scan", recorded)
        for word in (c + y + Y + c, c + Y + y + c, y + c + c + Y):
            assert w_of(replace(filling_ctx), word) == want
        assert scanned == [c + c] * 3

    def test_memo_lives_on_the_context(self, filling_ctx, filling_spec):
        c = rose_class(filling_spec, "A")
        ctx = replace(filling_ctx)
        assert ctx.w_memo == {}
        full = w_of(ctx, c)
        assert ctx.w_memo == {c: (full, True)}
        assert w_of(ctx, c) is full
        # a backward-only call reuses the full scan
        back = w_of(ctx, c, forward=False)
        assert back == replace(full, fwd_entry=None)
        assert back == w_of(replace(filling_ctx), c, forward=False)
        # a full call after a backward-only one scans forward too
        later = replace(filling_ctx)
        w_of(later, c, forward=False)
        assert w_of(later, c) == full
        assert replace(ctx).w_memo == {}


def nielsen_pairs(rank):
    """Nielsen generators of Aut(F_rank), each with its exact inverse."""
    def images(changes):
        imgs = list(identity_map(rank))
        for i, w in changes.items():
            imgs[i] = w
        return tuple(imgs)

    pairs = []
    for i in range(rank):
        flip = images({i: BWD[i]})
        pairs.append((flip, flip))
        for j in range(rank):
            if i != j:
                swap = images({i: FWD[j], j: FWD[i]})
                pairs += [(swap, swap),
                          (images({i: FWD[i] + FWD[j]}),
                           images({i: FWD[i] + BWD[j]})),
                          (images({i: FWD[j] + FWD[i]}),
                           images({i: BWD[j] + FWD[i]}))]
    return pairs


@st.composite
def automorphism_and_word(draw):
    """(f, exact inverse of f, a reduced word) for f a product of Nielsen
    generators of rank 2 or 3."""
    rank = draw(st.integers(2, 3))
    pairs = nielsen_pairs(rank)
    f = g = identity_map(rank)
    for k in draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1,
                           max_size=8)):
        f = compose_maps(f, pairs[k][0])
        g = compose_maps(pairs[k][1], g)
    word = draw(st.lists(st.sampled_from(FWD[:rank] + BWD[:rank]),
                         max_size=40).map("".join))
    return f, g, reduce_word(word)


def lip_product(f, g):
    return max(map(len, f)) * max(map(len, g))


class TestBoundedCancellation:
    @settings(max_examples=150, deadline=None)
    @given(automorphism_and_word(), st.integers(0, 40))
    def test_cancellation_at_most_bound(self, case, cut):
        f, g, word = case
        assert compose_maps(f, g) == identity_map(len(f))
        u, v = word[:cut], word[cut:]
        fu, fv = apply_map(f, u), apply_map(f, v)
        cancelled = (len(fu) + len(fv) - len(reduce_word(fu + fv))) // 2
        assert cancelled <= lip_product(f, g)

    @settings(max_examples=150, deadline=None)
    @given(automorphism_and_word(), st.integers(0, 400))
    def test_early_stop_matches_whole_word(self, case, cap):
        f, g, word = case
        w = strip_cyclic(word)
        whole = strip_cyclic(apply_map(f, w))
        expected = whole if len(whole) <= cap else None
        assert _orbit_step(f, w, cap, lip_product(f, g)) == expected
        assert _orbit_step(f, w, cap, None) == expected


@pytest.fixture(scope="module")
def early_stop_cases(filling_spec, filling_ctx):
    """Contexts with a cancellation bound, each with classes to iterate:
    filling_reducible and the rank-2 sweep maps x1 -> x1' x2, x2 -> x2 x1' x2
    and x1 -> x2' x1', x2 -> x2 x1 x2."""
    mg = marked_rose(2)
    cases = [(filling_ctx, [rose_class(filling_spec, "A"),
                            rose_class(filling_spec, ["A", "B"])])]
    for bm in ((BWD[0] + FWD[1], FWD[1] + BWD[0] + FWD[1]),
               (BWD[1] + BWD[0], FWD[1] + FWD[0] + FWD[1])):
        ctx = build_context(mg, realize_rose_endo(mg, bm))
        cases.append((ctx, [FWD[0], FWD[0] + FWD[1]]))
    return cases


def iterate_lengths(bm, c, limit):
    lengths, w = [], cyclic_reduce(c)
    while len(lengths) < 40:
        w = strip_cyclic(apply_map(bm, w))
        if len(w) > limit:
            break
        lengths.append(len(w))
    return lengths


def translated(ctx, c, m):
    try:
        return translate_class(ctx, c, m)
    except BudgetExhausted:
        return None


def translates_reference(ctx, classes, m):
    """The |m|-step translates of ``classes`` within the length cap, in
    canonical form, each chain stepped from scratch."""
    bm = ctx.fwd if m >= 0 else ctx.bwd
    out = []
    for c in classes:
        words = orbit(bm, cyclic_reduce(c), abs(m), ctx.cfg.iterate_cap,
                      ctx.cancellation_bound)
        if len(words) > abs(m) and words[abs(m)] is not None:
            out.append(canonical_cyclic(words[abs(m)]))
    return out


class TestTranslationRows:
    """Tables built from one chain per class equal per-class translation."""

    @pytest.fixture
    def split(self, filling_spec):
        return one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])

    @pytest.mark.parametrize("cap", [None, 600])
    def test_translate_class_matches_reference(self, filling_ctx, split, cap):
        ctx = filling_ctx if cap is None else replace(
            filling_ctx, cfg=replace(filling_ctx.cfg, iterate_cap=cap))
        base = candidate_classes(split.elliptic)
        for m in range(-4, 5):
            got = [w for w in (translated(ctx, c, m) for c in base)
                   if w is not None]
            assert got == translates_reference(ctx, base, m)
        if cap is not None:
            # the cap is reached: some chains die within four steps
            assert 0 < len(translates_reference(ctx, base, -4)) < len(base)

    def test_displacement_table(self, filling_ctx, split):
        rep = displacement_table(filling_ctx, split, 3)
        base = candidate_classes(split.elliptic)
        assert list(rep["table"]) == list(range(-3, 4))
        for m in range(-3, 4):
            moved = translates_reference(filling_ctx, base, -m)
            assert (rep["table"][m], rep["witnesses"][m]) == \
                least_phase_reference(filling_ctx, moved)

    def test_divergence_phi_rows(self, filling_ctx, split):
        rep = divergence_check(filling_ctx, identity_map(5), split)
        ctx = replace(filling_ctx, cfg=replace(
            filling_ctx.cfg, iterate_cap=_DIVERGENCE_ORBIT_CAP))
        base = candidate_classes(split.elliptic)
        assert rep["phi_table"] == {
            k: _W_or_none(ctx, split.elliptic, translates_reference(ctx, base, k))
            for k in range(wproj_mod._PHI_STEPS + 1)}


class TestEarlyStopOrbits:
    def test_same_results_as_whole_word_orbits(self, early_stop_cases):
        for ctx, classes in early_stop_cases:
            assert ctx.cancellation_bound is not None
            for c in classes:
                for bm, sign in ((ctx.bwd, -1), (ctx.fwd, 1)):
                    lengths = iterate_lengths(bm, c, 20_000)
                    for cap in {n - d for n in lengths for d in (0, 1)}:
                        capped = replace(
                            ctx, cfg=replace(ctx.cfg, iterate_cap=cap))
                        whole = replace(capped, cancellation_bound=None)
                        assert w_of(capped, c) == w_of(whole, c)
                        m = sign * (len(lengths) + 1)
                        assert translated(capped, c, m) == \
                            translated(whole, c, m)


def orbit(bm, w, steps, cap, bound):
    words = [w]
    while len(words) <= steps and words[-1] is not None:
        words.append(_orbit_step(bm, words[-1], cap, bound))
    return words


class TestBlockwiseOrbits:
    # sweep080: x1 -> x1' x2, x2 -> x2 x1' x2; sweep096: x1 -> x2' x1',
    # x2 -> x2 x1 x2; forward and backward orbits of two classes each
    @pytest.mark.parametrize("bm", [(BWD[0] + FWD[1], FWD[1] + BWD[0] + FWD[1]),
                                    (BWD[1] + BWD[0], FWD[1] + FWD[0] + FWD[1])])
    def test_same_orbits_letter_by_letter(self, bm, monkeypatch):
        inv = invert_map(bm)
        bound = lip_product(bm, inv)
        cases = [(MapTables(f), c) for f in (bm, inv)
                 for c in (FWD[0], FWD[0] + FWD[1])]
        blockwise = [orbit(f, c, 40, 20_000, b) for f, c in cases
                     for b in (bound, None)]
        assert all(len(o[-2]) > 2_000 for o in blockwise)
        monkeypatch.setattr(automorphisms_mod, "_BLOCK", 10 ** 9)
        letterwise = [orbit(f, c, 40, 20_000, b) for f, c in cases
                      for b in (bound, None)]
        assert blockwise == letterwise


def rank2_roots(max_len):
    """Cyclically reduced rank-2 words of length 1..max_len that are not
    proper powers."""
    return [w for n in range(1, max_len + 1)
            for w in map("".join, itertools.product(FWD[:2] + BWD[:2],
                                                    repeat=n))
            if cyclic_reduce(w) == w and primitive_root(w) == w]


class _OwnOrbit:
    """Iterates of a class as its own word, grown on demand; None once
    the length cap is passed or past the horizon."""

    def __init__(self, start, bm, ctx):
        self.words = [start]
        self.bm, self.ctx = bm, ctx

    def get(self, t):
        ctx = self.ctx
        if t > ctx.cfg.horizon:
            return None
        while len(self.words) <= t and self.words[-1] is not None:
            self.words.append(_orbit_step(self.bm, self.words[-1],
                                          ctx.cfg.iterate_cap,
                                          ctx.cancellation_bound))
        return self.words[t] if t < len(self.words) else None


def unshared_w(ctx, cyclic, forward):
    """w_of as scanned before powers shared their root's orbit: the class
    is iterated as its own word, with no memo."""
    c = cyclic_reduce(cyclic)
    h, s = ctx.cfg.horizon, STABILITY
    back, fore = _OwnOrbit(c, ctx.bwd, ctx), _OwnOrbit(c, ctx.fwd, ctx)

    def inside(t, side):
        word = back.get(t) if t >= 0 else fore.get(-t)
        return None if word is None else in_U(ctx, word, side)

    try:
        w = _window_start(lambda t: inside(t, "-"), h, -h, s,
                          lambda hi: False)
    except BudgetExhausted:
        return WResult(BUDGET)
    if w is None:
        return WResult(NOT_DEFINED)
    if w == -h:
        return WResult(BUDGET)
    entry = None
    if forward:
        try:
            entry = _window_start(lambda i: inside(-i, "+"), h, -h, s,
                                  lambda hi: False)
        except BudgetExhausted:
            entry = None
        if entry == -h:
            entry = None
    return WResult(DEFINED, w, entry)


class TestPowerOrbits:
    """A proper power is scanned along its primitive root's orbit."""

    @pytest.fixture(scope="class")
    def step_cases(self, filling_spec, filling_ctx):
        """(map, bound, roots): both directions of the fixture and of every
        fifth rank-2 sweep map of length <= 5, each with the bound C of
        its exact inverse and with none; roots are short primitive classes
        and their first two iterates."""
        cases = []
        fixture_roots = [rose_class(filling_spec, "A"),
                         rose_class(filling_spec, ["A", "B"])]
        maps = [(filling_ctx.fwd, filling_ctx.bwd, fixture_roots)]
        for f in rank2_products(5)[::5]:
            g = invert_map(f)
            assert compose_maps(f, g) == identity_map(2)
            maps.append((MapTables(f), MapTables(g), rank2_roots(2)))
        for f, g, roots in maps:
            for bm, inv in ((f, g), (g, f)):
                starts = []
                for r in roots:
                    starts += orbit(bm, r, 2, 10 ** 9, None)
                for bound in (lip_product(bm, inv), None):
                    cases.append((bm, bound, starts))
        return cases

    def test_power_step_is_root_step_raised(self, step_cases):
        chunked = 0
        for bm, bound, roots in step_cases:
            for x in roots:
                assert primitive_root(x) == x
                s = _orbit_step(bm, x, 10 ** 9, None)
                for k in (2, 3, 5):
                    for cap in (k * len(s), k * len(s) - 1, 50, 10 ** 6):
                        want = s * k if k * len(s) <= cap else None
                        assert _orbit_step(bm, x * k, cap, bound) == want
                        if bound is not None and \
                                k * len(x) * max(map(len, bm)) > cap:
                            chunked += 1
        assert chunked > 1_000

    def test_membership_reads_the_root(self):
        # x^k holds a segment of length L exactly when x does, once
        # len(x) >= L - 1; for shorter x the power is needed
        alpha = FWD[:2] + BWD[:2]
        segs = [w for n in range(1, 6)
                for w in map("".join, itertools.product(alpha, repeat=n))
                if reduce_word(w) == w]
        words = [w for n in range(1, 5)
                 for w in map("".join, itertools.product(alpha, repeat=n))
                 if cyclic_reduce(w) == w]
        for x in words:
            for seg in segs:
                if len(x) >= len(seg) - 1:
                    for k in (2, 3):
                        assert cyclic_contains(x * k, seg) == \
                            cyclic_contains(x, seg)
        a = FWD[0]
        assert cyclic_contains(a * 3, a * 3) and not cyclic_contains(a, a * 3)

    @pytest.mark.parametrize("cap", [10 ** 6, 3_000])
    def test_w_of_powers_matches_unshared_scan(self, early_stop_cases, cap):
        # the fixture and x1 -> x1' x2, x2 -> x2 x1' x2; one copy of each
        # context scans forward too, the other backward only
        for ctx, fixture_classes in early_stop_cases[:2]:
            roots = rank2_roots(3) if ctx.rank == 2 else fixture_classes
            full, back = (replace(ctx, cfg=replace(ctx.cfg, iterate_cap=cap))
                          for _ in range(2))
            for r in roots:
                for k in range(1, 5):
                    want = unshared_w(full, r * k, True)
                    assert w_of(full, r * k) == want, (r, k)
                    assert w_of(back, r * k, forward=False) == \
                        replace(want, fwd_entry=None), (r, k)

    def test_power_stays_dead(self, early_stop_cases):
        # the backward orbit of f^2(x1) shrinks back to x1; once the square's
        # iterate has outgrown the cap, later short root iterates do not
        # revive it, also when the root's own scan grew the orbit first
        ctx = early_stop_cases[1][0]
        start = orbit(ctx.fwd, FWD[0], 2, 10 ** 9, None)[2]
        lengths = [len(w) for w in orbit(ctx.bwd, start, 2, 10 ** 9, None)]
        assert lengths[1] > lengths[2] == 1
        lazy = wproj_mod._LazyOrbit(start, ctx.bwd, 2, 2 * lengths[1] - 1,
                                    ctx.cancellation_bound)
        assert lazy.get(2) == FWD[0]
        assert lazy.get(0, 2) == start
        assert lazy.get(1, 2) is None and lazy.get(2, 2) is None
        assert lazy.get(3) is None  # past the horizon

    def test_powers_step_only_their_root(self, early_stop_cases,
                                         monkeypatch):
        ctx = replace(early_stop_cases[1][0])
        stepped = []

        def counted(bm, w, cap, bound):
            stepped.append(w)
            return _orbit_step(bm, w, cap, bound)

        monkeypatch.setattr(wproj_mod, "_orbit_step", counted)
        a = FWD[0]
        orbits = {}
        for k in range(1, 5):
            w_of(ctx, a * k, orbits=orbits)
        assert list(orbits) == [a]
        back, fore = orbits[a]
        assert back.words[0] == fore.words[0] == a
        assert back.bm is ctx.bwd and fore.bm is ctx.fwd
        assert all(w in back.words or w in fore.words for w in stepped)
        assert len(stepped) == (len(back.words) + back.dead
                                + len(fore.words) + fore.dead - 2)
        w_of(ctx, FWD[1], orbits=orbits)
        assert list(orbits) == [FWD[1]]

    def test_candidate_loop_frees_its_orbits(self, early_stop_cases,
                                             monkeypatch):
        # W_of_ffs hands all its candidates one orbit slot, which holds a
        # single root at a time; the context gains no attribute
        ctx = replace(early_stop_cases[1][0])
        slots = []
        real = wproj_mod._root_orbits

        def recorded(ctx, root, orbits):
            slots.append(orbits)
            pair = real(ctx, root, orbits)
            assert list(orbits) == [root]
            return pair

        monkeypatch.setattr(wproj_mod, "_root_orbits", recorded)
        fields = set(vars(ctx))
        W_of_ffs(ctx, ffs_from_generators(2, [FWD[0]]))
        assert slots and all(o is slots[0] for o in slots)
        assert set(vars(ctx)) == fields


def rank2_cyclic_words(max_len):
    """Cyclically reduced rank-2 words of length 1..max_len."""
    return [w for n in range(1, max_len + 1)
            for w in map("".join, itertools.product(FWD[:2] + BWD[:2],
                                                    repeat=n))
            if cyclic_reduce(w) == w]


def l1(v):
    return sum(map(abs, v))


class TestAbelianLookAhead:
    """|w| >= ||ab(w)||_1, and ab(f(x)) = A ab(x): a scan stops before
    building iterates the length cap has already doomed."""

    def test_iterates_outgrow_their_abelianization(self):
        words = rank2_cyclic_words(4)
        checked = 0
        for f in rank2_products(5)[::5]:
            bm = MapTables(f)
            for x in words:
                w, v = x, abelian_vector(x, 2)
                for t in range(13):
                    assert abelian_vector(w, 2) == v
                    assert l1(v) <= len(w)
                    assert l1(mat_vec(bm.abelian, v)) <= bm.norm * l1(v)
                    checked += 1
                    if t == 12 or len(w) > 5_000:
                        break
                    w = _orbit_step(bm, w, 10 ** 9, None)
                    v = mat_vec(bm.abelian, v)
        assert checked > 10_000

    def test_doomed_is_sound(self, early_stop_cases):
        # doomed() condemns only a range holding a step get() refuses, for
        # every state of the orbit, range and power
        fired = 0
        for ctx, _ in early_stop_cases[1:]:
            for bm in (ctx.fwd, ctx.bwd):
                for cap, root, k in itertools.product(
                        (40, 300), rank2_roots(2), (1, 2, 3)):
                    def fresh():
                        return wproj_mod._LazyOrbit(root, bm, 10, cap,
                                                    ctx.cancellation_bound)
                    ref = fresh()
                    refused = [ref.get(u, k) is None for u in range(11)]
                    for built in range(11):
                        lazy = fresh()
                        lazy.get(built)
                        for hi in range(11):
                            if lazy.doomed(k, hi):
                                fired += 1
                                assert any(refused[:hi + 1])
        assert fired > 100

    def test_doomed_sees_every_unbuilt_step(self, early_stop_cases):
        # when a step not yet built, at most hi, has an abelianization
        # whose 1-norm k times exceeds the cap, doomed(k, hi) says so: the
        # gate in front of the norms lets every such range through
        seen = 0
        for ctx, _ in early_stop_cases[1:]:
            for bm in (ctx.fwd, ctx.bwd):
                for root in rank2_roots(2):
                    # ||ab(f^u(root))||_1 for u = 0..10, by composed powers
                    power, norms = identity_map(2), []
                    for _ in range(11):
                        norms.append(l1(abelian_vector(
                            apply_map(power, root), 2)))
                        power = compose_maps(bm, power)
                    for cap, k, built in itertools.product(
                            (40, 300), (1, 2, 3), range(11)):
                        lazy = wproj_mod._LazyOrbit(root, bm, 10, cap,
                                                    ctx.cancellation_bound)
                        lazy.get(built)
                        n = len(lazy.words)
                        for hi in range(11):
                            if any(k * norms[u] > cap
                                   for u in range(n, hi + 1)):
                                seen += 1
                                assert lazy.doomed(k, hi), (root, k, hi)
        assert seen > 100

    @pytest.mark.parametrize("cap", [10 ** 6, 20_000, 2_000, 1_000])
    def test_w_of_matches_scan_without_look_ahead(self, early_stop_cases,
                                                  cap, monkeypatch):
        # x1 -> x1' x2, x2 -> x2 x1' x2 and x1 -> x2' x1', x2 -> x2 x1 x2:
        # the rank-2 sweep's two slowest maps
        fired = count_look_aheads(monkeypatch)
        for ctx, _ in early_stop_cases[1:]:
            capped = replace(ctx, cfg=replace(ctx.cfg, iterate_cap=cap))
            for r, k, forward in itertools.product(rank2_roots(2),
                                                   range(1, 5), (True, False)):
                fresh = replace(capped)
                want = unshared_w(fresh, r * k, forward)
                assert w_of(fresh, r * k, forward) == want, (r, k, forward)
        assert fired[0] > 0

    @pytest.mark.parametrize("name", ["rank2_tr3", "rank2_tr-3", "rank2_tr4"])
    def test_classify_matches_without_look_ahead(self, name, monkeypatch):
        fired = count_look_aheads(monkeypatch)
        got = {}
        for cap in (1_000, 2_000, 5_000, 20_000):
            cfg = Config(iterate_cap=cap)
            got[cap] = classify(fixture(name), cfg).to_json()
        assert fired[0] > 0
        monkeypatch.setattr(wproj_mod._LazyOrbit, "doomed",
                            lambda self, k, hi: False)
        for cap in got:
            cfg = Config(iterate_cap=cap)
            assert classify(fixture(name), cfg).to_json() == got[cap]


def count_look_aheads(monkeypatch):
    """Wrap _LazyOrbit.doomed; the returned list holds how often it
    answered True."""
    fired = [0]
    real = wproj_mod._LazyOrbit.doomed

    def doomed(self, k, hi):
        answer = real(self, k, hi)
        fired[0] += answer
        return answer

    monkeypatch.setattr(wproj_mod._LazyOrbit, "doomed", doomed)
    return fired


class TestCandidates:
    def test_cyclic_factor(self):
        # CAND_LEN = 4 letters, far below the cap of CAND_CAP = 24 classes
        got = candidate_classes(ffs_from_generators(2, [FWD[0]]))
        x = FWD[0]
        assert got == [x, x + x, x + x + x, x + x + x + x]

    def test_improper_rejected(self):
        with pytest.raises(InvalidInput):
            candidate_classes(whole_group(2))


class TestWOfSystems:
    def test_splitting_value(self, filling_ctx, filling_spec):
        s = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        val = W_of_ffs(filling_ctx, s.elliptic)
        assert val.witness in candidate_classes(s.elliptic)
        assert w_of(replace(filling_ctx), val.witness,
                    forward=False).value == val.value
        # the witness crosses the growing petal (either orientation)
        mg = filling_spec.mg
        a = mg.path_to_rose(mg.graph.parse_path("A"))
        assert a in val.witness or invert(a) in val.witness

    def test_singleton_candidates(self, filling_ctx, filling_spec):
        c = rose_class(filling_spec, "A")
        s = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        val = W_of_ffs(filling_ctx, s.elliptic, candidates=[c])
        assert val.value == w_of(filling_ctx, c).value

    def test_not_applicable_when_all_fixed(self, filling_ctx, filling_spec):
        mg = filling_spec.mg
        gens = [mg.path_to_rose(mg.graph.parse_path(n)) for n in ("X", "Y")]
        ffs = ffs_from_generators(5, gens)
        with pytest.raises(NotApplicable):
            W_of_ffs(filling_ctx, ffs)

    def test_translated_system_shifts(self, filling_ctx, filling_spec):
        s = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        base = W_of_ffs(filling_ctx, s.elliptic).value
        cands = candidate_classes(s.elliptic)
        for m in (1, 2):
            moved = [translate_class(filling_ctx, c, -m) for c in cands]
            val = W_of_ffs(filling_ctx, s.elliptic, candidates=moved)
            assert val.value == base - m

    def test_candidate_order_does_not_matter(self, filling_ctx,
                                             filling_spec):
        # W sorts its candidates, so any order or iterable gives the least
        # phase and the least class in sort order reaching it
        for edges in (["X", "Y", "Z", "A"], ["X", "Y", "Z", "B"]):
            s = one_edge_splitting(filling_spec.mg, edges)
            cands = candidate_classes(s.elliptic)
            want = least_phase_reference(filling_ctx, cands)
            for given in (cands, cands[::-1], iter(cands),
                          (c for c in reversed(cands))):
                val = W_of_ffs(replace(filling_ctx), s.elliptic, given)
                assert (val.value, val.witness) == want
                assert val.n_candidates == len(cands)

    def test_remark_equivariance(self, filling_ctx, filling_spec):
        # the remarked splitting's system is the inverse translate, so its
        # value under transported candidates drops by exactly one
        s = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        base = W_of_ffs(filling_ctx, s.elliptic).value
        moved = remark_splitting(s, filling_spec.f)
        cands = candidate_classes(s.elliptic)
        transported = [translate_class(filling_ctx, c, -1) for c in cands]
        val = W_of_ffs(filling_ctx, moved.elliptic, candidates=transported)
        assert val.value == base - 1


class TestEstimateM:
    def test_translate_pair_contributes(self, filling_spec):
        mg, f = filling_spec.mg, filling_spec.f
        ctx = build_context(mg, f)
        c = rose_class(filling_spec, "A")
        c1 = translate_class(ctx, c, 1)
        m = estimate_M(ctx, [[c, c1]])
        assert m >= 1

    def test_stable_under_sample_doubling(self, filling_spec):
        mg, f = filling_spec.mg, filling_spec.f
        s1 = one_edge_splitting(mg, ["X", "Y", "Z", "A"])
        s2 = one_edge_splitting(mg, ["X", "Y", "Z", "B"])
        ctx1 = build_context(mg, f)
        estimate_M(ctx1, default_m_samples(ctx1, [s1]))
        ctx2 = build_context(mg, f)
        estimate_M(ctx2, default_m_samples(ctx2, [s1, s2, s1, s2]))
        assert ctx1.m_hat == ctx2.m_hat

    def test_requires_sample(self, filling_spec):
        ctx = build_context(filling_spec.mg, filling_spec.f)
        with pytest.raises(NotApplicable):
            estimate_M(ctx, [])


class TestDisplacement:
    def test_exact_slope(self, filling_ctx, filling_spec):
        s = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        rep = displacement_table(filling_ctx, s, 3)
        assert rep["slope_exact"]
        t = rep["table"]
        assert all(t[m] == t[0] - m for m in t)

    def test_raw_spot_checks_within_constant(self, filling_ctx, filling_spec):
        s = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        rep = displacement_table(filling_ctx, s, 2)
        assert rep["raw_within_m_hat"]
        assert all(v is not None for v in rep["raw_spot_checks"].values())


class TestWitnessSoundness:
    def test_rate_lower_bound_reported(self, filling_ctx, filling_spec):
        s = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        rep = displacement_table(filling_ctx, s, 2)
        assert rep["distance_rate_lower_bound"] == \
            1.0 / (8 * filling_ctx.m_hat)


class TestLipschitz:
    def test_identical_splittings_zero(self, filling_ctx, filling_spec):
        s = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        rep = lipschitz_check(filling_ctx, [(s, s)])
        assert rep["pairs"][0]["delta"] == 0

    def test_sibling_pair_small(self, filling_ctx, filling_spec):
        pair = validate_pair(filling_spec.mg, ["X", "Y", "A"])
        s1, s2 = sibling_splittings(pair)
        rep = lipschitz_check(filling_ctx, [(s1, s2)])
        assert rep["violations"] == 0
        # the collapsed graph carries a defined class, so the sharper
        # two-constant branch applies
        assert rep["pairs"][0]["delta"] <= 2 * filling_ctx.m_hat

    def test_rows_match_full_scans(self, filling_ctx, filling_spec):
        # the rows of criterion 4, each W one cut pass, are the values of
        # the full scans
        pairs = lipschitz_pairs(filling_spec)
        rep = lipschitz_check(replace(filling_ctx), pairs)
        want = []
        for pair in pairs:
            refs = [least_phase_reference(
                filling_ctx, candidate_classes(s.elliptic)) for s in pair]
            if None not in refs:
                want.append((refs[0][0], refs[1][0]))
        assert len(want) >= 20
        assert rep["skipped"] == len(pairs) - len(want)
        assert [(r["w1"], r["w2"]) for r in rep["pairs"]] == want


def psi_tables_reference(ctx, psi, t, l_max):
    """The psi transport by raw ``apply_map``: images of up to 20,000
    letters stay alive, those of up to 2,000 are evaluated, under the
    200,000-letter orbit cap of ``divergence_check``."""
    ctx = replace(ctx, cfg=replace(ctx.cfg, iterate_cap=200_000))
    base = candidate_classes(t.elliptic)
    table, dropped = {}, {}
    alive = list(base)
    for l in range(l_max + 1):
        cands = [w for w in alive if len(w) <= 2_000]
        dropped[l] = len(base) - len(cands)
        ref = least_phase_reference(ctx, cands)
        table[l] = None if ref is None else ref[0]
        images = (apply_map(psi, w) for w in alive)
        alive = [strip_cyclic(m) for m in images if len(m) <= 20_000]
    return table, dropped


class TestDivergence:
    def test_psi_transport_matches_raw_reference(self, filling_ctx,
                                                 filling_spec):
        t = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        rep = divergence_check(filling_ctx, filling_ctx.fwd, t)
        table, dropped = psi_tables_reference(filling_ctx, filling_ctx.fwd,
                                              t, wproj_mod._PSI_STEPS)
        assert rep["psi_table"] == table
        assert rep["dropped_candidates"] == dropped
        # the caps are reached: some candidates drop before the last iterate
        assert 0 < dropped[8] < len(candidate_classes(t.elliptic))

    def test_value_scans_match_full_scans(self, monkeypatch):
        # _W_or_none scans a candidate only as far as could lower the
        # minimum; on the divergence fixture's psi and phi rows and the
        # displacement table's raw spot checks it still gives the least
        # phase of the full scans, on a context with an empty memo
        spec = fixture("divergence")
        mg = spec.mg
        t = one_edge_splitting(mg, spec.params["splitting_h"])
        ctx = build_context(mg, spec.f)
        estimate_M(ctx, default_m_samples(ctx, [t]))
        calls, cut = [], []
        value_only, scan = wproj_mod._W_or_none, wproj_mod._w_scan

        def recorded(ctx, ffs, candidates=None):
            calls.append((ctx, ffs, candidates, value_only(ctx, ffs,
                                                           candidates)))
            return calls[-1][-1]

        def counted(ctx, c, forward, orbits, limit=None):
            cut.append(limit is not None)
            return scan(ctx, c, forward, orbits, limit)

        monkeypatch.setattr(wproj_mod, "_W_or_none", recorded)
        monkeypatch.setattr(wproj_mod, "_w_scan", counted)
        divergence_check(ctx, mg.induced_rose_map(spec.maps["psi"]), t)
        displacement_table(ctx, t, 2)
        assert len(calls) == 21 + 7 + 2 and any(cut)
        for c_ctx, ffs, candidates, got in calls:
            if candidates is None:
                candidates = candidate_classes(ffs)
            ref = least_phase_reference(c_ctx, candidates)
            assert got == (None if ref is None else ref[0])

    def test_identity_constant(self, filling_ctx, filling_spec):
        t = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        rep = divergence_check(filling_ctx, identity_map(5), t)
        vals = set(rep["psi_table"].values())
        assert len(vals) == 1 and rep["verdict"] == "Bounded"

    def test_self_is_unbounded(self, filling_ctx, filling_spec):
        t = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        rep = divergence_check(filling_ctx, filling_ctx.fwd, t)
        assert rep["verdict"] == "Unbounded"


def answer(outcome):
    """A window start, or None for a miss and a budget stop alike."""
    return None if outcome == "raise" else outcome


class TestGiveUp:
    """A scan that gives up once no window can complete by its limit
    answers as one that tests on, a miss and a budget stop taken as one."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from((True, False, None)), min_size=14,
                    max_size=14),
           st.integers(0, 10), st.integers(-3, 0), st.integers(1, 3),
           st.booleans())
    def test_same_answer_as_reference(self, seq, limit, floor, s, exact):
        nones = [t for t, m in enumerate(seq, floor) if m is None]

        def doomed(hi):
            return exact and any(0 <= u <= hi for u in nones)

        want, tested = window_outcome(window_start_reference, seq, floor,
                                      limit, floor, s)
        got, seen = window_outcome(_window_start, seq, floor, limit, floor,
                                   s, doomed, True)
        assert answer(got) == answer(want)
        assert seen == tested[:len(seen)]

    def test_stops_before_the_last_steps(self):
        # no member by step 2 leaves no room for a window of 3 by step 4;
        # testing on would meet the None at step 4
        seq = (False, False, False, True, None)
        want, tested = window_outcome(window_start_reference, seq, 0, 4, 0, 2)
        got, seen = window_outcome(_window_start, seq, 0, 4, 0, 2,
                                   lambda hi: False, True)
        assert (want, got) == ("raise", None)
        assert (tested, seen) == ([0, 1, 2, 3, 4], [0, 1, 2])


def displacement_tables(spec):
    """(context, splitting, radius, table) of every displacement table
    ``classify`` builds on ``spec``; the table is None where it raised
    NotApplicable."""
    real = classify_mod.displacement_table
    seen = []

    def recorded(ctx, s, radius):
        seen.append((ctx, s, radius, None))
        table = real(ctx, s, radius)
        seen[-1] = (ctx, s, radius, table)
        return table

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_mod, "displacement_table", recorded)
        classify(spec)
    return seen


def full_scan_rows(ctx, s, radius):
    """The least (phase, class) of the full scans, or None where no
    candidate is defined, on every row of the table's translates."""
    base = candidate_classes(s.elliptic)
    rows = {}
    for sign in (-1, 1):
        for k, row in enumerate(wproj_mod._translation_rows(ctx, base, radius,
                                                            sign < 0)):
            rows[sign * k] = least_phase_reference(
                ctx, [wproj_mod._translate_form(w) for w in row])
    return rows


class TestCutRows:
    """Each displacement row, one cut pass in sort order, has the value and
    witness of the full scans."""

    def check(self, spec):
        tables = displacement_tables(spec)
        for ctx, s, radius, table in tables:
            rows = full_scan_rows(ctx, s, radius)
            if table is None:
                assert None in rows.values()
                continue
            assert None not in rows.values()
            assert table["table"] == {m: v[0] for m, v in sorted(rows.items())}
            assert table["witnesses"] == \
                {m: v[1] for m, v in sorted(rows.items())}
        return tables

    @pytest.mark.parametrize("name", ["divergence", "filling_reducible",
                                      "linear_example"])
    def test_fixtures(self, name):
        assert self.check(fixture(name))

    def test_rank2_maps(self):
        mg = marked_rose(2)
        checked = 0
        for bm in rank2_products(5):
            spec = ExampleSpec("sweep", mg, {"f": realize_rose_endo(mg, bm)},
                               None)
            checked += bool(self.check(spec))
        assert checked >= 20


class TestCutScanMemo:
    def test_repeated_cut_scan_builds_no_iterate(self, filling_ctx,
                                                 filling_spec, monkeypatch):
        c = rose_class(filling_spec, "A")
        full = w_of(replace(filling_ctx), c, forward=False)
        assert full.value == 3
        # the window [3, 3 + s] completes one step past this limit
        limit = full.value - 1 + STABILITY
        ctx = replace(filling_ctx)
        miss = w_of(ctx, c, forward=False, limit=limit)
        assert not miss.defined and ctx.w_memo[c] == (miss, limit)
        stepped = []
        step = wproj_mod._orbit_step

        def counted(*args):
            stepped.append(args)
            return step(*args)

        monkeypatch.setattr(wproj_mod, "_orbit_step", counted)
        for lower in (limit, STABILITY):
            assert w_of(ctx, c, forward=False, limit=lower) == miss
        assert not stepped
        # a larger limit reaches the full scan's own window, memoized as
        # a backward-only result
        assert w_of(ctx, c, forward=False, limit=limit + 1) == full
        assert stepped and ctx.w_memo[c] == (full, False)
        stepped.clear()
        assert w_of(ctx, c, forward=False) == full
        assert not stepped
        assert w_of(ctx, c) == w_of(replace(filling_ctx), c)

    def test_repeated_value_pass_builds_no_iterate(self, filling_ctx,
                                                   filling_spec, monkeypatch):
        # divergence_check's first phi row repeats its first psi row
        s = one_edge_splitting(filling_spec.mg, ["X", "Y", "Z", "A"])
        ctx = replace(filling_ctx)
        cands = candidate_classes(s.elliptic)
        first = _W_or_none(ctx, s.elliptic, cands)
        assert first == least_phase_reference(filling_ctx, cands)[0]
        stepped = []
        step = wproj_mod._orbit_step

        def counted(*args):
            stepped.append(args)
            return step(*args)

        monkeypatch.setattr(wproj_mod, "_orbit_step", counted)
        assert _W_or_none(ctx, s.elliptic, cands) == first
        assert not stepped
