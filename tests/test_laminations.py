import dataclasses
import itertools
import math

import pytest

from freesplit import laminations, whitehead
from freesplit.config import Config
from freesplit.errors import BudgetExhausted, InvalidInput
from freesplit.fixtures import bdd_no_periodic, fixture, fixture_names
from freesplit.graphs import (compose, identity_graph_map, map_path, marked_rose,
                              realize_rose_endo, strata)
from freesplit.laminations import (_classes_to_depth, _stabilized_fills,
                                   lamination_approx, lamination_fills,
                                   laminations_jointly_fill, pf_estimate)
from freesplit.whitehead import (FILLS, MAX_LETTERS, PROPER, UNKNOWN,
                                 FillsVerdict, fills)
from freesplit.wproj import _window_start
from freesplit.words import BWD, FWD, count_crossings
from test_classify import rank2_products


@pytest.fixture(scope="module")
def lam(filling_spec):
    filt = strata(filling_spec.f)
    return lamination_approx(filling_spec.mg, filling_spec.f,
                             filt.eg_strata()[0], filtration=filt)


class TestLeafSegments:
    def test_first_image(self, filling_spec):
        g = filling_spec.mg.graph
        sigma = filling_spec.params["sigma"]
        got = map_path(filling_spec.f, FWD[g.slot_of["B"]])
        assert got == g.parse_path(f"B {sigma} A {sigma} B' {sigma} B")

    def test_depth_zero(self, lam, filling_spec):
        # the depth-0 segment is the seed edge itself
        assert lam.segments[0] == filling_spec.mg.graph.parse_path("A")

    def test_nested(self, filling_spec):
        b = FWD[filling_spec.mg.graph.slot_of["B"]]
        s1 = map_path(filling_spec.f, b)
        s2 = map_path(filling_spec.f, s1)
        assert s2.startswith(s1)


class TestApprox:
    def test_seed_is_least_edge(self, lam, filling_spec):
        g = filling_spec.mg.graph
        assert lam.seed == g.slot_of["A"]

    def test_lengths_strictly_increase(self, lam):
        lens = [len(s) for s in lam.segments]
        assert all(a < b for a, b in zip(lens, lens[1:]))

    def test_nested_at_seed(self, lam):
        # f(A) begins with A, so iterates nest as initial subpaths
        for a, b in zip(lam.segments[1:], lam.segments[2:]):
            assert b.startswith(a)

    def test_growth_matches_perron_root(self, filling_spec):
        cfg = Config(lam_len_target=15_000, lam_depth_cap=12)
        filt = strata(filling_spec.f)
        deep = lamination_approx(filling_spec.mg, filling_spec.f,
                                 filt.eg_strata()[0], cfg, filt)
        assert len(deep.deepest()) >= 10_000
        rho = 2 + math.sqrt(3)
        growth = [sum(count_crossings(seg, s) for s in deep.stratum)
                  for seg in deep.segments]
        assert abs(growth[-1] / growth[-2] - rho) <= 0.01 * rho

    def test_non_eg_stratum_rejected(self, filling_spec):
        filt = strata(filling_spec.f)
        fixed = [i for i, st in enumerate(filt.strata) if st.label == "FIXED"]
        with pytest.raises(InvalidInput):
            lamination_approx(filling_spec.mg, filling_spec.f, fixed[0],
                              filtration=filt)

    def test_cap_bounds_every_built_segment(self, monkeypatch):
        # growth stops before it maps a segment whose unreduced image is
        # over iterate_cap, not after it has built that image
        built = []

        def spy(f, path):
            built.append(map_path(f, path))
            return built[-1]

        monkeypatch.setattr(laminations, "map_path", spy)
        spec = fixture("rank2_tr3")
        filt = strata(spec.f)
        lam = lamination_approx(spec.mg, spec.f, filt.eg_strata()[0],
                                Config(iterate_cap=500), filt)
        assert built and max(map(len, built)) <= 500
        assert lam.depth == 6

    def test_two_laminations_for_bdd(self, bdd_spec):
        filt = strata(bdd_spec.f)
        assert len(filt.eg_strata()) == 2
        lams = [lamination_approx(bdd_spec.mg, bdd_spec.f, i, filtration=filt)
                for i in filt.eg_strata()]
        assert lams[0].stratum != lams[1].stratum


def window_start_reference(member, limit, floor, s):
    """wproj._window_start as it scanned before the look-ahead."""
    def test(t):
        m = member(t)
        if m is None:
            raise BudgetExhausted("iterates exceeded the length cap")
        return m

    run = 0
    for t in range(limit + 1):
        run = run + 1 if test(t) else 0
        if run > s:
            start = t - s
            while start > floor and test(start - 1):
                start -= 1
            return start
    return None


def window_outcome(scan, seq, floor, *args):
    """(result, tested steps): the start or None, or "raise"."""
    tested = []

    def member(t):
        tested.append(t)
        return seq[t - floor]

    try:
        return scan(member, *args), tested
    except BudgetExhausted:
        return "raise", tested


class TestWindowLookAhead:
    """A look-ahead that is True only where a step will be None changes
    no outcome of _window_start, and only ever tests fewer steps."""

    FLOOR = -1

    def test_same_outcome_on_every_member_sequence(self):
        floor = self.FLOOR
        early = 0
        # members of steps floor..6: past every limit + s tried below
        for seq in itertools.product((True, False, None), repeat=8):
            nones = [t for t, m in enumerate(seq, floor) if m is None]

            def exact(hi):
                return any(0 <= u <= hi for u in nones)

            def blind_to_farthest(hi):
                # knows nothing of the farthest step asked about
                return any(0 <= u < hi for u in nones)

            for limit in range(5):
                for s in (1, 2):
                    want, tested = window_outcome(window_start_reference, seq,
                                                  floor, limit, floor, s)
                    for doomed in (exact, blind_to_farthest):
                        got, seen = window_outcome(_window_start, seq, floor,
                                                   limit, floor, s, doomed)
                        assert got == want, (seq, limit, s)
                        assert seen == tested[:len(seen)]
                        early += len(seen) < len(tested)
        assert early > 1_000

    def test_none_past_the_limit_is_not_asked_about(self):
        # no window by the limit: the scan ends without reaching step 3
        seq = (True, False, True, None)
        got, _ = window_outcome(_window_start, seq, 0, 2, 0, 2,
                                lambda hi: hi >= 3)
        assert got is None

    def test_run_shortens_the_range(self):
        # with a run of 2 behind step 2 the window closes at step 3; a
        # None at step 4 is not asked about
        asked = []

        def doomed(hi):
            asked.append(hi)
            return hi >= 4

        got, _ = window_outcome(_window_start, (True,) * 4 + (None,), 0,
                                5, 0, 3, doomed)
        assert got == 0
        assert asked == [3, 3, 3, 3]


class TestLaminationFills:
    def test_filling_reducible(self, lam):
        assert lamination_fills(lam).kind == FILLS

    def test_filling_reducible_rank4(self):
        spec = fixture("filling_reducible", m=4)
        filt = strata(spec.f)
        lam4 = lamination_approx(spec.mg, spec.f, filt.eg_strata()[0],
                                 filtration=filt)
        assert lamination_fills(lam4).kind == FILLS

    def test_bdd_laminations_proper(self, bdd_spec):
        filt = strata(bdd_spec.f)
        for idx in filt.eg_strata():
            lamI = lamination_approx(bdd_spec.mg, bdd_spec.f, idx,
                                     filtration=filt)
            v = lamination_fills(lamI)
            assert v.kind == PROPER
            assert v.witness.is_proper

    def test_single_depth_unknown(self, lam):
        shallow = dataclasses.replace(lam, segments=lam.segments[:2], depth=1)
        assert lamination_fills(shallow).kind == UNKNOWN


class TestJointlyFill:
    def test_bdd_jointly_fills(self, bdd_spec):
        filt = strata(bdd_spec.f)
        lams = [lamination_approx(bdd_spec.mg, bdd_spec.f, i, filtration=filt)
                for i in filt.eg_strata()]
        assert laminations_jointly_fill(lams).kind == FILLS

    def test_single_filling(self, lam):
        assert laminations_jointly_fill([lam]).kind == FILLS

    def test_duplicate_is_idempotent(self, bdd_spec):
        filt = strata(bdd_spec.f)
        idx = filt.eg_strata()[0]
        lamI = lamination_approx(bdd_spec.mg, bdd_spec.f, idx, filtration=filt)
        one = laminations_jointly_fill([lamI])
        two = laminations_jointly_fill([lamI, lamI])
        assert one.kind == two.kind == PROPER

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            laminations_jointly_fill([])


class TestStabilizedFills:
    """The depth loop: two agreeing verdicts, a Fills read off monotonicity."""

    a, b, A, B = FWD[0], FWD[1], BWD[0], BWD[1]
    # depth 1 is carried by <a>; the commutator makes depth 2 fill
    SHORT = [[a], [a, a + b + A + B]]
    LONG = SHORT + [[a, a + b + A + B, a + a + b]]

    def test_first_fills_at_last_depth_is_unknown(self):
        v = _stabilized_fills(self.SHORT, 2)
        assert (v.kind, v.reason) == (UNKNOWN, "verdict did not stabilize")

    def test_fills_then_superset_is_fills(self):
        v = _stabilized_fills(self.LONG, 2)
        assert v.kind == FILLS and v.witness is None

    @pytest.mark.parametrize("lists", [SHORT, LONG])
    def test_superset_over_letter_budget_is_unknown(self, lists, monkeypatch):
        # no set follows the first Fills, or it has 8 letters and fills()
        # says Unknown: either way no two verdicts agree
        for module in (whitehead, laminations):
            monkeypatch.setattr(module, "MAX_LETTERS", 7)
        v = _stabilized_fills(lists, 2)
        assert (v.kind, v.reason) == (UNKNOWN, "verdict did not stabilize")

    def test_superset_of_fills_is_not_minimized(self, monkeypatch):
        calls = []
        original = laminations.fills

        def counting(classes, rank, start=()):
            calls.append(classes)
            return original(classes, rank, start)

        monkeypatch.setattr(laminations, "fills", counting)
        assert _stabilized_fills(self.LONG, 2).kind == FILLS
        assert calls == [sorted(c) for c in self.LONG[:2]]


def stabilized_fills_cold(accumulated_lists, rank):
    """The depth loop with every fills() started from the input set."""
    prev = None
    for classes in accumulated_lists:
        if not classes:
            continue
        if prev is not None and prev.kind == FILLS \
                and sum(map(len, classes)) <= MAX_LETTERS:
            return prev
        cur = fills(sorted(classes), rank)
        if prev is not None and cur.kind != UNKNOWN \
                and (prev.kind, prev.witness) == (cur.kind, cur.witness):
            return cur
        prev = cur
    return FillsVerdict(UNKNOWN, reason="verdict did not stabilize")


def _map_cases():
    """(name, marked graph, map): the rank-2 products of length <= 6 on the
    rose, each fixture's endomorphisms, and bdd_no_periodic(m) for
    m = 2..4."""
    mg2 = marked_rose(2)
    cases = [(f"rank2-{'/'.join(bm)}", mg2, realize_rose_endo(mg2, bm))
             for bm in rank2_products(6)]
    specs = [fixture(name) for name in fixture_names()]
    specs += [bdd_no_periodic(m) for m in (2, 4)]
    for spec in specs:
        for key, f in spec.maps.items():
            if not f.is_endo():
                continue
            cases.append((f"{spec.name}-{key}", spec.mg, f))
    return cases


def _depth_lists(mg, f):
    """Accumulated class lists of each lamination of f, and of all of
    them together when there are several."""
    filt = strata(f)
    lams = [lamination_approx(mg, f, i, filtration=filt)
            for i in filt.eg_strata()]
    groups = [[lam] for lam in lams] + ([lams] if len(lams) > 1 else [])
    return [[_classes_to_depth(group, k)
             for k in range(1, max(lam.depth for lam in group) + 1)]
            for group in groups]


class TestWarmStartedDepths:
    """Each depth's descent starts from the last verdict's move log; the
    verdict and witness are those of cold starts."""

    def test_matches_cold_reference(self, monkeypatch):
        starts = []
        original = laminations.fills

        def recording(classes, rank, start=()):
            starts.append(bool(start))
            return original(classes, rank, start)

        monkeypatch.setattr(laminations, "fills", recording)
        calls = 0
        for name, mg, f in _map_cases():
            for lists in _depth_lists(mg, f):
                warm = _stabilized_fills(lists, mg.rank)
                cold = stabilized_fills_cold(lists, mg.rank)
                assert (warm.kind, warm.witness) == (cold.kind, cold.witness), \
                    name
                calls += 1
        # the sweep reaches many depth loops, and many warm starts
        assert calls > 200 and sum(starts) > 200

    def test_lengthened_set_starts_cold(self, monkeypatch):
        # x y is minimized by the move taking it to x, which lengthens
        # x x: the second descent starts from the input set
        a, b = FWD[0], FWD[1]
        lists = [[a + b], [a + b, a + a]]
        seen = []
        original = laminations.fills

        def recording(classes, rank, start=()):
            seen.append((start, original(classes, rank, start)))
            return seen[-1][1]

        monkeypatch.setattr(laminations, "fills", recording)
        _stabilized_fills(lists, 2)
        (_, first), (start, second) = seen
        assert first.kind == PROPER and start == first.move_log != ()
        assert second == fills(lists[1], 2)


class TestPFEstimate:
    def test_identity_is_zero(self, lam, filling_spec):
        ident = identity_graph_map(filling_spec.mg.graph)
        assert pf_estimate(ident, lam) == 0.0

    def test_defining_map_estimates_log_perron(self, filling_spec):
        cfg = Config(lam_len_target=15_000, lam_depth_cap=12)
        filt = strata(filling_spec.f)
        deep = lamination_approx(filling_spec.mg, filling_spec.f,
                                 filt.eg_strata()[0], cfg, filt)
        target = math.log(2 + math.sqrt(3))
        assert abs(pf_estimate(filling_spec.f, deep) - target) \
            <= 0.01 * target

    def test_square_doubles(self, filling_spec):
        cfg = Config(lam_len_target=15_000, lam_depth_cap=12)
        filt = strata(filling_spec.f)
        deep = lamination_approx(filling_spec.mg, filling_spec.f,
                                 filt.eg_strata()[0], cfg, filt)
        one = pf_estimate(filling_spec.f, deep)
        two = pf_estimate(compose(filling_spec.f, filling_spec.f), deep)
        assert abs(two - 2 * one) <= 0.02 * abs(two)
