"""The integer projection certifying linear displacement.

For an automorphism with a filling lamination pair, each conjugacy class
not trapped by the nonattracting system has an orbit phase w(c): the
smallest integer w with all backward iterates from w on inside the
repelling neighborhood.  Minimizing over classes carried by a splitting's
elliptic system gives W(S); exact translation laws and an empirical
Lipschitz constant turn W into a machine-checkable loxodromicity witness.

Neighborhoods are concretized as "contains the defining leaf segment";
the constant here is empirical, estimated from samples, not the
theoretical one.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice

from .automorphisms import (BasisMap, MapTables, abelian_vector, apply_map,
                            invert_map, mat_vec)
from .config import DEFAULT, STABILITY, Config
from .errors import BudgetExhausted, InvalidInput, NotApplicable
from .factors import FreeFactorSystem, _dedupe, enumerate_classes, fold
from .graphs import GraphMap, MarkedGraph, realize_rose_endo
from .laminations import (LaminationApprox, defining_segment,
                          lamination_verdicts)
from .pairs import OneEdgeSplitting
from .whitehead import FILLS
from .words import (_canonical_reduced, cyclic_contains, cyclic_reduce,
                    is_cyclically_reduced, path_contains, primitive_root,
                    reduced_product, sort_key, strip_cyclic)

NOT_DEFINED = "NotDefined"
DEFINED = "Defined"
BUDGET = "BudgetExhausted"


@dataclass
class WContext:
    """Everything needed to evaluate the projection.

    Mutable only in ``m_hat``, which is set once by :func:`estimate_M`, in
    the block memos of ``fwd`` and ``bwd`` and in ``w_memo``, the results
    of :func:`w_of`; the memos never change an output.  A copy made with
    ``dataclasses.replace`` starts with an empty ``w_memo``, as its
    ``cfg`` may differ.
    """

    mg: MarkedGraph
    fwd: MapTables  # outer automorphism on the abstract basis
    bwd: MapTables  # its inverse; both carry the orbits' block memos
    lam_plus: LaminationApprox
    seg_plus: str  # defining segment of the attracting side, basis letters
    seg_minus: str
    cfg: Config
    m_hat: int | None = None
    # Lip(fwd) * Lip(bwd), the two being exact inverses (see _orbit_step);
    # None maps each orbit word whole
    cancellation_bound: int | None = None
    # w_of results keyed by the exact class word (the orbit phase depends on
    # its rotation), each with its scope: True when complete (scanned
    # forward too, or undefined, which has no forward entry), False when
    # defined and scanned backward only, or the limit of a cut scan that
    # found no window
    w_memo: dict[str, tuple[WResult, bool | int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return self.mg.rank

    def require_m(self) -> int:
        if self.m_hat is None:
            raise NotApplicable("estimate_M has not been run on this context")
        return self.m_hat


def build_context(mg: MarkedGraph, f: GraphMap, cfg: Config = DEFAULT,
                  lam_plus: LaminationApprox | None = None) -> WContext:
    """Assemble the projection context for a map with a filling lamination.

    ``lam_plus`` is a filling lamination of ``f`` the caller has already
    certified; without it the first filling one is searched for.  The
    inverse is read off the exact fold of :func:`invert_map`, which raises
    unless it inverts ``f`` on the nose.  NotApplicable when either side
    has no certified filling lamination or its leaf yields no defining
    segment.
    """
    if lam_plus is None:
        lam_plus = next((lam for lam, v in lamination_verdicts(mg, f, cfg)
                         if v.kind == FILLS), None)
    if lam_plus is None:
        raise NotApplicable("no certified filling lamination for this map")

    fwd = MapTables(mg.induced_rose_map(f))
    bwd = MapTables(invert_map(fwd))
    lam_minus = next((lam for lam, v in lamination_verdicts(
        mg, realize_rose_endo(mg, bwd), cfg) if v.kind == FILLS), None)
    if lam_minus is None:
        raise NotApplicable("no certified filling lamination for the inverse")

    seg_plus = _rose_segment(mg, lam_plus, cfg.seg_len)
    seg_minus = _rose_segment(mg, lam_minus, cfg.seg_len)
    for seg, lam in ((seg_plus, lam_plus), (seg_minus, lam_minus)):
        deep = mg.path_to_rose(lam.deepest())
        if not path_contains(deep, seg):
            raise NotApplicable("defining segment lost in transport")
    bound = max(map(len, fwd)) * max(map(len, bwd))
    return WContext(mg, fwd, bwd, lam_plus, seg_plus, seg_minus, cfg,
                    cancellation_bound=bound)


def _rose_segment(mg: MarkedGraph, lam: LaminationApprox, seg_len: int) -> str:
    graph_seg = defining_segment(lam, min(seg_len, len(lam.deepest())))
    word = mg.path_to_rose(graph_seg)
    if len(word) < seg_len:
        word = mg.path_to_rose(lam.deepest())
    if len(word) < seg_len:
        raise NotApplicable("leaf too short for the requested segment length")
    mid = (len(word) - seg_len) // 2
    return word[mid : mid + seg_len]


def in_U(ctx: WContext, cyclic: str, side: str) -> bool:
    """Membership proxy for the attracting (+) / repelling (-) neighborhood."""
    if side not in ("+", "-"):
        raise InvalidInput("side must be '+' or '-'")
    seg = ctx.seg_plus if side == "+" else ctx.seg_minus
    return cyclic_contains(cyclic, seg)


# ---------------------------------------------------------------------------
# The orbit phase w


@dataclass(frozen=True)
class WResult:
    status: str  # Defined | NotDefined | BudgetExhausted
    value: int | None = None
    fwd_entry: int | None = None

    @property
    def defined(self) -> bool:
        return self.status == DEFINED


# An orbit step that may outgrow the cap maps its word in at most this many
# pieces, testing the length after each: more pieces can stop sooner, but
# each one copies the image built so far once more.
_STEP_CHUNKS = 8


def _orbit_step(bm: BasisMap, w: str, cap: int,
                bound: int | None) -> str | None:
    """Cyclically reduced image of the cyclically reduced word ``w``, or
    None when that image is longer than ``cap``.

    With ``bound`` = C = Lip(f) Lip(f^-1), Lip the longest basis image of
    an automorphism f and of its exact inverse, the image of a long ``w``
    is built from at most ``_STEP_CHUNKS`` consecutive pieces of ``w``,
    and the step stops, dead, as soon as the reduced image of a prefix p
    of ``w`` is longer than cap + 3C.  Why that is safe:

    * Bounded cancellation (Cooper): if uv is reduced, at most C letters
      cancel between f(u) and f(v).  Walk the Cayley tree geodesic from 1
      to f(uv) and apply f^-1: consecutive vertices move at most Lip(f^-1)
      apart and the walk runs from 1 to uv, so it passes within Lip(f^-1)
      of u; applying f again puts f(u) within C of [1, f(uv)].
    * Let g = f(w).  As ``w`` is cyclically reduced, 1 and p lie on the
      axis of w, between w^-k and w^k for every k; so 1 and f(p) lie
      within C of [g^-k, g^k].  For k large that geodesic leaves the axis
      of g only at its two far ends, so 1 and f(p) are within C of the
      axis.  And f(p) lies within C of [1, g], so its projection lies
      within C of the axis segment from the projection of 1 to that of g,
      whose length is ||g||, the length of the cyclic reduction of g.
    * Together: ||g|| >= |f(p)| - C - C - C, so |f(p)| > cap + 3C forces
      ||g|| > cap.

    Each reduced piece is glued onto the prefix by cancelling at its one
    junction, so the result equals the whole-word image.  Without a bound,
    or when len(w) Lip(f) cannot exceed ``cap``, the word is mapped whole.
    Either way, when ``bm`` is a :class:`MapTables`, ``apply_map`` maps a
    piece or word of two blocks or more block by block through its memo of
    block images.
    """
    if bound is None or len(w) * max(map(len, bm)) <= cap:
        img = apply_map(bm, w)
    else:
        size = -(-len(w) // _STEP_CHUNKS)
        img = ""
        for i in range(0, len(w), size):
            piece = apply_map(bm, w[i:i + size])
            img = reduced_product(img, piece)
            if len(img) > cap + 3 * bound:
                return None
    img = strip_cyclic(img)
    return img if len(img) <= cap else None


class _LazyOrbit:
    """Iterates of a primitive root under one basis map, grown on demand.

    The same orbit answers for every power of the root.  If the reduced
    image of the cyclically reduced word x is u g u^-1, g cyclically
    reduced and nonempty, then that of x^k is u g^k u^-1, so the k-th
    power's iterate at step t is ``words[t] * k``, in the same rotation
    as its own orbit would give it.  That orbit would die at the first
    step t >= 1 with k * len(words[t]) > cap and stay dead; ``peak[t]``,
    the longest root iterate of steps 1..t (0 at step 0, as a start is
    never capped), answers that for every k.

    :meth:`doomed` tells, before a step is built, that the length cap has
    already doomed one up to a given step: a scan asks it to skip building
    the last, longest iterates of an orbit that cannot open a window.
    """

    def __init__(self, start: str, bm: MapTables, horizon: int, cap: int,
                 bound: int | None):
        self.words = [start]
        self.peak = [0]
        self.bm = bm
        self.horizon = horizon
        self.cap = cap
        self.bound = bound
        self.dead = False
        # norms[t]: the largest ||A^u ab(start)||_1 over steps 1..t; ab is
        # A^t ab(start) for the last t in norms
        self.norms = [0]
        self.ab = abelian_vector(start, len(bm))

    def get(self, t: int, k: int = 1) -> str | None:
        """Root iterate at step t, standing for the k-th power's; None past
        the horizon or once that power's orbit has outgrown the length cap.

        Iterates are only cyclically reduced, not rotated to canonical
        form, which would dominate the cost.  Membership tests read the
        doubled word, which holds every subword of the class up to its own
        length in any rotation; a defining segment longer than the class,
        but at most twice as long, may be found in one rotation and not in
        another.
        """
        if t > self.horizon:
            return None
        while (len(self.words) <= t and not self.dead
               and k * self.peak[-1] <= self.cap):
            nxt = _orbit_step(self.bm, self.words[-1], self.cap, self.bound)
            if nxt is None:
                self.dead = True
                break
            self.words.append(nxt)
            self.peak.append(max(self.peak[-1], len(nxt)))
        if t < len(self.words) and k * self.peak[t] <= self.cap:
            return self.words[t]
        return None

    def doomed(self, k: int, hi: int) -> bool:
        """True when the k-th power's iterate at some step in [0, hi] is
        provably longer than the cap, so that :meth:`get` answers None
        there; False says nothing.

        A cyclically reduced word is at least as long as the 1-norm of its
        abelianization, which cyclic reduction keeps and a step multiplies
        by A = ``bm.abelian``.  So the iterate at step t is at least
        ||A^t ab(root)||_1 long, whichever iterates have been built, and
        ``norms[t]``, the largest of these over steps 1..t, answers for
        every k.  One gate comes first: j steps past the last built
        iterate x that norm is at most ||A||_1^j len(x), so when
        k len(x) ||A||_1^j <= cap for the farthest step in range, no step
        not yet built is doomed and the norms are not extended.
        """
        bm, norms = self.bm, self.norms
        reach = max(hi - len(self.words) + 1, 0)
        if k * len(self.words[-1]) * bm.norm ** reach <= self.cap:
            return False
        while len(norms) <= hi:
            self.ab = mat_vec(bm.abelian, self.ab)
            norms.append(max(norms[-1], sum(map(abs, self.ab))))
        return k * norms[hi] > self.cap


def w_of(ctx: WContext, cyclic: str, forward: bool = True,
         orbits: dict | None = None, limit: int | None = None) -> WResult:
    """Smallest w with the backward iterates on [w, w+s] inside the
    repelling neighborhood (s the stability margin ``STABILITY``).

    Both scans run over t in [-h, h], h the configured ``horizon``.
    NotDefined (the nonattraction proxy) when backward times up to h are
    scanned without such a window; BudgetExhausted when the length cap cut
    a scan short, or the window reaches back to forward time h.  With
    ``forward`` the forward entry is the same scan along forward iterates
    inside the attracting neighborhood, None when it is cut short the same
    way or not asked for.  Results are memoized on the context; a call
    without ``forward`` reuses one made with it.  A proper power is
    scanned along its primitive root's orbit.  A loop over classes may
    hand every call the same dict as ``orbits``: it keeps the last root's
    two orbits, which the next powers of that root share, and is freed
    with the loop.  The class is cyclically reduced here, where it
    enters, unless it already is, as every class the package builds is.

    With ``limit`` the backward scan is cut: it looks only for a window
    that completes by that step.  A window found is the full scan's own
    and is memoized as a backward-only result.  A miss, NotDefined or
    BudgetExhausted, says only that no window completes by ``limit``; it
    is memoized with its limit, which answers a later cut scan at a limit
    no larger at once.
    """
    hit = ctx.w_memo.get(cyclic)
    if hit is not None:
        res, scope = hit
        if scope is True or not forward and (
                scope is False or limit is not None and limit <= scope):
            return res if forward else replace(res, fwd_entry=None)
    c = cyclic if is_cyclically_reduced(cyclic, ctx.rank) \
        else cyclic_reduce(cyclic)
    res = _w_scan(ctx, c, forward, orbits, limit)
    if limit is None or res.defined:
        ctx.w_memo[cyclic] = (res, forward or not res.defined)
    else:
        ctx.w_memo[cyclic] = (res, limit)
    return res


def _root_orbits(ctx: WContext, root: str,
                 orbits: dict | None) -> tuple[_LazyOrbit, _LazyOrbit]:
    """Backward and forward orbits of ``root``, taken from ``orbits`` when
    it holds them; a new pair replaces what ``orbits`` held."""
    pair = orbits.get(root) if orbits is not None else None
    if pair is None:
        cap, bound = ctx.cfg.iterate_cap, ctx.cancellation_bound
        pair = (_LazyOrbit(root, ctx.bwd, ctx.cfg.horizon, cap, bound),
                _LazyOrbit(root, ctx.fwd, ctx.cfg.horizon, cap, bound))
        if orbits is not None:
            orbits.clear()
            orbits[root] = pair
    return pair


def _window_start(member, limit: int, floor: int, s: int, doomed,
                  give_up: bool = False) -> int | None:
    """Start of the first window [t, t+s] of members with t+s <= limit,
    pushed down while membership holds but never below ``floor``.

    ``member(t)`` is None when the iterate at t is past the length cap,
    which raises BudgetExhausted.  None when no window opens by ``limit``.

    ``doomed(hi)`` is True only if ``member(u)`` is None for some u in
    [0, hi].  Before testing t with a run of r members behind it, the
    upward scan asks it about hi = min(t + s - r, limit): steps below t
    have been tested, so a yes names a miss in [t, hi].  A window
    completes at t + s - r at the earliest, and any later one starts after
    a miss in that range, so the scan would reach such a u before
    completing a window, or stop at ``limit`` first.  A yes raises
    BudgetExhausted at once, as testing on would.  The push-down never
    asks.

    With ``give_up`` the scan answers None as soon as t + s - r > limit:
    no window can complete by ``limit`` any more, though testing on might
    still raise.  Only a caller to whom a miss and a budget stop are one
    answer may ask for it; the iterates it skips are an orbit's longest.
    """
    def test(t: int) -> bool:
        m = member(t)
        if m is None:
            raise BudgetExhausted("iterates exceeded the length cap")
        return m

    run = 0
    for t in range(limit + 1):
        if give_up and t + s - run > limit:
            return None
        if doomed(min(t + s - run, limit)):
            raise BudgetExhausted("iterates exceeded the length cap")
        run = run + 1 if test(t) else 0
        if run > s:
            start = t - s
            while start > floor and test(start - 1):
                start -= 1
            return start
    return None


def _w_scan(ctx: WContext, c: str, forward: bool, orbits: dict | None,
            limit: int | None = None) -> WResult:
    """The scans of :func:`w_of`, unmemoized, of a cyclically reduced class.

    The class c = r^k is scanned along the orbits of its primitive root r.
    Its iterate at step t is x^k, x the root's; when len(x) >= L - 1, L
    the segment length, x + x already holds every length-L window of the
    periodic line of x and x^2k no other, so membership reads x alone.
    With ``limit`` the backward scan looks only for a window that
    completes by that step, and gives up once none can; NotDefined or
    BudgetExhausted then says only that there is none.  The forward entry
    gives up the same way, as a budget stop and a miss both leave it None.
    The full backward scan tests on to the horizon, where the two are
    different answers.
    """
    root = primitive_root(c)
    k = len(c) // len(root) if root else 1
    h = ctx.cfg.horizon
    back, fore = _root_orbits(ctx, root, orbits)
    seg_len = {"+": len(ctx.seg_plus), "-": len(ctx.seg_minus)}

    def inside(t: int, side: str) -> bool | None:
        """Membership of the class at backward time t (forward time -t)."""
        word = back.get(t, k) if t >= 0 else fore.get(-t, k)
        if word is None:
            return None
        if len(word) < seg_len[side] - 1:
            word *= k
        return in_U(ctx, word, side)

    top = h if limit is None else min(limit, h)
    try:
        w = _window_start(lambda t: inside(t, "-"), top, -h, STABILITY,
                          partial(back.doomed, k), limit is not None)
    except BudgetExhausted:
        return WResult(BUDGET)
    if w is None:
        return WResult(NOT_DEFINED)
    if w == -h:
        return WResult(BUDGET)
    entry = None
    if forward:
        with suppress(BudgetExhausted):
            entry = _window_start(lambda i: inside(-i, "+"), h, -h,
                                  STABILITY, partial(fore.doomed, k), True)
        if entry == -h:
            entry = None
    return WResult(DEFINED, w, entry)


# Longer translates stay unrotated, as orbit iterates do (see
# _LazyOrbit.get); only short witnesses need canonical form.
_CANONICAL_MAX = 10_000


def _translation_rows(ctx: WContext, classes, steps: int, forward: bool):
    """Rows k = 0..steps: the cyclically reduced k-step translates of
    ``classes``, forward or backward, in order.  Each chain is built once;
    a class whose translate outgrows the length cap drops out of that row
    and every later one."""
    bm = ctx.fwd if forward else ctx.bwd
    alive = [cyclic_reduce(c) for c in classes]
    yield alive
    for _ in range(steps):
        images = (_orbit_step(bm, w, ctx.cfg.iterate_cap,
                              ctx.cancellation_bound) for w in alive)
        alive = [w for w in images if w is not None]
        yield alive


def _translate_form(w: str) -> str:
    return _canonical_reduced(w) if len(w) < _CANONICAL_MAX else w


def translate_class(ctx: WContext, cyclic: str, m: int) -> str:
    rows = _translation_rows(ctx, [cyclic], abs(m), forward=m >= 0)
    row = next(islice(rows, abs(m), None))
    if not row:
        raise BudgetExhausted("translated class exceeded the length cap")
    return _translate_form(row[0])


# max cyclic length of a candidate class: short classes sample W(S) well
CAND_LEN = 4
# max candidates per factor system: each costs an orbit scan of w_of
CAND_CAP = 24


def candidate_classes(ffs: FreeFactorSystem) -> list[str]:
    """The first ``CAND_CAP`` canonical cyclic words up to ``CAND_LEN``
    letters carried by a proper system."""
    if not ffs.is_proper:
        raise InvalidInput("candidates are enumerated for proper systems only")
    return enumerate_classes(ffs, CAND_LEN, CAND_CAP)


# ---------------------------------------------------------------------------
# W of factor systems and splittings


@dataclass(frozen=True)
class WValue:
    value: int
    witness: str
    n_candidates: int


def W_of_ffs(ctx: WContext, ffs: FreeFactorSystem,
             candidates=None) -> WValue:
    """Least orbit phase over candidate classes carried by the system, and
    the least class in sort order that reaches it: a sample minimum,
    within the empirical constant of the true one.  One cut pass of
    :func:`_least_phase` over the candidates in ``sort_key`` order."""
    if candidates is None:
        candidates = candidate_classes(ffs)
    candidates = sorted(candidates, key=sort_key)
    best = _least_phase(ctx, candidates)
    if best is None:
        raise NotApplicable("no candidate class has a defined orbit phase")
    return WValue(best[0], best[1], len(candidates))


def _W_or_none(ctx: WContext, ffs: FreeFactorSystem,
               candidates=None) -> int | None:
    """W_of_ffs's value, None when no candidate has a defined phase.  The
    shortest candidates go first, so that the scans the cut cannot
    shorten, those up to the first defined phase, are the cheapest."""
    if candidates is None:
        candidates = candidate_classes(ffs)
    best = _least_phase(ctx, sorted(candidates, key=len))
    return None if best is None else best[0]


def _least_phase(ctx: WContext, candidates):
    """The candidate loop of :func:`W_of_ffs`: the least phase over the
    cyclically reduced ``candidates`` with a defined one, and the first
    candidate to reach it; None when no candidate has a defined phase.

    Once a phase b is found, each later candidate is scanned only as far
    as could give a smaller one: a cut scan of :func:`w_of`.  Its first
    backward window starts at t0 >= 0, and only one with t0 = 0 is pushed
    down, as a member just before a later t0 would have completed a window
    a step earlier.  So a phase below b needs a window that completes by
    max(b - 1, 0) + ``STABILITY``.  A window found by then is the full
    scan's own; a miss or a budget stop says the full scan gives no
    smaller phase.  So the least phase is right in any order, and so is
    the class when the candidates come in sort order: the first to reach
    the least phase is then the least class among the ties, and a later
    one matters only with a smaller phase.
    """
    best = None
    orbits = {}
    for c in candidates:
        limit = None if best is None else max(best[0] - 1, 0) + STABILITY
        res = w_of(ctx, c, forward=False, orbits=orbits, limit=limit)
        if res.defined and (best is None or res.value < best[0]):
            best = (res.value, c)
    return best


def estimate_M(ctx: WContext, samples) -> int:
    """Empirical constant: max in-sample phase spread and forward-entry lag.

    ``samples`` is a list of class lists; a list should either share a
    proper factor system or be a translation batch.  Sets the constant on
    the context and returns it (always at least 1).
    """
    spreads = []
    lags = []
    orbits = {}
    for group in samples:
        values = []
        for c in group:
            # a translation batch repeats classes of the group before it,
            # which the context's memo answers
            res = w_of(ctx, c, orbits=orbits)
            if res.defined:
                values.append(res.value)
                if res.fwd_entry is not None:
                    lags.append(res.fwd_entry + res.value)
        if len(values) >= 2:
            spreads.append(max(values) - min(values))
    if not spreads and not lags:
        raise NotApplicable("no sample group produced two defined phases")
    m_hat = max([1] + spreads + lags)
    ctx.m_hat = int(m_hat)
    return ctx.m_hat


def default_m_samples(ctx: WContext, splittings) -> list[list[str]]:
    """Sample groups: each splitting's candidates plus their translates."""
    groups = []
    for s in splittings:
        cands = candidate_classes(s.elliptic)
        groups.append(list(cands))
        shifted = []
        for c in cands[: max(2, len(cands) // 4)]:
            with suppress(BudgetExhausted):
                shifted.append(translate_class(ctx, c, 1))
        if shifted:
            groups.append(list(cands[: len(shifted)]) + shifted)
    return groups


# ---------------------------------------------------------------------------
# Displacement, Lipschitz, divergence reports


def apply_basis_map_to_ffs(bm: BasisMap, ffs: FreeFactorSystem) -> FreeFactorSystem:
    """Image of a factor system under an automorphism given by basis images."""
    comps = []
    for c in ffs.components:
        gens = [apply_map(bm, w) for w in c.basis_words()]
        comps.append(fold(ffs.ambient_rank, gens))
    return FreeFactorSystem(ffs.ambient_rank, _dedupe(tuple(comps)))


# translations at which displacement_table re-enumerates raw candidates
RAW_CHECKS = (2, -2)
# The paper's coarse Lipschitz factor: adjacent one-edge splittings have W
# within LIPSCHITZ_FACTOR * M-hat, so W moves at least 1 / (LIPSCHITZ_FACTOR
# * M-hat) per unit of distance in the free splitting complex.
LIPSCHITZ_FACTOR = 8


def displacement_table(ctx: WContext, s: OneEdgeSplitting, radius: int) -> dict:
    """W of the splitting translated through [-radius, radius].

    Candidates are transported with the translation, making the slope an
    exact integer law; raw re-enumeration at ``RAW_CHECKS`` cross-checks
    the sample minimum within the empirical constant.  Each row is
    :func:`W_of_ffs` of its translates.
    """
    base = candidate_classes(s.elliptic)
    if not base:
        raise NotApplicable("no candidates for the elliptic system")
    values = {}
    # translation by -m: m <= 0 along the forward chains, m > 0 backward
    for sign in (-1, 1):
        rows = _translation_rows(ctx, base, radius, forward=sign < 0)
        for k, row in enumerate(rows):
            if sign * k not in values:
                values[sign * k] = W_of_ffs(ctx, s.elliptic,
                                            map(_translate_form, row))
    table = {m: values[m].value for m in sorted(values)}
    witnesses = {m: values[m].witness for m in sorted(values)}
    slope_exact = all(table[m] == table[0] - m for m in table)
    raw = {}
    for m in RAW_CHECKS:
        if abs(m) > radius:
            continue
        bm = ctx.bwd if m > 0 else ctx.fwd
        ffs_m = s.elliptic
        for _ in range(abs(m)):
            ffs_m = apply_basis_map_to_ffs(bm, ffs_m)
        raw[m] = _W_or_none(ctx, ffs_m)
    m_hat = ctx.m_hat
    raw_ok = all(v is None or m_hat is None or abs(v - table[m]) <= m_hat
                 for m, v in raw.items())
    return {
        "radius": radius,
        "table": table,
        "witnesses": witnesses,
        "slope_exact": slope_exact,
        "raw_spot_checks": raw,
        "raw_within_m_hat": raw_ok,
        "m_hat": m_hat,
        "distance_rate_lower_bound": (
            None if not m_hat else 1.0 / (LIPSCHITZ_FACTOR * m_hat)),
    }


def lipschitz_check(ctx: WContext, splitting_pairs) -> dict:
    """Coarse Lipschitz law of W on the free splitting complex: adjacent
    one-edge splittings S1, S2 have |W(S1) - W(S2)| <= LIPSCHITZ_FACTOR *
    M-hat.  Acceptance criterion 4 checks it on translated sibling pairs."""
    m_hat = ctx.require_m()
    rows = []
    violations = 0
    max_ratio = 0.0
    skipped = 0
    for s1, s2 in splitting_pairs:
        try:
            w1 = W_of_ffs(ctx, s1.elliptic)
            w2 = W_of_ffs(ctx, s2.elliptic)
        except NotApplicable:
            skipped += 1
            continue
        delta = abs(w1.value - w2.value)
        ok = delta <= LIPSCHITZ_FACTOR * m_hat
        if not ok:
            violations += 1
        max_ratio = max(max_ratio, delta / m_hat)
        rows.append({"w1": w1.value, "w2": w2.value, "delta": delta, "ok": ok})
    return {
        "m_hat": m_hat,
        "bound": LIPSCHITZ_FACTOR * m_hat,
        "pairs": rows,
        "n_pairs": len(rows),
        "skipped": skipped,
        "violations": violations,
        "max_ratio_to_m_hat": max_ratio,
    }


# A psi-iterate longer than this is dropped: w_of scans up to 2 * horizon
# iterates of a class, so long candidates would dominate the table's cost.
_DIVERGENCE_EVAL_CAP = 2_000
# Letter cap for divergence_check's scans and phi translations, in place of
# iterate_cap (10**6): no one candidate of dozens builds a million letters.
_DIVERGENCE_ORBIT_CAP = 200_000
# divergence_check's rows: psi-iterates 0.._PSI_STEPS, phi translates
# 0.._PHI_STEPS.  Bounded needs _BAND + 1 consecutive psi rows within twice
# the constant, the first by row _BAND (criterion 8 reads such a band on
# the divergence fixture), so the search reads rows up to 2 * _BAND; six
# phi rows show the unit slope, each a pass over longer translates.
_BAND = 10
_PSI_STEPS = 2 * _BAND
_PHI_STEPS = 6


def divergence_check(ctx: WContext, psi: BasisMap,
                     t: OneEdgeSplitting) -> dict:
    """Orbit of a splitting's system under a second automorphism.

    The table of W along psi-iterates is Unbounded on a constant unit
    drift, Bounded when some window of ``_BAND`` + 1 rows stays within a
    band of twice the constant; the table along the context's own
    automorphism should move with exact unit slope.  Each row is a value
    pass of :func:`_least_phase`.  Candidates follow psi by
    ``_orbit_step``; one longer than ``_DIVERGENCE_EVAL_CAP`` is dropped
    for good (recorded).  Only ``_DIVERGENCE_ORBIT_CAP`` bounds phi moves.
    """
    m_hat = ctx.require_m()
    # the copy shares the context's maps, and with them their block memos
    ctx = replace(ctx, cfg=replace(ctx.cfg, iterate_cap=_DIVERGENCE_ORBIT_CAP))
    psi = MapTables(psi)
    base = candidate_classes(t.elliptic)
    psi_table: dict[int, int | None] = {}
    dropped: dict[int, int] = {}
    alive = base
    for l in range(_PSI_STEPS + 1):
        if l:
            steps = (_orbit_step(psi, w, _DIVERGENCE_EVAL_CAP, None)
                     for w in alive)
            alive = [w for w in steps if w is not None]
        dropped[l] = len(base) - len(alive)
        psi_table[l] = _W_or_none(ctx, t.elliptic, alive) if alive else None
    phi_table = {}
    for k, row in enumerate(_translation_rows(ctx, base, _PHI_STEPS, True)):
        moved = [_translate_form(w) for w in row]
        phi_table[k] = _W_or_none(ctx, t.elliptic, moved) if moved else None
    phi_slope = all(
        phi_table[k] is not None and phi_table[k] == phi_table[0] + k
        for k in phi_table)
    verdict = "Unknown"
    band_start = None
    defined = sorted(l for l, v in psi_table.items() if v is not None)
    diffs = [psi_table[defined[i + 1]] - psi_table[defined[i]]
             for i in range(len(defined) - 1)
             if defined[i + 1] == defined[i] + 1]
    if len(diffs) >= 3 and (all(d == 1 for d in diffs)
                            or all(d == -1 for d in diffs)):
        verdict = "Unbounded"
    else:
        for n0 in range(_BAND + 1):
            window = [psi_table.get(l) for l in range(n0, n0 + _BAND + 1)]
            if all(v is not None for v in window):
                if max(window) - min(window) <= 2 * m_hat:
                    verdict = "Bounded"
                    band_start = n0
                    break
    return {
        "psi_table": psi_table,
        "phi_table": phi_table,
        "phi_slope_exact": phi_slope,
        "verdict": verdict,
        "band_start": band_start,
        "band_width_bound": 2 * m_hat,
        "m_hat": m_hat,
        "dropped_candidates": dropped,
    }
