"""Endomorphisms of a free group given by basis images.

A basis map on rank ``n`` is a tuple of ``n`` reduced words (images of
the basis letters) over the internal alphabet of :mod:`freesplit.words`.
This layer supplies composition, abelianization, inversion by Nielsen
reduction with recorded elementary moves, and a budgeted decision
procedure for equality in the outer automorphism group.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BudgetExhausted, InvalidInput
from .words import (FWD, BWD, image_table, invert, is_fwd, reduce_images,
                    reduce_word, slot)

BasisMap = tuple[str, ...]


def identity_map(rank: int) -> BasisMap:
    return tuple(FWD[i] for i in range(rank))


@lru_cache(maxsize=64)
def _image_table(bm: BasisMap) -> dict[str, str]:
    # The images are reduced once per map, as reduce_images requires; an
    # orbit applies one map many times.  Callers must not mutate the table.
    return image_table([reduce_word(w) for w in bm])


def apply_map(bm: BasisMap, word: str) -> str:
    """Reduced image of ``word``."""
    return reduce_images(_image_table(tuple(bm)), word)


def compose_maps(f: BasisMap, g: BasisMap) -> BasisMap:
    """Composition f after g: x maps to f(g(x))."""
    if len(f) != len(g):
        raise InvalidInput("rank mismatch in composition")
    table = _image_table(tuple(f))
    return tuple(reduce_images(table, w) for w in g)


def abelianization(bm: BasisMap) -> tuple[tuple[int, ...], ...]:
    """Integer matrix: entry (i, j) is the exponent sum of letter i in bm[j]."""
    n = len(bm)
    cols = []
    for w in bm:
        col = [0] * n
        for ch in w:
            col[slot(ch)] += 1 if is_fwd(ch) else -1
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def is_signed_basis(bm: BasisMap) -> bool:
    if any(len(w) != 1 for w in bm):
        return False
    slots = [slot(w) for w in bm]
    return sorted(slots) == list(range(len(bm)))


def _generates_whole_group(bm: BasisMap) -> bool:
    # n words generate F_n iff they generate freely; checked by folding the
    # wedge of loops and asking for the based rose.  Imported here because
    # factors imports this module: the one import that breaks the cycle.
    from .factors import folds_to_rose

    return folds_to_rose(bm, len(bm))


# ---------------------------------------------------------------------------
# Inversion by Nielsen reduction


def _elementary_moves(n: int):
    # (i, j, side, sign): replace w_i by  w_i * w_j^sign  (side="R")
    # or  w_j^sign * w_i  (side="L").  Deterministic enumeration order.
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for side in "RL":
                for sign in (1, -1):
                    yield i, j, side, sign


def _apply_move(tup: list[str], move) -> str:
    i, j, side, sign = move
    other = tup[j] if sign == 1 else invert(tup[j])
    return reduce_word(tup[i] + other if side == "R" else other + tup[i])


def _move_basis_map(n: int, move) -> BasisMap:
    # Precomposition substitution corresponding to a tuple move.
    i, j, side, sign = move
    letter = FWD[j] if sign == 1 else BWD[j]
    images = list(identity_map(n))
    images[i] = FWD[i] + letter if side == "R" else letter + FWD[i]
    return tuple(images)


def invert_map(bm: BasisMap, budget: int = 4000) -> BasisMap:
    """Inverse automorphism via greedy Nielsen reduction of the image tuple.

    Raises InvalidInput when the images do not define an automorphism
    (certified by folding), BudgetExhausted if reduction stalls on a
    length plateau longer than the budget allows.
    """
    n = len(bm)
    if any(not w for w in bm):
        raise InvalidInput("trivial basis image; not an automorphism")
    if is_signed_basis(bm):
        return _invert_signed_basis(bm)
    if not _generates_whole_group(bm):
        raise InvalidInput("basis images do not generate; not an automorphism")

    tup = [reduce_word(w) for w in bm]
    moves = []
    steps = 0
    while not is_signed_basis(tuple(tup)):
        if steps > budget:
            raise BudgetExhausted("Nielsen reduction exceeded budget")
        steps += 1
        best = None
        for move in _elementary_moves(n):
            new = _apply_move(tup, move)
            gain = len(tup[move[0]]) - len(new)
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, move, new)
        if best is not None:
            _, move, new = best
            tup[move[0]] = new
            moves.append(move)
            continue
        plateau = _escape_plateau(tup, n, budget)
        if plateau is None:
            # Generating n-tuples always reduce to a signed basis, so a
            # genuine dead end means the fold check above was fooled;
            # treat as a budget problem rather than guessing.
            raise BudgetExhausted("Nielsen reduction stalled")
        moves.extend(plateau[0])
        tup = plateau[1]

    rho = tuple(tup)
    rho_inv = _invert_signed_basis(rho)
    acc = rho_inv
    for move in reversed(moves):
        acc = compose_maps(_move_basis_map(n, move), acc)
    return acc


def _invert_signed_basis(bm: BasisMap) -> BasisMap:
    n = len(bm)
    images = [""] * n
    for i, w in enumerate(bm):
        s = slot(w)
        images[s] = FWD[i] if is_fwd(w) else BWD[i]
    return tuple(images)


def _escape_plateau(tup: list[str], n: int, budget: int):
    """Search length-neutral move sequences (depth <= 2) enabling a reduction."""
    seen = {tuple(tup)}
    frontier = [([], list(tup))]
    for _ in range(2):
        nxt = []
        for prefix, state in frontier:
            for move in _elementary_moves(n):
                new_word = _apply_move(state, move)
                if len(new_word) != len(state[move[0]]):
                    continue
                cand = list(state)
                cand[move[0]] = new_word
                key = tuple(cand)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > budget:
                    return None
                seq = prefix + [move]
                for move2 in _elementary_moves(n):
                    reduced = _apply_move(cand, move2)
                    if len(reduced) < len(cand[move2[0]]):
                        cand[move2[0]] = reduced
                        return seq + [move2], cand
                nxt.append((seq, cand))
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# Outer equality

EQUAL = "Equal"
DISTINCT = "Distinct"
UNKNOWN = "Unknown"


def _peel(word: str) -> tuple[str, str]:
    """Split reduced word as p * core * p^-1 with core cyclically reduced."""
    i, j = 0, len(word)
    while j - i >= 2 and word[j - 1] == invert(word[i]):
        i += 1
        j -= 1
    return word[:i], word[i:j]


def _root(word: str) -> str:
    """Smallest γ with word = γ^d."""
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[:p] * (n // p):
            return word[:p]
    return word


def outer_equal(f: BasisMap, g: BasisMap, budget: int = 4000):
    """Decide equality of f, g in the outer automorphism group.

    Returns (verdict, conjugator): verdict is EQUAL with a witness word u
    satisfying f(x) = u g(x) u^-1 for every basis letter, DISTINCT with a
    certificate (abelianization mismatch or exhausted complete conjugator
    family), or UNKNOWN when the certified search would exceed budget.
    """
    if len(f) != len(g):
        raise InvalidInput("rank mismatch")
    f = tuple(reduce_word(w) for w in f)
    g = tuple(reduce_word(w) for w in g)
    if f == g:
        return EQUAL, ""
    if any((a == "") != (b == "") for a, b in zip(f, g)):
        return DISTINCT, None
    if abelianization(f) != abelianization(g):
        return DISTINCT, None

    anchor = next((i for i in range(len(f)) if g[i]), None)
    if anchor is None:
        return (EQUAL, "") if f == g else (UNKNOWN, None)

    p, alpha = _peel(f[anchor])
    q, beta = _peel(g[anchor])
    if len(alpha) != len(beta):
        return DISTINCT, None
    gamma = _root(beta)
    doubled = beta + beta
    rotations = [k for k in range(len(beta)) if doubled[k : k + len(beta)] == alpha]
    if not rotations:
        return DISTINCT, None

    max_target = max(len(w) for w in f)
    max_source = max(len(w) for w in g)
    m_bound = 2 * (max_target + max_source) // max(1, len(gamma)) + 4
    if (len(rotations) * (2 * m_bound + 1)) > budget:
        return UNKNOWN, None

    for k in rotations:
        base = reduce_word(p + invert(beta[:k]))
        tail = invert(q)
        for m in range(-m_bound, m_bound + 1):
            power = gamma * m if m >= 0 else invert(gamma) * (-m)
            u = reduce_word(base + power + tail)
            ui = invert(u)
            if all(reduce_word(u + g[i] + ui) == f[i] for i in range(len(f))):
                return EQUAL, u
    return DISTINCT, None
