"""Endomorphisms of a free group given by basis images.

A basis map on rank ``n`` is a tuple of ``n`` reduced words (images of
the basis letters) over the internal alphabet of :mod:`freesplit.words`.
This layer supplies composition, abelianization, inversion by Nielsen
reduction with recorded elementary moves, and a budgeted decision
procedure for equality in the outer automorphism group.
"""

from __future__ import annotations

from functools import cached_property

from .config import DEFAULT
from .errors import BudgetExhausted, InvalidInput
from .factors import folds_to_rose
from .words import (FWD, BWD, image_table, invert, is_fwd, junction,
                    primitive_root, reduce_images, reduce_word, slot,
                    stop_table, strip_cyclic)

BasisMap = tuple[str, ...]


def identity_map(rank: int) -> BasisMap:
    return tuple(FWD[i] for i in range(rank))


# A word of at least two blocks of this many letters is mapped block by block.
_BLOCK = 64
# A map's block memo stops growing once it holds this many letters.
_MEMO_LETTERS = 1 << 21


class MapTables(BasisMap):
    """A basis map with the tables :func:`reduce_images` reads for it.

    The tuple is the map's reduced images, so it compares and hashes as the
    plain tuple.  ``images`` and ``stop`` are keyed by the letters and, as a
    memo, by the blocks of the long words :func:`apply_map` has mapped so
    far: a block has at least ``_BLOCK`` letters, so the keys never clash.
    ``room`` is how many more letters (block plus image) the memo may store.
    The memo lives as long as the map, so wrap a map once where it is
    applied many times, as an orbit does.  It is the only thing that
    changes, and it never changes an output; callers must not mutate the
    tables.
    """

    def __new__(cls, bm: BasisMap):
        self = super().__new__(cls, map(reduce_word, bm))
        self.images = image_table(self)
        self.stop = stop_table(self.images)
        self.room = _MEMO_LETTERS
        return self

    def store(self, blocks) -> bool:
        """Memoize the reduced images of ``blocks``; False once the memo is
        full, with the blocks that did not fit left out."""
        images, stop = self.images, self.stop
        for b in blocks:
            if len(b) > self.room:
                return False
            img = reduce_images(images, b, stop)
            if len(b) + len(img) > self.room:
                return False
            self.room -= len(b) + len(img)
            images[b] = img
            stop[b] = invert(img[0]) if img else None
        return True

    @cached_property
    def abelian(self) -> tuple[tuple[int, ...], ...]:
        """The abelianization matrix A: ab(f(x)) = A ab(x)."""
        return abelianization(self)

    @cached_property
    def norm(self) -> int:
        """||A||_1, the greatest column sum of absolute values of A: a
        step multiplies the 1-norm of an abelianization by at most this."""
        return max(sum(map(abs, col)) for col in zip(*self.abelian))


def _tables(bm: BasisMap) -> MapTables:
    return bm if isinstance(bm, MapTables) else MapTables(bm)


def apply_map(bm: BasisMap, word: str) -> str:
    """Reduced image of ``word``.

    A plain tuple maps ``word`` letter by letter through tables built for
    this call, as does a :class:`MapTables` a word shorter than two blocks.
    A :class:`MapTables` cuts a longer word into blocks of ``_BLOCK``
    letters, the last one taking the remainder; the reduced image of each
    block is looked up in the map's memo (computed by the letter kernel on
    a miss) and the block images are glued by the same kernel, which
    cancels across each junction.  Free reduction is confluent, so the
    result equals the letter-by-letter image.  Orbit iterates have few
    distinct factors of one length (Pansiot, ICALP 1984), so their blocks
    repeat and each is mapped once.  The memo of a map stops growing at
    ``_MEMO_LETTERS`` stored letters (blocks plus images); after that a
    word with an unstored block is mapped letter by letter.  Worst case
    extra memory, measured on random words: about 2.7 bytes per stored
    letter, up to 4 when block images are a letter or two long, so at most
    about 8 MiB per map.  The largest memo the benchmark workloads build
    holds 1.3M letters in 1.9 MB.
    """
    t = _tables(bm)
    n = len(word)
    if t is not bm or n < 2 * _BLOCK:
        return reduce_images(t.images, word, t.stop)
    last = n - n % _BLOCK - _BLOCK
    blocks = [word[i:i + _BLOCK] for i in range(0, last, _BLOCK)]
    blocks.append(word[last:])
    new = set(blocks).difference(t.images)
    if new and not t.store(new):
        return reduce_images(t.images, word, t.stop)
    return reduce_images(t.images, blocks, t.stop)


def compose_maps(f: BasisMap, g: BasisMap) -> BasisMap:
    """Composition f after g: x maps to f(g(x)); either may be a
    :class:`MapTables`."""
    if len(f) != len(g):
        raise InvalidInput("rank mismatch in composition")
    t = _tables(f)
    return tuple(reduce_images(t.images, w, t.stop) for w in g)


# abelian_vector and mat_vec build their tuples from lists: tuple() of a
# generator shrinks a tuple of guessed length, and CPython parks each such
# tuple on its free list when freed, one a call, up to 2,000 per length.
def abelian_vector(word: str, rank: int) -> tuple[int, ...]:
    """Exponent sum of each basis letter in ``word``: its image in Z^rank."""
    return tuple([word.count(FWD[i]) - word.count(BWD[i])
                  for i in range(rank)])


def abelianization(bm: BasisMap) -> tuple[tuple[int, ...], ...]:
    """Integer matrix: entry (i, j) is the exponent sum of letter i in bm[j]."""
    n = len(bm)
    return tuple(zip(*(abelian_vector(w, n) for w in bm)))


def mat_vec(a, v) -> tuple[int, ...]:
    """The integer matrix ``a`` (a tuple of rows) times the vector ``v``."""
    return tuple([sum(x * y for x, y in zip(row, v)) for row in a])


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    """The product of integer matrices given as tuples of rows."""
    return tuple(zip(*(mat_vec(a, col) for col in zip(*b))))


def is_signed_basis(bm: BasisMap) -> bool:
    if any(len(w) != 1 for w in bm):
        return False
    slots = [slot(w) for w in bm]
    return sorted(slots) == list(range(len(bm)))


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


def _move_words(tup: list[str], move) -> tuple[str, str]:
    # the two reduced words that the move concatenates
    i, j, side, sign = move
    other = tup[j] if sign == 1 else invert(tup[j])
    return (tup[i], other) if side == "R" else (other, tup[i])


def _gain(tup: list[str], move) -> int:
    """Length drop of the replaced word: 2k - |w_j|, with k the letters
    cancelling at the one junction of the two reduced words."""
    return 2 * junction(*_move_words(tup, move)) - len(tup[move[1]])


def _apply_move(tup: list[str], move) -> str:
    u, v = _move_words(tup, move)
    k = junction(u, v)
    return u[:len(u) - k] + v[k:]


def _move_basis_map(n: int, move) -> BasisMap:
    # Precomposition substitution corresponding to a tuple move.
    i, j, side, sign = move
    letter = FWD[j] if sign == 1 else BWD[j]
    images = list(identity_map(n))
    images[i] = FWD[i] + letter if side == "R" else letter + FWD[i]
    return tuple(images)


def invert_map(bm: BasisMap, budget: int = DEFAULT.outer_budget) -> BasisMap:
    """Inverse automorphism via greedy Nielsen reduction of the image tuple.

    Raises InvalidInput when the images do not define an automorphism
    (certified by folding), BudgetExhausted if reduction stalls on a
    length plateau longer than the budget allows.
    """
    if any(not w for w in bm):
        raise InvalidInput("trivial basis image; not an automorphism")
    if is_signed_basis(bm):
        return _invert_signed_basis(bm)
    # n words generate F_n iff they generate freely: fold their wedge of
    # loops and ask for the based rose.
    if not folds_to_rose(bm, len(bm)):
        raise InvalidInput("basis images do not generate; not an automorphism")

    moves, rho = _nielsen_reduce([reduce_word(w) for w in bm], budget)
    acc = _invert_signed_basis(rho)
    for move in reversed(moves):
        acc = compose_maps(_move_basis_map(len(bm), move), acc)
    return acc


def _nielsen_reduce(tup: list[str], budget: int):
    """Elementary moves taking the reduced tuple to a signed basis, and
    that basis.  Each step takes the first move of greatest gain."""
    n = len(tup)
    moves = []
    steps = 0
    while not is_signed_basis(tuple(tup)):
        if steps > budget:
            raise BudgetExhausted("Nielsen reduction exceeded budget")
        steps += 1
        best = None
        for move in _elementary_moves(n):
            gain = _gain(tup, move)
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, move)
        if best is not None:
            move = best[1]
            tup[move[0]] = _apply_move(tup, move)
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
    return moves, tuple(tup)


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
                if _gain(state, move) != 0:
                    continue
                cand = list(state)
                cand[move[0]] = _apply_move(state, move)
                key = tuple(cand)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > budget:
                    return None
                seq = prefix + [move]
                for move2 in _elementary_moves(n):
                    if _gain(cand, move2) > 0:
                        cand[move2[0]] = _apply_move(cand, move2)
                        return seq + [move2], cand
                nxt.append((seq, cand))
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# Outer equality

EQUAL = "Equal"
DISTINCT = "Distinct"
UNKNOWN = "Unknown"


def outer_equal(f: BasisMap, g: BasisMap, budget: int = DEFAULT.outer_budget):
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

    # f and g have empty images in the same places and f != g, so some
    # image of g is nonempty
    anchor = next(i for i, w in enumerate(g) if w)

    # f[anchor] = p alpha p^-1 and g[anchor] = q beta q^-1, with alpha and
    # beta cyclically reduced
    alpha, beta = strip_cyclic(f[anchor]), strip_cyclic(g[anchor])
    p = f[anchor][:(len(f[anchor]) - len(alpha)) // 2]
    q = g[anchor][:(len(g[anchor]) - len(beta)) // 2]
    if len(alpha) != len(beta):
        return DISTINCT, None
    gamma = primitive_root(beta)
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
