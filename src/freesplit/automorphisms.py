"""Endomorphisms of a free group given by basis images.

A basis map on rank ``n`` is a tuple of ``n`` reduced words (images of
the basis letters) over the internal alphabet of :mod:`freesplit.words`.
This layer supplies map application and composition, abelianization,
and two exact decisions with no budget: the inverse of an automorphism,
read off the labelled Stallings fold of :mod:`freesplit.factors` applied
to its images, and equality in the outer automorphism group, which asks
whether one map after the other's inverse is conjugation by a word.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InvalidInput
from .factors import _fold, _wedge
from .words import (FWD, BWD, count_crossings, image_table, invert, is_fwd,
                    reduce_images, reduce_word, stop_table, strip_cyclic)

BasisMap = tuple[str, ...]


def identity_map(rank: int) -> BasisMap:
    return tuple(FWD[i] for i in range(rank))


# A word of at least two blocks of this many letters is mapped block by block.
# Blocks of 128 or 256 letters made orbit scans 2-3 times slower: longer
# blocks repeat less often.
_BLOCK = 64
# A new block's image is glued from the memoized images of its grams, runs
# of this many letters, which repeat more often than blocks; 8 and 32 were
# both slower on orbit scans.
_GRAM = 16
# A map's block memo stops growing once it holds this many letters.
_MEMO_LETTERS = 1 << 21


class MapTables(BasisMap):
    """A map with the tables :func:`reduce_images` reads for it: a basis
    map, a graph map's edge images or a marking and its inverse.

    The tuple is the map's reduced images, so it compares and hashes as the
    plain tuple.  ``images`` and ``stop`` are keyed by the letters and, as a
    memo, by the blocks of the long words :func:`apply_map` has mapped so
    far and by the grams those blocks were built from: a gram has
    ``_GRAM`` letters and a block at least ``_BLOCK``, so the keys never
    clash.  ``room`` is how many more letters (key plus image) the memo
    may store.
    The memo lives as long as the map, so wrap a map once where it is
    applied many times, as an orbit does.  It is the only thing that
    changes, and it never changes an output; callers must not mutate the
    tables.  With ``memo=False`` the memo has no room and no word is cut
    into blocks.  Graph maps and markings keep none: they map few long
    paths, whose blocks seldom repeat, and a marked graph outlives the many
    maps whose paths it transports, so their memos only held memory.
    """

    def __new__(cls, bm: BasisMap, memo: bool = True):
        self = super().__new__(cls, map(reduce_word, bm))
        self.images = image_table(self)
        self.stop = stop_table(self.images)
        self.memo = memo
        self.room = _MEMO_LETTERS if memo else 0
        return self

    def store(self, blocks) -> bool:
        """Memoize the reduced images of ``blocks``; False once the memo is
        full, with the blocks that did not fit left out.

        A block is cut into grams of ``_GRAM`` letters, the last few
        letters left single; a gram not yet in the memo is mapped letter by
        letter and stored, and the block's image is the gram and letter
        images glued by :func:`reduce_images`, which cancels across each
        junction, so it equals the letter-by-letter image.
        """
        images = self.images
        for b in blocks:
            cut = len(b) - len(b) % _GRAM
            keys = [b[i:i + _GRAM] for i in range(0, cut, _GRAM)]
            for g in set(keys).difference(images):
                if not self._put(g, reduce_images(images, g, self.stop)):
                    return False
            keys += b[cut:]
            if not self._put(b, reduce_images(images, keys, self.stop)):
                return False
        return True

    def _put(self, key: str, img: str) -> bool:
        """Store ``img`` as the image of ``key`` if the memo has room."""
        if len(key) + len(img) > self.room:
            return False
        self.room -= len(key) + len(img)
        self.images[key] = img
        self.stop[key] = invert(img[0]) if img else None
        return True

    def unreduced_length(self, word: str) -> int:
        """Length of the concatenated images of the letters of ``word``,
        before free reduction; the memo's block keys are not read."""
        return sum(count_crossings(word, i) * len(w)
                   for i, w in enumerate(self))

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
    this call; a :class:`MapTables` built with ``memo=False`` maps every
    word letter by letter through its own tables, and one with a memo a
    word shorter than two blocks.  That one cuts a longer word into blocks
    of ``_BLOCK`` letters, the last one taking the remainder; the reduced
    image of each block is looked up in the map's memo (computed by the
    letter kernel on a miss) and the block images are glued by the same
    kernel, which cancels across each junction.  Free reduction is confluent, so the
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
    if t is not bm or not t.memo or n < 2 * _BLOCK:
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


# ---------------------------------------------------------------------------
# Inversion by a labelled fold


def invert_map(bm: BasisMap) -> BasisMap:
    """The inverse automorphism, read off a labelled Stallings fold.

    The wedge of loops spelling the images is folded onto the rose by
    :func:`freesplit.factors._fold`.  Each edge also carries a domain word:
    the first edge of loop i reads x_i and the others read nothing, so a
    loop at the base 0 spelling w carries a domain word d with bm(d) = w.
    The fold never re-gauges the base, so the petal x_j of the folded rose
    reads bm^-1(x_j).  Raises InvalidInput unless the fold ends at the rose
    (n words generate F_n exactly when they are a basis) and the result
    inverts ``bm``.
    """
    n = len(bm)
    images = [reduce_word(w) for w in bm]
    if not all(images):
        raise InvalidInput("trivial basis image; not an automorphism")
    words = []
    for i, w in enumerate(images):
        words += [FWD[i] if is_fwd(w[0]) else BWD[i]] + [""] * (len(w) - 1)
    folded = _fold(_wedge(images), words)
    if folded.keys() != {(j, 0, 0) for j in range(n)}:
        raise InvalidInput("basis images do not generate; not an automorphism")
    inv = tuple(folded[j, 0, 0] for j in range(n))
    if compose_maps(bm, inv) != identity_map(n):
        raise InvalidInput("basis images do not define an automorphism")
    return inv


# ---------------------------------------------------------------------------
# Outer equality

EQUAL = "Equal"
DISTINCT = "Distinct"


def outer_equal(f: BasisMap, g: BasisMap):
    """Decide equality of f and g in the outer automorphism group.

    Returns (EQUAL, u) with u the word such that f(x) = u g(x) u^-1 for
    every basis letter x, or (DISTINCT, None).  Equal images give
    (EQUAL, "") at once, as the relation maps that keep a marking do;
    otherwise ``g`` must be an automorphism (InvalidInput if not) and
    ``f`` may be any endomorphism.

    f = g in Out exactly when h = f g^-1 is inner.  An inner h = c_u maps
    x1 to p x1 p^-1, and then u = p x1^m where p^-1 h(x2) p reads
    x1^m x2 x1^-m: its leading run of x1^(+-1) gives m.  The candidate u
    is checked on every letter.  In rank at least 2 the centralizer of
    F_n is trivial, so u is unique.
    """
    n = len(f)
    if n != len(g):
        raise InvalidInput("rank mismatch")
    f, g = tuple(map(reduce_word, f)), tuple(map(reduce_word, g))
    if f == g:
        return EQUAL, ""
    h = f if g == identity_map(n) else compose_maps(f, invert_map(g))
    if strip_cyclic(h[0]) != FWD[0]:
        return DISTINCT, None
    u = h[0][:len(h[0]) // 2]
    if n > 1:
        v = reduce_word(invert(u) + h[1] + u)
        if v[:1] in (FWD[0], BWD[0]):
            u += v[:len(v) - len(v.lstrip(v[0]))]
    ui = invert(u)
    if all(reduce_word(u + FWD[i] + ui) == h[i] for i in range(n)):
        return EQUAL, u
    return DISTINCT, None
