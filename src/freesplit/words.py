"""Reduced words over a signed alphabet.

Words and edge paths are plain Python strings over an internal alphabet:
slot i of a graph (or basis letter i of a free group) owns a forward
character FWD[i] and a backward character BWD[i].  Reversal of a path is
``invert``; free reduction is ``reduce_word``.  Using strings keeps the
hot operations (substring search, concatenation, counting) at C speed.
"""

from __future__ import annotations

import string

from .errors import InvalidInput

# 46 slots are plenty: graphs and roses in this library are desk scale.
FWD = string.ascii_lowercase + "0123456789!#$%&()*+"
BWD = string.ascii_uppercase + "<>?@[]^_{}~;:,=|-./"
MAX_SLOTS = len(FWD)
assert len(FWD) == len(BWD)

_SWAP = str.maketrans(FWD + BWD, BWD + FWD)
_INV = {**{f: b for f, b in zip(FWD, BWD)}, **{b: f for f, b in zip(FWD, BWD)}}
_SLOT = {**{c: i for i, c in enumerate(FWD)}, **{c: i for i, c in enumerate(BWD)}}
# Total order on oriented letters: slot-major, forward before backward.
_SORT = str.maketrans(
    {**{FWD[i]: chr(256 + 2 * i) for i in range(MAX_SLOTS)},
     **{BWD[i]: chr(256 + 2 * i + 1) for i in range(MAX_SLOTS)}}
)


def sort_key(word: str) -> str:
    return word.translate(_SORT)


def slot(ch: str) -> int:
    """Slot index of an oriented letter."""
    return _SLOT[ch]


def is_fwd(ch: str) -> bool:
    return ch in _SLOT and FWD[_SLOT[ch]] == ch


def invert(word: str) -> str:
    """Inverse word: reverse and flip every letter."""
    return word.translate(_SWAP)[::-1]


def reduce_word(word: str) -> str:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    out: list[str] = []
    push = out.append
    pop = out.pop
    inv = _INV
    for ch in word:
        if out and out[-1] == inv[ch]:
            pop()
        else:
            push(ch)
    return "".join(out)


def image_table(images) -> dict[str, str]:
    """Letter-to-image table of a map given by the images of slots 0..n-1."""
    table = {}
    for i, w in enumerate(images):
        table[FWD[i]] = w
        table[BWD[i]] = invert(w)
    return table


def stop_table(images: dict[str, str]) -> dict[str, str | None]:
    """For each key of ``images``, the letter on top of the reduced prefix
    that its image would cancel first: the inverse of the image's first
    letter, None for an empty image.  Built once per table, not per call."""
    inv = _INV
    return {key: inv[img[0]] if img else None for key, img in images.items()}


def reduce_images(images: dict[str, str], word, stop) -> str:
    """Free reduction of the concatenated images of the keys of ``word``.

    ``word`` is a string of letters or a list of blocks of letters, any
    sequence of keys of ``images``; ``stop`` is ``stop_table(images)``,
    which callers build once per table.  Equals
    ``reduce_word("".join(images[key] for key in word))`` whenever every
    image is reduced; the letters of ``word`` need not be.  The reduced
    prefix is kept as a stack of image pieces.  An image whose first letter
    does not cancel the last letter of the stack is pushed whole; otherwise
    it cancels from its front against the top piece, trimming or popping
    it, and its uncancelled rest is pushed.  So the Python loop runs once
    per key of ``word`` and once per cancelled letter, not once per output
    letter.
    """
    inv = _INV
    stack: list[str] = []
    push = stack.append
    last = ""
    for key in word:
        img = images[key]
        if stop[key] != last:
            if img:
                push(img)
                last = img[-1]
            continue
        i, n = 0, len(img)
        while stack and i < n:
            top = stack[-1]
            j = len(top)
            while j and i < n and top[j - 1] == inv[img[i]]:
                j -= 1
                i += 1
            if j:
                if j < len(top):
                    stack[-1] = top[:j]
                break
            stack.pop()
        if i < n:
            push(img[i:] if i else img)
        last = stack[-1][-1] if stack else ""
    return "".join(stack)


def reduced_product(u: str, v: str) -> str:
    """``reduce_word(u + v)`` for reduced words ``u`` and ``v``: only the
    letters at their junction cancel, as many from each side."""
    inv = _INV
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == inv[v[k]]:
        k += 1
    return u[:len(u) - k] + v[k:]


def strip_cyclic(w: str) -> str:
    """Cyclically reduced form of a reduced word: strip cancelling end pairs."""
    i, j = 0, len(w)
    while j - i >= 2 and w[j - 1] == _INV[w[i]]:
        i += 1
        j -= 1
    return w[i:j]


def cyclic_reduce(word: str) -> str:
    """Cyclically reduced form: reduce, then strip cancelling end pairs."""
    return strip_cyclic(reduce_word(word))


def is_cyclically_reduced(word: str, rank: int) -> bool:
    """True if no letter of ``word``, a word over the first ``rank`` slots,
    stands next to its inverse, its last and first letters included.  One
    substring search per cancelling pair, at C speed, where
    :func:`cyclic_reduce` loops over the letters."""
    if len(word) > 1 and word[-1] == _INV[word[0]]:
        return False
    return not any(FWD[i] + BWD[i] in word or BWD[i] + FWD[i] in word
                   for i in range(rank))


def primitive_root(s: str) -> str:
    """Shortest ``u`` with ``s == u * d`` for some ``d``: the least ``p >= 1``
    at which ``s`` occurs in ``s + s`` is its least period dividing
    ``len(s)``."""
    return s[:(s + s).find(s, 1)]


def _least_rotation(s: str) -> int:
    """Index of a least rotation of the nonempty string ``s``.

    The search runs on the primitive root ``u`` of ``s``: ``s`` is a power
    of ``u``, so a rotation of ``u`` by ``i`` is one of ``s``.  Write
    ``R_i`` for the infinite periodic word read from position ``i`` of
    ``u``; its order is that of the rotations.  The least rotation begins
    with a longest run of the least letter, at its start: one that began
    with a shorter run, a larger letter next, would be larger.  So the
    candidates start as the starts below ``len(u)`` of the longest run
    ``r`` of the least letter in ``u + u``, found by doubling and then
    bisecting its length with C-speed substring tests, and ``span`` starts
    at ``r``.  Each round at least doubles ``span`` (at most ``len(u)``)
    and keeps the candidates whose ``span``-letter slice of ``u + u`` is
    least, compared at C speed.  It then drops every candidate ``j`` at
    most ``span`` past the candidate ``i`` before it.  The two share their
    first ``span >= j - i`` letters, which start with ``v = u[i:j]``, so
    ``R_i = v R_j`` and ``R_j = v R_k`` with ``k = j + (j - i)``.  Hence
    ``R_j < R_i`` implies ``R_k < R_j``, and ``R_j`` is never the least.
    Survivors are more than ``span`` apart, so the next round slices
    O(``len(u)``) letters, also when it stretches ``span`` to
    ``4 len(u) // len(cands)`` to settle few candidates in few rounds.
    There are at most ``log2 len(u)`` rounds, on runs and periodic words
    too; rotations of ``u`` are distinct, so at ``span == len(u)`` one
    candidate is left.
    """
    u = primitive_root(s)
    p = len(u)
    d = u + u
    first = min(u)
    lo, hi = 1, 2
    while first * hi in d:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if first * mid in d:
            lo = mid
        else:
            hi = mid
    # every occurrence of the longest run is a whole run, so the next one
    # starts more than ``lo`` letters later
    run = first * lo
    cands = []
    i = d.find(run, 0, p - 1 + lo)
    while i != -1:
        cands.append(i)
        i = d.find(run, i + lo + 1, p - 1 + lo)
    span = lo
    while len(cands) > 1:
        span = min(max(2 * span, 4 * p // len(cands)), p)
        slices = [d[i:i + span] for i in cands]
        least = min(slices)
        keep = [i for i, sl in zip(cands, slices) if sl == least]
        cands = [keep[0]] + [j for i, j in zip(keep, keep[1:])
                             if j - i > span]
    return cands[0]


def canonical_cyclic(word: str) -> str:
    """Canonical representative of the cyclic class of ``word``.

    Least string (slot-major order, forward before backward) among all
    rotations of the cyclically reduced word and of its inverse.
    Identifies a class with its inverse; callers that care about
    orientation keep it separately.  The least rotation of each is found
    by :func:`_least_rotation`, which compares slices of the translated
    word rather than looping over its letters.
    """
    return _canonical_reduced(cyclic_reduce(word))


def _canonical_reduced(w: str) -> str:
    """:func:`canonical_cyclic` of a word that is already cyclically
    reduced, without the free-reduction pass over its letters."""
    if not w:
        return ""
    t = sort_key(w)
    i = _least_rotation(t)
    wi = invert(w)
    ti = sort_key(wi)
    j = _least_rotation(ti)
    if t[i:] + t[:i] <= ti[j:] + ti[:j]:
        return w[i:] + w[:i]
    return wi[j:] + wi[:j]


def cyclic_contains(cyclic: str, segment: str) -> bool:
    """True if ``segment`` or its inverse occurs in the doubled cyclic word.

    Every length-L window of the doubled word, L = len(segment), equals
    one starting among its first n = len(cyclic) letters, so the word is
    searched with its first L - 1 letters appended: the doubled word
    itself once L > n.
    """
    if not segment:
        return True
    L = len(segment)
    if L > 2 * len(cyclic):
        return False
    ext = cyclic + cyclic[:L - 1]
    return segment in ext or invert(segment) in ext


def path_contains(path: str, segment: str) -> bool:
    """True if ``segment`` or its inverse is a subword of ``path``."""
    return segment in path or invert(segment) in path


def count_crossings(path: str, sl: int) -> int:
    """Number of times ``path`` crosses slot ``sl`` in either direction."""
    return path.count(FWD[sl]) + path.count(BWD[sl])


def parse_word(tokens, names: dict[str, int]) -> str:
    """Build an internal word from user tokens.

    A token is a slot name, with a trailing apostrophe for the reversed
    letter ("B'" is the inverse of "B").
    """
    out = []
    for tok in tokens:
        rev = tok.endswith("'")
        name = tok[:-1] if rev else tok
        if name not in names:
            raise InvalidInput(f"unknown letter {name!r}")
        s = names[name]
        out.append(BWD[s] if rev else FWD[s])
    return "".join(out)


def print_word(word: str, names: list[str]) -> str:
    """Inverse of :func:`parse_word`: space-separated tokens."""
    toks = []
    for ch in word:
        s = _SLOT[ch]
        toks.append(names[s] if is_fwd(ch) else names[s] + "'")
    return " ".join(toks)
