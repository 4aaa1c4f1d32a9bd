"""3-braids acting on F_3 by the Artin action, with their trace oracle.

B_3 acts on F_3 = <x1, x2, x3> as the mapping classes of the
thrice-punctured disk.  The full twist (s1 s2)^3 acts as conjugation by
x1 x2 x3, so the action on Out(F_3) factors through B_3 / <(s1 s2)^3>,
which is PSL_2(Z) with s1 -> [[1, 1], [0, 1]] and s2 -> [[1, 0], [-1, 1]].
The absolute trace there gives the Nielsen-Thurston type, and with it the
exact verdict on the free splitting complex:

- |trace| > 2: pseudo-Anosov, so Loxodromic;
- |trace| = 2: reducible, fixing a one-edge free splitting, so
  PeriodicVertex;
- |trace| < 2: periodic, of finite order in Out(F_3), so PeriodicVertex.

A braid word is a tuple of nonzero integers: i stands for s_i and -i for
its inverse.
"""

from freesplit.automorphisms import compose_maps, identity_map
from freesplit.words import BWD, FWD

BRAID_LETTERS = (1, 2, -1, -2)
_MATRIX = {1: ((1, 1), (0, 1)), 2: ((1, 0), (-1, 1)),
           -1: ((1, -1), (0, 1)), -2: ((1, 0), (1, 1))}


def artin(i: int):
    """The Artin action of s_i (of its inverse for negative i) on F_3:
    s_i maps x_i -> x_i x_i+1 x_i^-1 and x_i+1 -> x_i, and its inverse
    maps x_i -> x_i+1 and x_i+1 -> x_i+1^-1 x_i x_i+1."""
    k = abs(i) - 1
    images = list(identity_map(3))
    if i > 0:
        images[k] = FWD[k] + FWD[k + 1] + BWD[k]
        images[k + 1] = FWD[k]
    else:
        images[k] = FWD[k + 1]
        images[k + 1] = BWD[k + 1] + FWD[k] + FWD[k + 1]
    return tuple(images)


def braid_map(word):
    """Basis map of a braid word under the Artin action taken as a right
    action: the map of s t is the map of t after the map of s."""
    bm = identity_map(3)
    for i in word:
        bm = compose_maps(artin(i), bm)
    return bm


def braid_trace(word) -> int:
    """Trace of the braid's image in SL_2(Z)."""
    m = ((1, 0), (0, 1))
    for i in word:
        g = _MATRIX[i]
        m = tuple(tuple(sum(m[r][k] * g[k][c] for k in range(2))
                        for c in range(2)) for r in range(2))
    return m[0][0] + m[1][1]


def braid_type(word) -> str:
    t = abs(braid_trace(word))
    return "pseudo-Anosov" if t > 2 else "reducible" if t == 2 else "periodic"


def braid_maps(max_length: int) -> dict:
    """Distinct basis maps of the freely reduced braid words of length at
    most ``max_length``, each keyed by the first word giving it, shortest
    first.  Raises AssertionError if two words giving one map have
    different absolute traces, which would make the oracle wrong."""
    maps = {}
    first = {}
    level = [()]
    for length in range(max_length + 1):
        for word in level:
            bm = braid_map(word)
            if bm not in first:
                first[bm] = word
                maps[word] = bm
            elif abs(braid_trace(word)) != abs(braid_trace(first[bm])):
                raise AssertionError(f"{word} and {first[bm]} disagree")
        level = [w + (i,) for w in level for i in BRAID_LETTERS
                 if not w or w[-1] != -i]
    return maps
