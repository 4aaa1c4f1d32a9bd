import itertools

import pytest
from hypothesis import given, settings, strategies as st

from freesplit.errors import InvalidInput
from freesplit.words import (BWD, FWD, _least_rotation, canonical_cyclic,
                             cyclic_contains, cyclic_reduce, image_table,
                             invert, parse_word, print_word, reduce_images,
                             reduce_word, reduced_product, sort_key,
                             stop_table)

x, y, z = FWD[0], FWD[1], FWD[2]
X, Y, Z = BWD[0], BWD[1], BWD[2]


def brute_canonical(word: str) -> str:
    """Independent oracle: exhaustive rotation + reduction search."""
    w = cyclic_reduce(word)
    if not w:
        return ""
    cands = []
    for u in (w, invert(w)):
        for i in range(len(u)):
            cands.append(u[i:] + u[:i])
    return min(cands, key=sort_key)


def words_strategy(rank=3, max_len=8, min_len=0):
    letters = list(FWD[:rank] + BWD[:rank])
    return st.lists(st.sampled_from(letters), min_size=min_len,
                    max_size=max_len).map("".join)


def _least_rotation_booth(s: str) -> int:
    """Reference: Booth's algorithm (IPL 1980), index of the least
    rotation in linear time, one letter at a time."""
    n = len(s)
    d = s + s
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = d[j]
        i = f[j - k - 1]
        while i != -1 and sj != d[k + i + 1]:
            if sj < d[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != d[k + i + 1]:
            if sj < d[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k % n


def rotation(s: str, i: int) -> str:
    return s[i:] + s[:i]


def fibonacci_word(n: int) -> str:
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def thue_morse_word(n: int) -> str:
    t = "a"
    while len(t) < n:
        t += t.translate(str.maketrans("ab", "ba"))
    return t[:n]


class TestReduce:
    def test_full_cancellation(self):
        assert reduce_word(x + X) == ""

    def test_inner_cancellation(self):
        assert reduce_word(x + z + Z + y) == x + y

    def test_already_reduced_is_fixed(self):
        assert reduce_word(x + y + Z) == x + y + Z

    @settings(max_examples=80, deadline=None)
    @given(words_strategy())
    def test_idempotent_and_reduced(self, w):
        r = reduce_word(w)
        assert reduce_word(r) == r
        assert all(b != invert(a) for a, b in zip(r, r[1:]))
        assert len(r) <= len(w)

    @settings(max_examples=50, deadline=None)
    @given(words_strategy())
    def test_inverse_involution(self, w):
        assert invert(invert(w)) == w
        assert reduce_word(w + invert(w)) == ""


@st.composite
def table_and_word(draw):
    """Reduced (possibly empty) images of a rank 1-3 basis, and a word."""
    rank = draw(st.integers(1, 3))
    images = [reduce_word(draw(words_strategy(rank, 6))) for _ in range(rank)]
    return image_table(images), draw(words_strategy(rank, 12))


class TestReduceImages:
    def test_cancellation_spans_images(self):
        t = image_table([x + y, Y + z])
        stop = stop_table(t)
        assert reduce_images(t, x + y, stop) == x + z
        assert reduce_images(t, x + X, stop) == ""

    @settings(max_examples=150, deadline=None)
    @given(table_and_word())
    def test_matches_reduced_concatenation(self, tw):
        table, w = tw
        assert reduce_images(table, w, stop_table(table)) == \
            reduce_word("".join(table[ch] for ch in w))


class TestJunction:
    @settings(max_examples=150, deadline=None)
    @given(words_strategy(), words_strategy())
    def test_cancellation_at_the_junction(self, u, v):
        u, v = reduce_word(u), reduce_word(v)
        assert reduced_product(u, v) == reduce_word(u + v)


class TestCanonicalCyclic:
    def test_conjugation_collapse(self):
        assert canonical_cyclic(x + y + X) == y

    def test_rotation_identified(self):
        assert canonical_cyclic(y + x) == canonical_cyclic(x + y)

    def test_reduction_then_rotation(self):
        # x y^-1 y x reduces to xx
        assert canonical_cyclic(x + Y + y + x) == x + x

    def test_inverse_class_identified(self):
        assert canonical_cyclic(invert(x + y + x + z)) == \
            canonical_cyclic(x + y + x + z)

    @settings(max_examples=120, deadline=None)
    @given(words_strategy())
    def test_matches_brute_force(self, w):
        assert canonical_cyclic(w) == brute_canonical(w)

    @settings(max_examples=60, deadline=None)
    @given(words_strategy())
    def test_idempotent(self, w):
        c = canonical_cyclic(w)
        assert canonical_cyclic(c) == c

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda rank: words_strategy(rank, 16)))
    def test_invariant_under_rotation_and_inversion(self, w):
        c = canonical_cyclic(w)
        r = cyclic_reduce(w)
        for i in range(len(r)):
            assert canonical_cyclic(rotation(r, i)) == c
            assert canonical_cyclic(invert(rotation(r, i))) == c


class TestLeastRotation:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda rank: st.tuples(
        words_strategy(rank, 24, min_len=1), st.integers(1, 5))))
    def test_matches_booth_on_words_and_powers(self, case):
        u, k = case
        for s in (sort_key(u), sort_key(u * k)):
            assert rotation(s, _least_rotation(s)) == \
                rotation(s, _least_rotation_booth(s))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 6)),
                    min_size=1, max_size=12), st.integers(1, 3))
    def test_matches_brute_force_on_runs(self, runs, k):
        # words of runs, most of them with several longest runs of the
        # least letter, and their powers
        s = "".join(a * n for a, n in runs) * k
        assert rotation(s, _least_rotation(s)) == \
            min(rotation(s, i) for i in range(len(s)))

    @pytest.mark.parametrize("alphabet, max_len", [("ab", 12), ("abc", 7)])
    def test_matches_brute_force_on_every_short_word(self, alphabet, max_len):
        for n in range(1, max_len + 1):
            for letters in itertools.product(alphabet, repeat=n):
                s = "".join(letters)
                assert rotation(s, _least_rotation(s)) == \
                    min(rotation(s, i) for i in range(n)), s

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1000, 100_000])
    @pytest.mark.parametrize("family", [
        lambda n: "a" * (n - 1) + "b",
        lambda n: "b" * (n - 1) + "a",
        lambda n: ("ab" * n)[:n],
        lambda n: ("aaab" * n)[:n],
        lambda n: ("a" * 9 + "b") * (n // 10) + "a" * (n % 10),
        fibonacci_word,
        thue_morse_word,
    ], ids=["a^n b", "b^n a", "(ab)^n", "(a^3 b)^m", "(a^9 b)^m a^r",
            "fibonacci", "thue-morse"])
    def test_matches_booth_on_hard_families(self, family, n):
        s = family(n)
        assert rotation(s, _least_rotation(s)) == \
            rotation(s, _least_rotation_booth(s))


class TestContainment:
    def test_wraparound(self):
        assert cyclic_contains(y + x, x + y)

    def test_reverse_orientation_counts(self):
        assert cyclic_contains(x + y, invert(x + y))

    def test_too_long(self):
        assert not cyclic_contains(x, x + x + x)

    def test_same_as_doubled_word_search(self):
        # every word of length <= 5 over x, y and their inverses, against
        # every segment of length <= 5 over x, y and X: segments shorter
        # and longer than the word, and the too-long case
        def doubled(c, seg):
            if len(seg) > 2 * len(c):
                return not seg
            d = c + c
            return seg in d or invert(seg) in d

        words = ["".join(p) for n in range(6)
                 for p in itertools.product((x, y, X, Y), repeat=n)]
        segs = ["".join(p) for n in range(6)
                for p in itertools.product((x, y, X), repeat=n)]
        assert all(cyclic_contains(c, seg) == doubled(c, seg)
                   for c in words for seg in segs)


class TestTokenRoundTrip:
    def test_parse_print(self):
        names = {"A": 0, "B": 1, "sigma": 2}
        w = parse_word(["A", "B'", "sigma"], names)
        assert w == FWD[0] + BWD[1] + FWD[2]
        assert print_word(w, ["A", "B", "sigma"]) == "A B' sigma"

    def test_unknown_token(self):
        with pytest.raises(InvalidInput):
            parse_word(["Q"], {"A": 0})
