"""Rank-3 maps that fix a planted one-edge free splitting.

For a rank-2 basis map phi_A on <a, b> and an automorphism psi of
F_3 = <a, b, c>, the map

    phi = psi o (phi_A(a), phi_A(b), c) o psi^-1

preserves the free factor system F = {psi<a, b>, <psi(c)>}, the vertex
groups of the one-edge free splitting psi<a, b> * <psi(c)>.  A map that
fixes a free splitting fixes a vertex of the free splitting complex, so
the exact verdict on every map of the family is PeriodicVertex.

Maps are written as in the golden files: a = x1, b = x2, c = x3, and
capitals are inverses.
"""

from freesplit.automorphisms import compose_maps, invert_map
from freesplit.factors import ffs_from_generators

# the seven psi, keyed by the letters they move
PSIS = {
    "identity": ("a", "b", "c"),
    "a->ac": ("ac", "b", "c"),
    "c->ca": ("a", "b", "ca"),
    "c->cab": ("a", "b", "cab"),
    "a->ac,b->cb": ("ac", "cb", "c"),
    "a->caC": ("caC", "b", "c"),
    "a->acb,b->bc": ("acb", "bc", "c"),
}
# the psi on which every map of length at most five is PeriodicVertex
# today; the other four give wrong Loxodromic or Unknown verdicts
SOUND_PSIS = ("identity", "c->ca", "c->cab")


def planted_map(phi_a, psi):
    """(phi, F): the conjugate of (phi_A(a), phi_A(b), c) by ``psi`` and
    the free factor system it preserves."""
    phi0 = (phi_a[0], phi_a[1], "c")
    phi = compose_maps(psi, compose_maps(phi0, invert_map(psi)))
    return phi, ffs_from_generators(3, psi[:2], psi[2:])


def planted_maps(rank2_maps, psi_names=tuple(PSIS)):
    """(psi name, phi_A, phi, F) for each named psi and each rank-2 map
    phi_A, psi by psi."""
    return [(name, phi_a) + planted_map(phi_a, PSIS[name])
            for name in psi_names for phi_a in rank2_maps]
