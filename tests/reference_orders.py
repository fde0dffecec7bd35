"""Slow reference group-order routines, kept to test the stabilizer chain.

``_closure`` lists every element of the group a matrix set generates mod p,
breadth first; ``_perm_group_order`` is a stabilizer chain that recomputes
every orbit on every sift; ``_symplectic_order_mod`` runs the library's
stabilizer chain on tuples of residues at every prime, mod 2 included.  All
three are the library's earlier implementations, unchanged.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

from lefschetz.homology import Matrix, SurfaceSpec, Vector, mat_identity
from lefschetz.mapping import (
    Permutation,
    check_perm,
    pairing_inverse,
    perm_compose,
    perm_identity,
    perm_inverse,
)
from lefschetz.universality import _group_order, symplectic_group_order


def _perm_group_order(gens: list[Permutation], n: int) -> int:
    """Order of the generated subgroup, by a deterministic stabilizer chain.

    Sims's method with full Schreier-generator verification: generators are
    sifted to the level they stabilize down to, and the chain is reprocessed
    until every Schreier generator sifts to the identity.  Plenty fast at
    the desk-scale degrees allowed here.
    """
    ident = perm_identity(n)
    levels: list[dict] = []  # {"base": point, "gens": [residues placed here]}

    def effective_gens(i: int) -> list[Permutation]:
        return [g for level in levels[i:] for g in level["gens"]]

    def orbit(i: int) -> dict[int, Permutation]:
        base = levels[i]["base"]
        gens_i = effective_gens(i)
        orb = {base: ident}
        frontier = [base]
        while frontier:
            frontier.sort()
            pt = frontier.pop(0)
            rep = orb[pt]
            for g in gens_i:
                img = g[pt]
                if img not in orb:
                    orb[img] = perm_compose(g, rep)
                    frontier.append(img)
        return orb

    def sift(p: Permutation, start: int) -> tuple[Permutation | None, int]:
        for i in range(start, len(levels)):
            orb = orbit(i)
            img = p[levels[i]["base"]]
            if img not in orb:
                return p, i
            p = perm_compose(perm_inverse(orb[img]), p)
        if p == ident:
            return None, len(levels)
        return p, len(levels)

    def place(p: Permutation, start: int) -> bool:
        residue, lvl = sift(p, start)
        if residue is None:
            return False
        if lvl == len(levels):
            base = next(i for i in range(n) if residue[i] != i)
            levels.append({"base": base, "gens": []})
        levels[lvl]["gens"].append(residue)
        return True

    for g in gens:
        check_perm(g, n)
        place(g, 0)

    dirty = bool(levels)
    while dirty:
        dirty = False
        for i in range(len(levels)):
            orb = orbit(i)
            for pt in sorted(orb):
                rep = orb[pt]
                for g in effective_gens(i):
                    schreier = perm_compose(
                        perm_inverse(orb[g[pt]]), perm_compose(g, rep))
                    if schreier != ident and place(schreier, i + 1):
                        dirty = True
            if dirty:
                break

    order = 1
    for i in range(len(levels)):
        order *= len(orbit(i))
    return order


def _closure(gens: set[Matrix], p: int, cap: int) -> set[Matrix] | None:
    """BFS closure of a matrix set under multiplication mod p; None if > cap."""
    if not gens:
        gens = set()
    n = len(next(iter(gens))) if gens else 0
    ident = mat_identity(n)
    seen = {ident} | set(gens)
    frontier = list(gens)
    while frontier:
        if len(seen) > cap:
            return None
        nxt = []
        for a in frontier:
            for g in gens:
                prod = tuple(
                    tuple(sum(x * y for x, y in zip(row, col)) % p
                          for col in zip(*g))
                    for row in a
                )
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def _symplectic_order_mod(mats: Iterable[Matrix], g: int, p: int) -> int | None:
    """Order of the group the symplectic matrices generate mod p (None: gave up).

    The group acts on column vectors of F_p^(2g); the standard basis is a
    base, since a matrix fixing every basis vector is the identity.
    """
    n = 2 * g
    block = SurfaceSpec(g, 0)

    def act(m: Matrix, v: Vector) -> Vector:
        return tuple(sum(map(operator.mul, row, v)) % p for row in m)

    def mul(a: Matrix, b: Matrix) -> Matrix:
        cols = tuple(zip(*b))
        return tuple(
            tuple(sum(map(operator.mul, row, col)) % p for col in cols) for row in a)

    def inv(m: Matrix) -> Matrix:
        # entries in (-p, p): every inverse is consumed by mul, which reduces
        return pairing_inverse(block, m, ())

    base = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return _group_order(mats, base, act, mul, inv, symplectic_group_order(g, p))
