"""The universality characterization and the surjectivity oracle it rests on.

A fibration is universal when its bundle generators permute the fiber's
boundary circles through the full symmetric group, its twists generate the
fiber's mapping class group, and every curve type of the fiber occurs among
its cycles (with both signs, for strong universality).  The first two
conditions are group-order questions, answered by one deterministic
Schreier-Sims routine.

Deciding whether a set of twists generates the full mapping class group is
out of reach at homology resolution, so the surjectivity oracle returns one
of three verdicts: Certified (the set contains a recognized generating
configuration), Obstructed (a finite computation rules surjectivity out), or
Unknown.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from math import factorial, isqrt

from .curves import CurveClass, enumerate_classes
from .errors import CapacityError, InputError
from .fibration import LefschetzFibration
from .homology import Record, SurfaceSpec, Vector, check_fiber_rank, covector
from .mapping import (
    Permutation,
    TwistGen,
    check_perm,
    perm_compose,
    perm_inverse,
    twist_catalog,
)

# ---------------------------------------------------------------------------
# group orders: one deterministic Schreier-Sims routine
# ---------------------------------------------------------------------------

# Work allowed to one group-order computation, counted as orbit points stored
# plus Schreier generators sifted.  Past it the computation gives up.
ORDER_WORK_BOUND = 200_000


def _group_order(gens, base, act, mul, inv, full_order: int) -> int | None:
    """Order of the group G generated by ``gens``, or None past the work bound.

    Deterministic Schreier-Sims (Sims 1970; Seress 2003).  G acts on
    points by ``act(g, point)``; ``mul(a, b)`` applies b first, then a, and
    ``inv`` inverts (its result is only ever passed to ``mul``).  ``base``
    must be a base: an element fixing every base point is the identity.
    Level i keeps the orbit of base[i] under
    H_i = <generators fixing base[:i]> with a transversal (None stands for
    the identity at the base point itself) and, beside it, each transversal
    element's inverse, computed once when its point joins the orbit.  The
    Schreier generators of each (point, generator) pair are sifted through
    the deeper levels, deepest level first, and a nontrivial residue becomes
    a new generator.

    Orbits are extended as generators arrive, each pair is tested once per
    level, and tree edges (pairs that first reached a point) are skipped,
    because their Schreier generators are trivial.  A residue made from a
    level-i Schreier generator lies in H_i already, so it is a new generator
    only of the deeper levels it reaches.

    G must lie in a group of order ``full_order``.  Each orbit is an orbit of
    a subgroup of the true point stabilizer, so the product of the orbit
    lengths bounds |G| from below at every step, and the computation stops
    as soon as it reaches ``full_order``.  Otherwise the order is returned
    only once every Schreier generator has sifted, so it is exact.
    """
    depth = len(base)
    orbits: list[dict] = [{b: None} for b in base]
    inverses: list[dict] = [{} for _ in base]  # point -> inverse of its transversal element
    level_gens: list[list] = [[] for _ in base]
    pending: list[list] = [[] for _ in base]  # non-tree pairs, still to sift
    work = 0
    lower_bound = 1  # product of the orbit lengths, kept up to date by extend

    def sift(h, i: int):
        """(residue, level it dropped out at), or (None, depth) if h sifts."""
        while i < depth:
            pt = act(h, base[i])
            if pt not in orbits[i]:
                return h, i
            if orbits[i][pt] is not None:
                h = mul(inverses[i][pt], h)
            i += 1
        return None, depth

    def extend(i: int, pairs: list) -> None:
        nonlocal work, lower_bound
        orbit, inverse, gens_i, todo = orbits[i], inverses[i], level_gens[i], pending[i]
        before = len(orbit)
        for pt, s in pairs:  # grows while it is read
            img = act(s, pt)
            if img in orbit:
                todo.append((pt, s, img))
                continue
            u = orbit[pt]
            orbit[img] = s if u is None else mul(s, u)
            inverse[img] = inv(orbit[img])
            work += 1
            if work > ORDER_WORK_BOUND:
                break
            pairs.extend((img, t) for t in gens_i)
        lower_bound = lower_bound // before * len(orbit)

    def add(h, lo: int, hi: int) -> None:
        for i in range(lo, hi + 1):
            level_gens[i].append(h)
            extend(i, [(pt, h) for pt in orbits[i]])

    for g in gens:
        residue, level = sift(g, 0)
        if residue is not None:
            add(residue, 0, level)
    while lower_bound != full_order:
        if work > ORDER_WORK_BOUND:
            return None
        i = next((i for i in reversed(range(depth)) if pending[i]), None)
        if i is None:
            return lower_bound
        pt, s, img = pending[i].pop()
        work += 1
        u = orbits[i][pt]
        schreier = s if u is None else mul(s, u)
        if orbits[i][img] is not None:
            schreier = mul(inverses[i][img], schreier)
        residue, level = sift(schreier, i + 1)
        if residue is not None:
            add(residue, i + 1, level)
    return full_order


# ---------------------------------------------------------------------------
# permutation groups: surjectivity onto the full symmetric group
# ---------------------------------------------------------------------------

def perm_group_surjective(perms: list[Permutation], b: int) -> bool:
    """True iff the permutations generate the full symmetric group on b points.

    Every residue kept by the order computation enlarges an orbit, so at
    degree <= 10 its work stays far below ORDER_WORK_BOUND.
    """
    if b < 1:
        raise InputError("need at least one boundary circle")
    if b > 10:
        raise CapacityError(f"permutation degree {b} exceeds the desk-scale bound 10")
    for p in perms:
        check_perm(p, b)
    full = factorial(b)
    order = _group_order(
        perms, range(b), lambda g, i: g[i], perm_compose, perm_inverse, full)
    return order == full


# ---------------------------------------------------------------------------
# mod-p symplectic groups
# ---------------------------------------------------------------------------

def symplectic_group_order(g: int, p: int) -> int:
    """|Sp(2g, p)| = p^(g^2) * prod_{i=1..g} (p^(2i) - 1)."""
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


# The oracle takes int primes up to MAX_MODULUS, the trial division that checks them.
MAX_MODULUS = 1_000_000


def _rank_mod(vectors: Iterable[Vector], p: int) -> int:
    """Dimension of the span of the vectors over F_p, by echelon reduction."""
    basis: dict[int, list[int]] = {}  # pivot -> echelon row, 1 at the pivot
    for v in vectors:
        v = list(v)
        for j, row in basis.items():
            k = v[j]
            if k:
                v = [(x - k * y) % p for x, y in zip(v, row)]
        j = next((j for j, x in enumerate(v) if x), None)
        if j is not None:
            k = pow(v[j], -1, p)
            basis[j] = [x * k % p for x in v]
    return len(basis)


def _invariant_subspace(twists: list[TwistGen], g: int, p: int) -> int | None:
    """Dimension of a proper subspace of F_p^(2g) the twists preserve, or None.

    A center is the handle part (the first 2g entries) of a twist's class
    mod p, zero and repeated centers dropped; two centers are joined when
    they pair to nonzero mod p, through the covector of a twist's class
    (:func:`~lefschetz.homology.covector`).  A twist about c moves x by a
    multiple of <c, x> c, so:

      * when the centers do not span, their span is invariant (dimension 0,
        a trivial action, when no center is nonzero);
      * when they span but their graph splits, the span of one component's
        centers is invariant, since every other twist fixes it pointwise.
        It is proper, since the other centers are nonzero and pair to 0
        with it;
      * otherwise (None) the twists act irreducibly: an invariant subspace
        U holds c or lies in c's orthogonal, a nonzero U does not lie in
        every center's orthogonal, as the centers span and the pairing is
        nondegenerate, so U holds a center, then every center joined to
        one it holds, and so all of them, which span.
    """
    n = 2 * g
    covectors: dict[Vector, Vector] = {}  # center -> its class's covector, handle part
    for t in twists:
        center = tuple(x % p for x in t.curve.hom[:n])
        if any(center):
            covectors.setdefault(center, covector(t.curve.surface, t.curve.hom)[:n])
    rank = _rank_mod(covectors, p)
    if rank < n:
        return rank
    reached, rest = [next(iter(covectors))], list(covectors)[1:]
    for c in reached:  # grows while it is read
        w, unjoined = covectors[c], []
        for d in rest:
            (reached if sum(map(operator.mul, w, d)) % p else unjoined).append(d)
        rest = unjoined
    return _rank_mod(reached, p) if rest else None


def _symplectic_order_mod(twists: list[TwistGen], g: int) -> int | None:
    """Order of the group the twists generate on F_2^(2g) (None: gave up).

    The standard basis is a base: a matrix fixing it is the identity.  A
    point is a 2g-bit int whose bit i is entry i; a matrix is the tuple of
    its column masks and acts by XOR-ing the columns the point's bits select.
    A twist about c packs from c's first 2g entries mod 2, deduplicated in
    order: <c, e_j> = +-c_(j^1), so column j is bit j, XOR-ed with c when bit
    j^1 of c is set (the hand drops out, and an even c packs to the identity).
    Over F_2 the inverse S^-1 = J^T S^T J is a bit transpose: entry (x, y) is
    bit y^1 of column x^1.  The packing is a bijection onto the dense
    generators of ``tests/reference_orders.py``, so the chain visits the same
    points in the same order, and does the same work, as the tuple chain.
    """
    n = 2 * g

    def act(m: tuple[int, ...], v: int) -> int:
        out = 0
        while v:
            low = v & -v
            out ^= m[low.bit_length() - 1]
            v ^= low
        return out

    def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([act(a, col) for col in b])

    def inv(m: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * n
        for x in range(n):  # bit y^1 of column x^1 is bit x of column y
            col = m[x ^ 1]
            while col:
                low = col & -col
                out[(low.bit_length() - 1) ^ 1] |= 1 << x
                col ^= low
        return tuple(out)

    centers = dict.fromkeys(sum((x & 1) << i for i, x in enumerate(t.curve.hom[:n]))
                            for t in twists)
    packed = [tuple([1 << j ^ (c if c >> (j ^ 1) & 1 else 0) for j in range(n)])
              for c in centers]
    return _group_order(packed, [1 << i for i in range(n)], act, mul, inv,
                        symplectic_group_order(g, 2))


# ---------------------------------------------------------------------------
# the surjectivity oracle
# ---------------------------------------------------------------------------

class SurjectivityVerdict(Record):
    """Three-valued answer: "certified", "obstructed" or "unknown"."""

    __slots__ = ("status", "detail")

    def __init__(self, status: str, detail: str = "") -> None:
        self._store(status, detail)

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def obstructed(self) -> bool:
        return self.status == "obstructed"


def mcg_surjectivity_oracle(
    twists: list[TwistGen],
    surface: SurfaceSpec,
    primes: tuple[int, ...] = (2, 3, 5),
) -> SurjectivityVerdict:
    """Decide, when possible, whether the twists generate the mapping class group.

    Certified is only returned with a recognized generating-set certificate:

      * every class of :func:`twist_catalog` at (g, b=1), or at the closed
        torus, is up to sign the class of some twist (either hand);
      * the mapping class group is trivial (disk or sphere fiber).

    Obstructed is only returned with a finite computed obstruction:

      * the homology images mod p generate a proper subgroup of the full
        symplectic group Sp(2g, p) for some p.  At p = 2 the order of that
        group is computed exactly by a stabilizer chain (Schreier-Sims on
        bit-packed vectors of F_2^(2g), with the standard basis as base
        points, where the symplectic inverse is a sign-free bit transpose),
        and only a *completed* chain counts.  A chain that would need more
        than ORDER_WORK_BOUND orbit points and sifted Schreier generators
        is abandoned, and the prime is inconclusive.  The chain stops
        early, as full, once the product of its orbit lengths reaches
        |Sp(2g, 2)|: each orbit is an orbit of a subgroup of the true point
        stabilizer, so the product is a lower bound on the order.  At an
        odd prime no chain runs.  A set that preserves a proper subspace of
        F_p^(2g) (:func:`_invariant_subspace`) generates a proper subgroup,
        as Sp(2g, p) acts irreducibly.  Otherwise the twists act
        irreducibly, and by McLaughlin (1967, *Some groups generated by
        transvections*) an irreducible subgroup of SL(n, p), p an odd
        prime, generated by transvections is SL(n, p) or the symplectic
        group of a nondegenerate alternating form.  Inside Sp(2g, p) either
        has order |Sp(2g, p)| (SL(n, p) fits only at n = 2, where it is
        Sp(2, p)), so it is all of Sp(2g, p).  In the general list (Kantor
        1979, *Subgroups of classical groups generated by long root
        elements*) the other cases need a field larger than F_p or
        characteristic 2.  The prime then counts as full;
      * g >= 1, b <= 1 and no twists: a surjective monodromy would realize
        the non-separating type, the only one at b <= 1.

    Anything else is Unknown: homology data alone cannot certify
    surjectivity of the full group.

    Before any work, a modulus that is not an int prime (a bool included) is
    refused with InputError; a surface of H1 rank above MAX_FIBER_RANK and a
    modulus above MAX_MODULUS are refused with CapacityError.
    """
    check_fiber_rank(surface)
    for p in primes:
        if type(p) is not int or p < 2 or p <= MAX_MODULUS and any(
                p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise InputError(f"modulus {p!r} is not a prime")
        if p > MAX_MODULUS:
            raise CapacityError(f"modulus {p} exceeds the bound {MAX_MODULUS}")
    for t in twists:
        if t.surface != surface:
            raise InputError("twist on the wrong surface")
    g, b = surface.genus, surface.boundary

    if g >= 1 and b <= 1:
        # matched by class alone: a class off the boundary lattice is non-separating
        catalog = twist_catalog(surface)
        have = {t.curve.hom for t in twists}
        if all(c.hom in have or tuple(-x for x in c.hom) in have for c in catalog):
            return SurjectivityVerdict(
                "certified", f"contains the {len(catalog)}-twist catalog configuration")
    if g == 0 and b <= 1:
        return SurjectivityVerdict("certified", "trivial mapping class group")

    if g >= 1:
        for p in primes:
            if p == 2:
                order = _symplectic_order_mod(twists, g)
                full = symplectic_group_order(g, 2)
                if order is not None and order < full:  # None: inconclusive at p = 2
                    return SurjectivityVerdict(
                        "obstructed", f"mod-2 symplectic closure has order {order} < {full}")
                continue
            dim = _invariant_subspace(twists, g, p)
            if dim is not None:  # None: all of Sp(2g, p), by McLaughlin's theorem
                return SurjectivityVerdict("obstructed", f"mod-{p} image is trivial" if dim == 0
                                           else f"mod-{p} image preserves a proper subspace"
                                                f" of dimension {dim}")

    if g >= 1 and b <= 1 and not twists:
        return SurjectivityVerdict("obstructed", "curve type nonsep is realized by no twist curve")

    return SurjectivityVerdict("unknown", "no certificate and no finite obstruction")


# ---------------------------------------------------------------------------
# universality
# ---------------------------------------------------------------------------

class UniversalityReport(Record):
    """Condition flags and overall verdicts ("yes" / "no" / "unknown")."""

    __slots__ = ("cond_perm", "cond_lef", "cond2", "cond2strong", "universal",
                 "strongly_universal")

    def __init__(self, cond_perm: bool, cond_lef: SurjectivityVerdict, cond2: bool,
                 cond2strong: bool, universal: str, strongly_universal: str) -> None:
        self._store(cond_perm, cond_lef, cond2, cond2strong, universal, strongly_universal)


def _verdict(cond_perm: bool, lef: SurjectivityVerdict, cond_cls: bool) -> str:
    if not cond_perm or not cond_cls or lef.obstructed:
        return "no"
    if lef.certified:
        return "yes"
    return "unknown"


def universality_report(u: LefschetzFibration) -> UniversalityReport:
    """Check the characterization conditions on a fibration.

    cond_perm: the bundle generators' permutations generate the full
    symmetric group on the fiber's boundary circles (trivially true for
    b <= 1).  cond_lef: the three-verdict surjectivity oracle on the twist
    set.  cond2: every curve type of the fiber occurs among the cycles;
    cond2strong: with both signs.  A verdict is affirmative only when the
    oracle certifies, negative when any necessary condition fails, and
    unknown otherwise.
    """
    b = u.fiber.boundary
    if b <= 1:
        cond_perm = True
    else:
        cond_perm = perm_group_surjective([bg.perm for bg in u.bundle], b)
    cond_lef = mcg_surjectivity_oracle(u.twist_gens(), u.fiber)
    required = enumerate_classes(u.fiber)
    by_class: dict[CurveClass, set[int]] = {}
    for c in u.cycles:
        by_class.setdefault(c.curve.cls, set()).add(c.sign)
    cond2 = all(cls in by_class for cls in required)
    cond2strong = all(by_class.get(cls, set()) == {1, -1} for cls in required)
    return UniversalityReport(
        cond_perm=cond_perm,
        cond_lef=cond_lef,
        cond2=cond2,
        cond2strong=cond2strong,
        universal=_verdict(cond_perm, cond_lef, cond2),
        strongly_universal=_verdict(cond_perm, cond_lef, cond2 and cond2strong),
    )
