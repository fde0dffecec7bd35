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
from .homology import Matrix, Record, SurfaceSpec, Vector, check_fiber_rank, mat_identity
from .mapping import (
    Permutation,
    TwistGen,
    check_perm,
    pairing_inverse,
    perm_compose,
    perm_inverse,
    transvect,
    twist_catalog,
    twist_covector,
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


# The oracle takes int primes up to MAX_MODULUS (the trial division that checks
# them) whose |Sp(2g, p)| has at most 4300 digits, the most Python formats.
MAX_MODULUS = 1_000_000
_MAX_ORDER = 10 ** 4300


def _mod_p_generators(twists: list[TwistGen], g: int, p: int) -> list[Matrix]:
    """The twists' actions on F_p^(2g), deduplicated in order.

    Each is one transvect of the 2g x 2g identity by the twist's center and
    covector; the identity's rows are 2g long, so only handle entries are read.
    """
    identity = mat_identity(2 * g)
    return list(dict.fromkeys(
        tuple(tuple(x % p for x in row)
              for row in transvect(identity, t.curve.hom, twist_covector(t.curve), t.sign))
        for t in twists))


def _symplectic_order_mod(mats: Iterable[Matrix], g: int, p: int) -> int | None:
    """Order of the group the symplectic matrices generate mod p (None: gave up).

    The group acts on column vectors of F_p^(2g); the standard basis is a
    base, since a matrix fixing every basis vector is the identity.

    At p = 2 the chain runs on bit-packed vectors: a point is a 2g-bit int
    whose bit i is entry i, and a matrix is the tuple of its column masks
    (bit i of column j is entry (i, j)), so a matrix acts by XOR-ing the
    columns the point's bits select.  Over F_2 the signs drop out of
    S^-1 = J^T S^T J, so the inverse is a bit transpose: entry (x, y) is
    bit y^1 of column x^1.  Packing is a bijection onto the tuple
    representation, so the chain visits the same points in the same order
    and does the same work.  Odd primes act on tuples of residues.
    """
    n = 2 * g
    full = symplectic_group_order(g, p)
    if p == 2:
        def act2(m: tuple[int, ...], v: int) -> int:
            out = 0
            while v:
                low = v & -v
                out ^= m[low.bit_length() - 1]
                v ^= low
            return out

        def mul2(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
            return tuple([act2(a, col) for col in b])

        def inv2(m: tuple[int, ...]) -> tuple[int, ...]:
            out = [0] * n
            for x in range(n):  # bit y^1 of column x^1 is bit x of column y
                col = m[x ^ 1]
                while col:
                    low = col & -col
                    out[(low.bit_length() - 1) ^ 1] |= 1 << x
                    col ^= low
            return tuple(out)

        packed = [tuple(sum((m[i][j] & 1) << i for i in range(n)) for j in range(n))
                  for m in mats]
        return _group_order(packed, [1 << i for i in range(n)], act2, mul2, inv2, full)

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
    return _group_order(mats, base, act, mul, inv, full)


# ---------------------------------------------------------------------------
# the surjectivity oracle
# ---------------------------------------------------------------------------

class SurjectivityVerdict(Record):
    """Three-valued answer: "certified", "obstructed" or "unknown"."""

    __slots__ = ("status", "detail")

    def __init__(self, status: str, detail: str = "") -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "detail", detail)

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def obstructed(self) -> bool:
        return self.status == "obstructed"


def _matches_catalog(twists: list[TwistGen], surface: SurfaceSpec) -> bool:
    """Twist set contains every catalog curve, matched by (type, class).

    Labels and handedness are ignored (a twist and its inverse generate the
    same subgroup) and classes match up to overall sign (the curve is
    unoriented).
    """
    have = set()
    for t in twists:
        have.add((t.curve.cls, t.curve.hom))
        have.add((t.curve.cls, tuple(-x for x in t.curve.hom)))
    return all((c.cls, c.hom) in have for c in twist_catalog(surface))


def mcg_surjectivity_oracle(
    twists: list[TwistGen],
    surface: SurfaceSpec,
    primes: tuple[int, ...] = (2, 3, 5),
) -> SurjectivityVerdict:
    """Decide, when possible, whether the twists generate the mapping class group.

    Certified is only returned with a recognized generating-set certificate:

      * the twist set contains the catalog configuration for (g, b=1), or
        the two catalog curves for the torus cases (1,1) and (1,0);
      * the mapping class group is trivial (disk or sphere fiber).

    Obstructed is only returned with a finite computed obstruction:

      * the homology images mod p generate a proper subgroup of the full
        symplectic group Sp(2g, p) for some p.  The order of that group is
        computed exactly by a stabilizer chain (Schreier-Sims on F_p^(2g),
        with the standard basis as base points; at p = 2 on bit-packed
        vectors, where the symplectic inverse is a sign-free bit
        transpose), and only a *completed* chain counts.  A chain that
        would need more than ORDER_WORK_BOUND orbit points and sifted
        Schreier generators is abandoned, and that prime is inconclusive.
        The chain stops early, as full, once the product of its orbit
        lengths reaches |Sp(2g, p)|: each orbit is an orbit of a subgroup
        of the true point stabilizer, so the product is a lower bound on
        the order;
      * g >= 1, b <= 1 and no twists: a surjective monodromy would realize
        the non-separating type, the only one at b <= 1.

    Anything else is Unknown: homology data alone cannot certify
    surjectivity of the full group.

    Before any work, a modulus that is not an int prime (a bool included) is
    refused with InputError; a surface of H1 rank above MAX_FIBER_RANK, a
    modulus above MAX_MODULUS and a prime whose |Sp(2g, p)| has more than 4300
    digits are refused with CapacityError.
    """
    check_fiber_rank(surface)
    for p in primes:
        if type(p) is not int or p < 2 or p <= MAX_MODULUS and any(
                p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise InputError(f"modulus {p!r} is not a prime")
        if p > MAX_MODULUS:
            raise CapacityError(f"modulus {p} exceeds the bound {MAX_MODULUS}")
        if symplectic_group_order(surface.genus, p) >= _MAX_ORDER:
            raise CapacityError(f"|Sp({2 * surface.genus}, {p})| has more than 4300 digits")
    for t in twists:
        if t.surface != surface:
            raise InputError("twist on the wrong surface")
    g, b = surface.genus, surface.boundary

    if g >= 1 and b <= 1 and _matches_catalog(twists, surface):
        return SurjectivityVerdict(
            "certified", f"contains the {2 * g + 1 if g >= 2 else 2}-twist catalog configuration")
    if g == 0 and b <= 1:
        return SurjectivityVerdict("certified", "trivial mapping class group")

    if g >= 1:
        for p in primes:
            order = _symplectic_order_mod(_mod_p_generators(twists, g, p), g, p)
            if order is None:
                continue  # inconclusive at this prime
            full = symplectic_group_order(g, p)
            if order < full:
                return SurjectivityVerdict(
                    "obstructed",
                    f"mod-{p} symplectic closure has order {order} < {full}")

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
        object.__setattr__(self, "cond_perm", cond_perm)
        object.__setattr__(self, "cond_lef", cond_lef)
        object.__setattr__(self, "cond2", cond2)
        object.__setattr__(self, "cond2strong", cond2strong)
        object.__setattr__(self, "universal", universal)
        object.__setattr__(self, "strongly_universal", strongly_universal)


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
