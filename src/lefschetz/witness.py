"""Pullbacks along meridian plans, and the search for a plan that realizes
one fibration as a pullback of another.

A meridian plan sends each target cycle to a source cycle moved by a
conjugating word of twists, with a local degree; :func:`pullback` applies
it, and :func:`substitution_witness` searches the words of the source's own
twists for one.
"""

from __future__ import annotations

import operator
import threading

from .curves import Curve, CurveClass
from .errors import CapacityError, InputError
from .fibration import DISK, LefschetzFibration, SignedCycle, require_disk
from .homology import Matrix, Record, Vector, check_cycle_count, check_int, check_unit, covector
from .mapping import Letter, MCWord, TwistGen, transvect, word_action


# ---------------------------------------------------------------------------
# pullbacks along meridian plans
# ---------------------------------------------------------------------------

class PlanEntry(Record):
    """One target meridian: source cycle, conjugating word, local degree."""

    __slots__ = ("source", "conjugator", "local_degree")

    def __init__(self, source: int, conjugator: MCWord, local_degree: int = 1) -> None:
        check_int(source, "plan source")
        if not isinstance(conjugator, MCWord):
            raise InputError("plan conjugator must be an MCWord")
        check_unit(local_degree, "local degree")
        self._store(source, conjugator, local_degree)


class MeridianPlan(Record):
    """Combinatorial u-regular map of the disk, one entry per target cycle."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[PlanEntry, ...]) -> None:
        entries = tuple(entries)
        for e in entries:
            if not isinstance(e, PlanEntry):
                raise InputError("plan entry must be a PlanEntry")
        self._store(entries)

    @property
    def is_immersion(self) -> bool:
        return all(e.local_degree == 1 for e in self.entries)


class ImmersionWitness(MeridianPlan):
    """A meridian plan with every local degree +1 (orientation-preserving)."""

    __slots__ = ()

    def __init__(self, entries: tuple[PlanEntry, ...]) -> None:
        super().__init__(entries)
        if not self.is_immersion:
            raise InputError("an immersion witness needs all local degrees +1")


def identity_plan(u: LefschetzFibration) -> ImmersionWitness:
    empty = MCWord(u.fiber)
    return ImmersionWitness(tuple(PlanEntry(i, empty, 1) for i in range(u.size)))


def pullback(u: LefschetzFibration, plan: MeridianPlan) -> LefschetzFibration:
    """Pull back along the map encoded by the plan.

    Target cycle i is the source cycle plan[i].source moved by the
    conjugator through :func:`word_action`, with sign multiplied by the
    local degree.  A conjugator is a homeomorphism, so the moved cycles and
    the result are stored without validation.  A plan of more than
    MAX_CYCLES entries is refused with CapacityError before any move.
    """
    require_disk(u, "pullback")
    check_cycle_count(len(plan.entries))
    cycles = []
    for e in plan.entries:
        if not 0 <= e.source < u.size:
            raise InputError(f"plan source {e.source} out of range")
        if e.conjugator.surface != u.fiber:
            raise InputError("plan conjugator on the wrong surface")
        src = u.cycles[e.source]
        c = src.curve
        hom = word_action(e.conjugator, (c.hom,))[0]
        cycles.append(SignedCycle._trusted(
            Curve._trusted(c.surface, c.cls, hom, c.label), e.local_degree * src.sign))
    return LefschetzFibration._trusted(u.fiber, DISK, tuple(cycles), ())


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

# Most words a witness search may enumerate, counted before pruning: the sum
# over lengths L <= depth of len(alphabet)**L.  u_g1(3) at depth 5 counts
# 579,195.
WITNESS_WORD_BOUND = 1_000_000
WITNESS_DEPTH = 4  # default depth of substitution_witness and `lefschetz witness`

# Most (second half, source class) pairs the walk cache keeps across searches,
# a walk step counting as one pair: at most about 0.5 KiB each, so a few MB.
# A new entry that would pass the bound empties the cache first; an entry
# larger than the bound serves its own search and is not kept.
WITNESS_CACHE_PAIRS = 10_000

# The walk cache: (fiber, (class, hand) per letter in alphabet order) -> the
# walk steps, and that key plus the source classes and a half length -> the
# half table.  That is all the two read; labels stay out, since the entries
# hold letter indices and each plan takes its letters from its own call.
_walk_cache: dict[tuple, list | dict] = {}
_walk_cache_pairs = 0  # the pairs _walk_cache holds
_walk_cache_lock = threading.Lock()  # keeps the count true when threads share the cache


def _cached(key: tuple, build, pairs):
    """The walk cache's entry under ``key``, made by ``build()`` and kept,
    with ``pairs(entry)`` counted against WITNESS_CACHE_PAIRS, when missing."""
    global _walk_cache_pairs
    entry = _walk_cache.get(key)
    if entry is None:
        entry = build()
        n = pairs(entry)
        if n <= WITNESS_CACHE_PAIRS:
            with _walk_cache_lock:
                if key not in _walk_cache:  # another thread may have kept it
                    if _walk_cache_pairs + n > WITNESS_CACHE_PAIRS:
                        _walk_cache.clear()
                        _walk_cache_pairs = 0
                    _walk_cache[key] = entry
                    _walk_cache_pairs += n
    return entry


def _twists(u: LefschetzFibration) -> list[tuple[Curve, str]]:
    """(curve, hand) per twist letter over the source's distinct cycle
    curves, keyed by type and class, right then left; curves equal up to
    their label share the letters of the first."""
    firsts: dict[tuple, Curve] = {}
    for c in u.cycles:
        firsts.setdefault((c.curve.cls, c.curve.hom), c.curve)
    return [(c, hand) for c in firsts.values() for hand in ("right", "left")]


def substitution_witness(
    u: LefschetzFibration,
    f: LefschetzFibration,
    depth: int = WITNESS_DEPTH,
) -> MeridianPlan | None:
    """Search for a meridian plan realizing f as a pullback of u.

    For each target cycle, the first conjugating word over the source's own
    twist letters (and inverses), in length-then-lex order up to ``depth``,
    that carries a source cycle onto it with the same type and class is
    taken.  Sign-matching sources are preferred (local degree +1), at any
    length; otherwise the first word reaching an opposite-sign source is
    used with local degree -1.  Within a tier the first matching source in
    order wins.  The returned plan is verified by a pullback round trip and
    is an ImmersionWitness when every local degree is +1.  Returns None when
    some cycle stays unmatched within the depth bound.  Before any search,
    CapacityError is raised when the unpruned word count passes
    WITNESS_WORD_BOUND, and InputError when the depth is not an int (a bool
    included).

    The search meets in the middle.  A word w of length L splits as
    w1 w2 with |w2| = L // 2, and w^-1 t = u_j exactly when
    w1^-1 t = w2 u_j.  So :func:`_half_words` tables the lex-least w2 per
    vector w2 u_j and source class u_j, once per half length reached, and
    the walk visits only the first halves (:func:`_walk_level`), carrying
    w1^-1 t only for the open targets t: those with no tier-0 hit yet.  One
    lookup per open target at each w1, in a table of sources built once per
    distinct type and sign of the targets, gives its candidates.  Lex order
    on words of one length is lex order on (w1, w2), so the first w1 with a
    hit, joined to its least tabled w2, is the first word of length L with
    that hit, per target and tier.  Each half skips the words that
    :func:`_walk_steps` shows equal to an earlier word; both halves of an
    unskipped word are unskipped, and the first match of a full enumeration
    is never skipped, so the plans are those of the full enumeration.

    The walk steps and half tables are kept across calls in the walk cache,
    bounded by WITNESS_CACHE_PAIRS, so further searches from a source with
    the same fiber, letter classes and hands, and source classes build
    neither again.
    """
    check_int(depth, "depth")
    if u.fiber != f.fiber:
        raise InputError("witness search needs a common fiber")
    require_disk(u, "substitution_witness")
    require_disk(f, "substitution_witness")
    if depth < 0:
        raise InputError("depth must be >= 0")

    twists = _twists(u)
    words, level = 0, 1
    for _ in range(depth + 1):
        words += level
        if words > WITNESS_WORD_BOUND:
            shown = depth if depth <= WITNESS_WORD_BOUND else f"above {WITNESS_WORD_BOUND}"
            raise CapacityError(
                f"witness search over {len(twists)} letters to depth {shown} "
                f"exceeds the bound of {WITNESS_WORD_BOUND} words")
        level *= len(twists)
        if not level:
            break  # an empty alphabet has only the empty word
    key = (u.fiber, tuple((c.hom, hand) for c, hand in twists))
    steps = _cached(key, lambda: _walk_steps(twists), len)
    # Per distinct target (type, sign): source class -> (tier, j),
    # sign-matching sources (tier 0) before opposite-sign ones (tier 1), the
    # first j winning within a tier.
    by_type: dict[CurveClass, list[tuple[int, SignedCycle]]] = {}
    for j, s in enumerate(u.cycles):
        by_type.setdefault(s.curve.cls, []).append((j, s))
    by_type_sign: dict[tuple[CurveClass, int], dict[Vector, tuple[int, int]]] = {}
    tables = []
    for t in f.cycles:
        table = by_type_sign.get((t.curve.cls, t.sign))
        if table is None:
            table = by_type_sign[t.curve.cls, t.sign] = {}
            for tier in (0, 1):
                for j, s in by_type.get(t.curve.cls, ()):
                    if (s.sign == t.sign) == (tier == 0):
                        table.setdefault(s.curve.hom, (tier, j))
        tables.append(table)
    found: list[tuple[int, tuple[int, ...], int] | None] = [None] * len(tables)
    sources = tuple(dict.fromkeys(c.curve.hom for c in u.cycles))

    def visit(word: tuple[int, ...], preimages: Matrix) -> bool:
        # preimage k is that of target opened[k]; a tier-1 hit is kept until
        # a tier-0 one replaces it
        for i, p in zip(opened, preimages):
            if found[i] is not None and found[i][0] == 0:
                continue
            for second, v in half.get(p, ()):  # ascending in the second half
                hit = tables[i].get(v)
                if hit is not None and (found[i] is None or hit[0] < found[i][0]):
                    found[i] = (hit[0], word + second, hit[1])
                    if hit[0] == 0:
                        break
        return all(found[i] is not None and found[i][0] == 0 for i in opened)

    # Length-lexicographic: all words of length L before any of length L+1.
    # Each length walks only the targets with no tier-0 hit yet.
    for length in range(depth + 1 if twists else 1):
        if length % 2 == 0:  # the second half grows by one letter
            m = length // 2
            half = _cached(key + (sources, m), lambda: _half_words(steps, sources, m),
                           lambda table: sum(map(len, table.values())))
        opened = [i for i, x in enumerate(found) if x is None or x[0] != 0]
        start = tuple(f.cycles[i].curve.hom for i in opened)
        if _walk_level((), start, length - length // 2, range(len(steps)), steps, visit):
            break

    if None in found:
        return None
    letters = {li: Letter(TwistGen(*twists[li]))
               for li in {li for _, word, _ in found for li in word}}
    entries = [PlanEntry(j, MCWord(u.fiber, tuple(letters[li] for li in word)), -1 if tier else 1)
               for tier, word, j in found]
    plan_cls = ImmersionWitness if all(e.local_degree == 1 for e in entries) else MeridianPlan
    plan = plan_cls(tuple(entries))

    if pullback(u, plan).cycles != f.cycles:  # compared up to labels
        raise AssertionError("witness failed the pullback round trip")
    return plan


def _walk_steps(twists: list[tuple[Curve, str]],
                ) -> list[tuple[Vector, Vector, int, tuple[int, ...]]]:
    """Per (curve, hand) of :func:`_twists`: its step (class, ``covector`` of
    the class, h = +1 right or -1 left) and the letters the walk may put after it.

    Letter l is not put after p when it undoes p (the same class with the
    other hand), or when l < p and the two classes pair to 0: such
    transvections commute, so swapping them gives a lex-smaller word with
    the same matrix.  Either way the word equals one that comes earlier in
    length-then-lex order.
    """
    base = [(c.hom, covector(c.surface, c.hom), 1 if hand == "right" else -1) for c, hand in twists]
    steps = []
    for p, (cp, wp, hp) in enumerate(base):
        after = tuple(
            l for l, (cl, _, hl) in enumerate(base)
            if not (cl == cp and hl == -hp)
            and not (l < p and sum(map(operator.mul, wp, cl)) == 0))
        steps.append((cp, wp, hp, after))
    return steps


def _walk_level(word, preimages, remaining, allowed, steps, visit) -> bool:
    """Visit the words of exactly ``remaining`` more letters drawn from
    ``allowed`` and then each letter's followers, in lex order, carrying
    w^-1 t for each class t in ``preimages`` (the open targets): appending
    letter l applies T_l^-1, one rank-1 update per class.  True once
    ``visit`` reports every target matched."""
    if remaining == 0:
        return visit(word, preimages)
    for li in allowed:
        c, w, h, after = steps[li]
        if _walk_level(word + (li,), transvect(preimages, w, c, -h), remaining - 1,
                       after, steps, visit):
            return True
    return False


def _half_words(steps, sources: tuple[Vector, ...], m: int,
                ) -> dict[Vector, list[tuple[tuple[int, ...], Vector]]]:
    """Per vector x, the pairs (w, u) of a source class u and the lex-least
    word w of exactly m letters with T_w u = x, sorted by w.

    The words are those :func:`_walk_level` visits, built right to left:
    putting letter l before a word applies T_l, one rank-1 update of each
    source class, and l may go before a word whose first letter follows it.
    """
    before: list[list[int]] = [[] for _ in steps]
    for p, (_, _, _, after) in enumerate(steps):
        for li in after:
            before[li].append(p)
    least: dict[Vector, dict[Vector, tuple[int, ...]]] = {}

    def walk(word, images, remaining, allowed) -> None:
        if remaining == 0:
            for u, x in zip(sources, images):
                best = least.setdefault(x, {})
                if u not in best or word < best[u]:
                    best[u] = word
            return
        for li in allowed:
            c, w, h, _ = steps[li]
            walk((li,) + word, transvect(images, w, c, h), remaining - 1, before[li])

    walk((), sources, m, range(len(steps)))
    return {x: sorted((w, u) for u, w in best.items()) for x, best in least.items()}
