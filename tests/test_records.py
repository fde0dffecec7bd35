"""The library's value types behave as frozen records.

Every public record type is pinned here: its ``repr``, equality by class and
by the fields it compares, a hash equal to the hash of the tuple of those
fields (so the order of a set or dict of records, and with it the CLI's
stdout, does not depend on how records are implemented), labels left out of
both on ``Curve`` and ``BundleGen``, refusal of assignment and deletion,
positional, keyword and default construction, pickling and copying, and the
messages of every validation a constructor makes.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from lefschetz.curves import Curve, CurveClass
from lefschetz.errors import InputError
from lefschetz.fibration import DISK, BaseSurface, InvariantReport, LefschetzFibration, SignedCycle
from lefschetz.homology import SurfaceSpec
from lefschetz.mapping import BundleGen, HomPermRep, Letter, MCWord, TwistGen
from lefschetz.reduction import ReduceResult
from lefschetz.universality import SurjectivityVerdict, UniversalityReport
from lefschetz.witness import ImmersionWitness, MeridianPlan, PlanEntry

S = SurfaceSpec(1, 2)
NONSEP = CurveClass("nonsep")
A1 = Curve(S, NONSEP, (1, 0, 0), "a1")
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
SWAP = BundleGen(S, ((1, 0, 0), (0, 1, 0), (0, 0, -1)), (1, 0), "swap")
TWIST = TwistGen(A1, "left")
LETTER = Letter(TWIST, -1)
WORD = MCWord(S, (LETTER,))
CYCLE = SignedCycle(A1, -1)
FIB = LefschetzFibration(S, DISK, (CYCLE,))
ENTRY = PlanEntry(0, WORD, -1)
PLAN = MeridianPlan((ENTRY,))
WITNESS = ImmersionWitness((PlanEntry(0, WORD),))
VERDICT = SurjectivityVerdict("obstructed", "why")

S_REPR = "SurfaceSpec(genus=1, boundary=2)"
NONSEP_REPR = "CurveClass(kind='nonsep', sides=None)"
A1_REPR = f"Curve(surface={S_REPR}, cls={NONSEP_REPR}, hom=(1, 0, 0), label='a1')"
SWAP_REPR = (f"BundleGen(surface={S_REPR}, matrix=((1, 0, 0), (0, 1, 0), (0, 0, -1)), "
             "perm=(1, 0), label='swap')")
TWIST_REPR = f"TwistGen(curve={A1_REPR}, handed='left')"
WORD_REPR = f"MCWord(surface={S_REPR}, letters=(Letter(gen={TWIST_REPR}, power=-1),))"
CYCLE_REPR = f"SignedCycle(curve={A1_REPR}, sign=-1)"
FIB_REPR = (f"LefschetzFibration(fiber={S_REPR}, base=BaseSurface(genus=0, boundary=1), "
            f"cycles=({CYCLE_REPR},), bundle=())")
VERDICT_REPR = "SurjectivityVerdict(status='obstructed', detail='why')"

# record, its exact repr, and the fields (name, value) in order; the fields
# after "|" are not compared
RECORDS = [
    (S, S_REPR, [("genus", 1), ("boundary", 2)]),
    (CurveClass("sep", ((0, 1), (1, 1))), "CurveClass(kind='sep', sides=((0, 1), (1, 1)))",
     [("kind", "sep"), ("sides", ((0, 1), (1, 1)))]),
    (A1, A1_REPR, [("surface", S), ("cls", NONSEP), ("hom", (1, 0, 0)), "|", ("label", "a1")]),
    (BaseSurface(1, 2), "BaseSurface(genus=1, boundary=2)", [("genus", 1), ("boundary", 2)]),
    (CYCLE, CYCLE_REPR, [("curve", A1), ("sign", -1)]),
    (FIB, FIB_REPR, [("fiber", S), ("base", DISK), ("cycles", (CYCLE,)), ("bundle", ())]),
    (InvariantReport(5, 0, (2,), 1, 3, 1, False),
     "InvariantReport(euler=5, h1_free_rank=0, h1_torsion=(2,), h2_rank=1, positive=3, "
     "negative=1, allowable=False)",
     [("euler", 5), ("h1_free_rank", 0), ("h1_torsion", (2,)), ("h2_rank", 1),
      ("positive", 3), ("negative", 1), ("allowable", False)]),
    (TWIST, TWIST_REPR, [("curve", A1), ("handed", "left")]),
    (SWAP, SWAP_REPR, [("surface", S), ("matrix", ((1, 0, 0), (0, 1, 0), (0, 0, -1))),
                       ("perm", (1, 0)), "|", ("label", "swap")]),
    (LETTER, f"Letter(gen={TWIST_REPR}, power=-1)", [("gen", TWIST), ("power", -1)]),
    (WORD, WORD_REPR, [("surface", S), ("letters", (LETTER,))]),
    (HomPermRep(S, IDENTITY, (0, 1)),
     f"HomPermRep(surface={S_REPR}, matrix=((1, 0, 0), (0, 1, 0), (0, 0, 1)), perm=(0, 1))",
     [("surface", S), ("matrix", IDENTITY), ("perm", (0, 1))]),
    (ReduceResult(FIB, 2, True, 7, 9),
     f"ReduceResult(fibration={FIB_REPR}, steps=2, exhausted=True, explored=7, states=9)",
     [("fibration", FIB), ("steps", 2), ("exhausted", True), ("explored", 7), ("states", 9)]),
    (VERDICT, VERDICT_REPR, [("status", "obstructed"), ("detail", "why")]),
    (UniversalityReport(True, VERDICT, True, False, "no", "unknown"),
     f"UniversalityReport(cond_perm=True, cond_lef={VERDICT_REPR}, cond2=True, "
     "cond2strong=False, universal='no', strongly_universal='unknown')",
     [("cond_perm", True), ("cond_lef", VERDICT), ("cond2", True), ("cond2strong", False),
      ("universal", "no"), ("strongly_universal", "unknown")]),
    (ENTRY, f"PlanEntry(source=0, conjugator={WORD_REPR}, local_degree=-1)",
     [("source", 0), ("conjugator", WORD), ("local_degree", -1)]),
    (PLAN, f"MeridianPlan(entries=(PlanEntry(source=0, conjugator={WORD_REPR}, "
     "local_degree=-1),))", [("entries", (ENTRY,))]),
    (WITNESS, f"ImmersionWitness(entries=(PlanEntry(source=0, conjugator={WORD_REPR}, "
     "local_degree=1),))", [("entries", (PlanEntry(0, WORD),))]),
]
IDS = [type(r).__name__ for r, *_ in RECORDS]


def _fields(spec):
    """(all fields, compared fields) of a RECORDS entry."""
    cut = spec.index("|") if "|" in spec else len(spec)
    return [f for f in spec if f != "|"], spec[:cut]


def test_every_public_record_type_is_pinned():
    import lefschetz

    pinned = {type(r) for r, *_ in RECORDS}
    public = {obj for obj in (getattr(lefschetz, name) for name in lefschetz.__all__)
              if isinstance(obj, type) and not issubclass(obj, Exception)}
    assert pinned == public


@pytest.mark.parametrize("record, text, spec", RECORDS, ids=IDS)
def test_repr_fields_equality_and_hash(record, text, spec):
    fields, compared = _fields(spec)
    assert repr(record) == text
    assert [(name, getattr(record, name)) for name, _ in fields] == fields
    again = type(record)(*(value for _, value in fields))
    assert again == record and not again != record
    assert hash(record) == hash(again) == hash(tuple(value for _, value in compared))


@pytest.mark.parametrize("record, text, spec", RECORDS, ids=IDS)
def test_keyword_construction(record, text, spec):
    fields, _ = _fields(spec)
    assert type(record)(**dict(fields)) == record
    assert repr(type(record)(**dict(reversed(fields)))) == text


@pytest.mark.parametrize("record, text, spec", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, text, spec):
    fields, _ = _fields(spec)
    for name, value in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("record, text, spec", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, text, spec):
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(again) is type(record) and again == record and repr(again) == text


def test_labels_are_not_compared():
    relabeled = Curve(S, NONSEP, (1, 0, 0), "other")
    assert relabeled == A1 and hash(relabeled) == hash(A1)
    assert {A1: 1}[relabeled] == 1
    assert Curve(S, NONSEP, (0, 1, 0), "a1") != A1
    swap = BundleGen(S, SWAP.matrix, SWAP.perm)
    assert swap == SWAP and hash(swap) == hash(SWAP)
    assert swap.label == "" and repr(swap) == SWAP_REPR.replace("'swap'", "''")


def test_equality_needs_the_same_class():
    assert SurfaceSpec(1, 1) != BaseSurface(1, 1)
    assert not SurfaceSpec(1, 1) == BaseSurface(1, 1)
    entries = (PlanEntry(0, WORD),)
    assert MeridianPlan(entries) != ImmersionWitness(entries)
    assert MeridianPlan(entries).entries == ImmersionWitness(entries).entries
    assert len({SurfaceSpec(1, 1), BaseSurface(1, 1), MeridianPlan(entries),
                ImmersionWitness(entries)}) == 4
    assert SurfaceSpec(1, 1) != (1, 1) and CurveClass("nonsep") != "nonsep"
    # a bundle generator is a labelled mapping class, but not equal to the bare one
    assert isinstance(SWAP, HomPermRep)
    assert BundleGen(S, SWAP.matrix, SWAP.perm) != HomPermRep(S, SWAP.matrix, SWAP.perm)


def test_defaults():
    assert CurveClass("nonsep").sides is None
    assert Curve(S, NONSEP, (1, 0, 0)).label == ""
    assert LefschetzFibration(S, DISK, ()).bundle == ()
    assert InvariantReport(euler=1, h1_free_rank=0, h1_torsion=(), h2_rank=0, positive=0,
                           negative=0).allowable is True
    assert TwistGen(A1).handed == "right"
    assert Letter(TWIST).power == 1
    assert MCWord(S).letters == ()
    assert ReduceResult(FIB, 0, False) == ReduceResult(FIB, 0, False, 0, 1)
    assert SurjectivityVerdict("unknown").detail == ""
    assert PlanEntry(0, WORD).local_degree == 1


def test_constructors_normalize_sequences_to_tuples():
    assert Curve(S, NONSEP, [1, 0, 0]).hom == (1, 0, 0)
    assert LefschetzFibration(S, DISK, [CYCLE], []) == FIB
    assert FIB.cycles == (CYCLE,) and LefschetzFibration(S, DISK, [CYCLE]).bundle == ()
    swap = BundleGen(S, [[1, 0, 0], [0, 1, 0], [0, 0, -1]], [1, 0])
    assert swap.matrix == SWAP.matrix and swap.perm == (1, 0)
    assert MCWord(S, [LETTER]).letters == (LETTER,)
    assert MeridianPlan([ENTRY]).entries == (ENTRY,)
    assert ImmersionWitness([PlanEntry(0, WORD)]) == WITNESS


def test_properties_and_methods():
    assert (S.rank, S.euler, S.basis_names()) == (3, -2, ("a1", "b1", "d1"))
    assert BaseSurface(1, 2).free_loop_count == 3
    assert TWIST.sign == -1 and TWIST.surface == S
    assert LETTER.inverse() == Letter(TWIST) and len(WORD * WORD) == 2
    assert WORD.inverse() == MCWord(S, (Letter(TWIST),))
    assert not PLAN.is_immersion and WITNESS.is_immersion
    assert VERDICT.obstructed and not VERDICT.certified
    assert FIB.size == 1 and FIB.signs() == (-1,)
    assert SWAP.inverse() == SWAP and SWAP.inverse().label == "swap^-1"


TWO = SurfaceSpec(0, 2)
SEP = CurveClass("sep", ((0, 1), (0, 1)))

# (constructor call, exact message)
REFUSALS = [
    (lambda: SurfaceSpec(-1, 0), "invalid surface (-1, 0)"),
    (lambda: SurfaceSpec(0, -2), "invalid surface (0, -2)"),
    (lambda: SurfaceSpec(-10**5000, 0), "invalid surface ((too many digits to show), 0)"),
    (lambda: CurveClass("nonsep", ((0, 1), (0, 1))), "non-separating type carries no side data"),
    (lambda: CurveClass("sep"), "separating type needs side data"),
    (lambda: CurveClass("sep", ((0, 0), (1, 2))),
     "separating sides ((0, 0), (1, 2)): each side needs >= 1 boundary circle "
     "(else the curve is null-homologous)"),
    (lambda: CurveClass("sep", ((1, 1), (0, 1))), "separating sides must be normalized"),
    (lambda: CurveClass("loop"), "unknown curve kind 'loop'"),
    (lambda: Curve(S, NONSEP, (1, 0)), "class of length 2 on F(1,2) (rank 3)"),
    (lambda: Curve(S, NONSEP, (0, 0, 0)), "curve class must be essential (nonzero)"),
    (lambda: Curve(TWO, NONSEP, (1,)), "no non-separating curve on F(0,2)"),
    (lambda: Curve(S, NONSEP, (2, 0, 0)), "non-separating curves have primitive class"),
    (lambda: Curve(S, NONSEP, (0, 0, 1)),
     "a curve with boundary-type class cannot be non-separating"),
    (lambda: Curve(SurfaceSpec(0, 3), SEP, (1, 1)),
     "sides ((0, 1), (0, 1)) do not split F(0,3)"),
    (lambda: Curve(TWO, SEP, (2,)), "separating class (2,) is not a boundary-subset class"),
    (lambda: Curve(SurfaceSpec(0, 4), CurveClass("sep", ((0, 1), (0, 3))), (1, 1, 0)),
     "subset size 2 inconsistent with sides ((0, 1), (0, 3))"),
    (lambda: BaseSurface(-1, 1), "base genus must be >= 0"),
    (lambda: BaseSurface(0, 0), "base surfaces must have nonempty boundary"),
    (lambda: SignedCycle(A1, 0), "cycle sign must be +-1"),
    (lambda: LefschetzFibration(TWO, DISK, (CYCLE,)), "vanishing cycle on the wrong surface"),
    (lambda: LefschetzFibration(S, BaseSurface(0, 2), ()),
     "base has 1 free loops but 0 bundle generators were given"),
    (lambda: LefschetzFibration(TWO, BaseSurface(0, 2), (), (SWAP,)),
     "bundle generator on the wrong surface"),
    (lambda: TwistGen(A1, "up"), "bad handedness 'up'"),
    (lambda: BundleGen(S, ((2, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 1)),
     "bundle generator must preserve the pairing form"),
    (lambda: BundleGen(S, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0)),
     "matrix moves boundary class 1 off d_2"),
    (lambda: BundleGen(S, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0)),
     "(0, 0) is not a permutation of 2 points"),
    (lambda: Letter(TWIST, 2), "letter power must be +-1"),
    (lambda: MCWord(TWO, (LETTER,)), "word letters live on different surfaces"),
    (lambda: PlanEntry(0, WORD, 0), "local degree must be +-1"),
    (lambda: ImmersionWitness((ENTRY,)), "an immersion witness needs all local degrees +1"),
]


@pytest.mark.parametrize("make, message", REFUSALS, ids=[m for _, m in REFUSALS])
def test_validation_messages(make, message):
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == message
