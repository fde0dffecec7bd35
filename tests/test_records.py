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
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.curves import Curve, CurveClass, nonseparating_curve
from lefschetz.errors import CapacityError, InputError
from lefschetz.fibration import (
    DISK,
    BaseSurface,
    InvariantReport,
    LefschetzFibration,
    SignedCycle,
    build,
    hurwitz_move,
    p_g,
    u_g1,
)
from lefschetz.homology import SurfaceSpec
from lefschetz.mapping import (
    BundleGen,
    HomPermRep,
    Letter,
    MCWord,
    TwistGen,
    boundary_permutation_gen,
    evaluate,
    twist_catalog,
)
from lefschetz.reduction import ReduceResult, stabilize
from lefschetz.serialize import fibration_dumps, fibration_loads
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
    (InvariantReport(5, 0, (2,), 1, 3, 1),
     "InvariantReport(euler=5, h1_free_rank=0, h1_torsion=(2,), h2_rank=1, positive=3, "
     "negative=1)",
     [("euler", 5), ("h1_free_rank", 0), ("h1_torsion", (2,)), ("h2_rank", 1),
      ("positive", 3), ("negative", 1)]),
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
    trusted = type(record)._trusted(*(value for _, value in fields))
    assert trusted == record and repr(trusted) == text


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
    # a bool genus was written as a JSON boolean the reader refuses; a float
    # gave a float rank, and a string a TypeError
    (lambda: p_g(True), "surface genus must be an int"),
    (lambda: SurfaceSpec(1.5, 1), "surface genus must be an int"),
    (lambda: SurfaceSpec("2", 1), "surface genus must be an int"),
    (lambda: build("u_g1", 2.0), "surface genus must be an int"),
    (lambda: SurfaceSpec(1, True), "surface boundary must be an int"),
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
    (lambda: BaseSurface(0, True), "base boundary must be an int"),
    (lambda: BaseSurface(1.0, 1), "base genus must be an int"),
    # a bool position ran as position 1; a float or a string raised TypeError
    (lambda: hurwitz_move(u_g1(2), True, "R"), "move position must be an int"),
    (lambda: hurwitz_move(u_g1(2), 1.0, "R"), "move position must be an int"),
    (lambda: hurwitz_move(u_g1(2), "1", "R"), "move position must be an int"),
    (lambda: SignedCycle(A1, 0), "cycle sign must be +-1"),
    # a bool sign was stored, and written as a JSON boolean the reader refuses
    (lambda: SignedCycle(A1, True), "cycle sign must be an int"),
    (lambda: stabilize(FIB, "boundary_up", True), "sign must be an int"),
    (lambda: SignedCycle("c", 1), "cycle curve must be a Curve"),
    (lambda: LefschetzFibration(S, DISK, ("c",)), "vanishing cycle must be a SignedCycle"),
    (lambda: LefschetzFibration(TWO, DISK, (CYCLE,)), "vanishing cycle on the wrong surface"),
    (lambda: LefschetzFibration(S, BaseSurface(0, 2), ()),
     "base has 1 free loops but 0 bundle generators were given"),
    (lambda: LefschetzFibration(TWO, BaseSurface(0, 2), (), (SWAP,)),
     "bundle generator on the wrong surface"),
    (lambda: LefschetzFibration(S, BaseSurface(0, 2), (), ("swap",)),
     "bundle entry must be a BundleGen"),
    # a mapping class that is no bundle generator
    (lambda: LefschetzFibration(S, BaseSurface(0, 2), (), (HomPermRep(S, IDENTITY, (0, 1)),)),
     "bundle entry must be a BundleGen"),
    (lambda: TwistGen(A1, "up"), "bad handedness 'up'"),
    (lambda: BundleGen(S, ((2, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 1)),
     "bundle generator must preserve the pairing form"),
    (lambda: BundleGen(S, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0)),
     "matrix moves boundary class 1 off d_2"),
    (lambda: BundleGen(S, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0)),
     "(0, 0) is not a permutation of 2 points"),
    (lambda: Letter(TWIST, 2), "letter power must be +-1"),
    (lambda: Letter(TWIST, True), "letter power must be an int"),
    # a mapping class that is no bundle generator, at each power, and a string
    (lambda: evaluate(MCWord(S, (Letter(HomPermRep(S, IDENTITY, (0, 1))),))),
     "letter generator must be a TwistGen or a BundleGen"),
    (lambda: evaluate(MCWord(S, (Letter(HomPermRep(S, IDENTITY, (0, 1)), -1),))),
     "letter generator must be a TwistGen or a BundleGen"),
    (lambda: MCWord(S, (Letter("a1"),)), "letter generator must be a TwistGen or a BundleGen"),
    (lambda: MCWord(TWO, (LETTER,)), "word letters live on different surfaces"),
    (lambda: MCWord(S, ("a1",)), "word letter must be a Letter"),
    (lambda: MCWord(S, (TWIST,)), "word letter must be a Letter"),
    (lambda: PlanEntry(0, WORD, 0), "local degree must be +-1"),
    (lambda: PlanEntry(0, WORD, True), "local degree must be an int"),
    (lambda: ImmersionWitness((ENTRY,)), "an immersion witness needs all local degrees +1"),
    # each of these was stored, and its file refused on reading, or raised TypeError
    (lambda: nonseparating_curve(SurfaceSpec(1, 1), (True, False)),
     "curve class entry must be an int"),
    (lambda: nonseparating_curve(SurfaceSpec(1, 1), (1.0, 0)), "curve class entry must be an int"),
    (lambda: Curve(S, NONSEP, (1, 0, 0), label=5), "curve label must be a str"),
    (lambda: Curve(SurfaceSpec(0, 3), CurveClass.separating((False, 1), (0, 2)), (1, 0)),
     "separating side entry must be an int"),
    (lambda: CurveClass.separating(("a", 1), (0, 1)), "separating side entry must be an int"),
    (lambda: BundleGen(S, tuple(tuple(bool(x) for x in row) for row in IDENTITY), (0, 1)),
     "matrix entry must be an int"),
    (lambda: BundleGen(S, tuple(tuple(float(x) for x in row) for row in IDENTITY), (0, 1)),
     "matrix entry must be an int"),
    (lambda: BundleGen(S, IDENTITY, (False, True)), "perm entry must be an int"),
    (lambda: BundleGen(S, IDENTITY, (0, 1), b"swap"), "bundle label must be a str"),
    (lambda: boundary_permutation_gen(SurfaceSpec(0, 3), (1, 0, 2), label=7),
     "bundle label must be a str"),
    # a refused value is echoed clipped: these gave 5,017 and 5,021 bytes
    (lambda: TwistGen(A1, "x" * 5000), "bad handedness 'xxxxxxxxxxxxxxxxxxx..."),
    (lambda: CurveClass("y" * 5000), "unknown curve kind 'yyyyyyyyyyyyyyyyyyy..."),
    # a genus that is not an int raised TypeError on the genus bound
    (lambda: build("u_g1", "3"), "surface genus must be an int"),
    (lambda: build("p_g", [3]), "surface genus must be an int"),
    (lambda: p_g(None), "surface genus must be an int"),
    # a record held by a record raised AttributeError on first use
    (lambda: MCWord(SurfaceSpec(1, 1), (Letter(TwistGen("c")),)), "twist curve must be a Curve"),
    (lambda: LefschetzFibration(SurfaceSpec(1, 1), (0, 1), ()),
     "fibration base must be a BaseSurface"),
    # these gave 5,036, 5,025 and 5,029 bytes
    (lambda: hurwitz_move(u_g1(2), 1, "x" * 5000),
     "direction must be 'L' or 'R', not 'xxxxxxxxxxxxxxxxxxx..."),
    (lambda: build("x" * 5000), "unknown fibration name 'xxxxxxxxxxxxxxxxxxx..."),
    (lambda: stabilize(FIB, "x" * 5000), "unknown stabilization mode 'xxxxxxxxxxxxxxxxxxx..."),
    # an unhashable name raised TypeError on the builder lookup
    (lambda: build(["u_g1"], 2), "fibration name must be a str"),
    (lambda: build({"a": 1}, 2), "fibration name must be a str"),
    # the catalog of an oversized fiber was built (3.65 s and 427 MB at genus 3000)
    (lambda: twist_catalog(SurfaceSpec(51, 1)), "fiber rank 102 exceeds the desk-scale bound 100",
     CapacityError),
]


@pytest.mark.parametrize("make, message, error",
                         [(*entry, InputError)[:3] for entry in REFUSALS],
                         ids=[entry[1] for entry in REFUSALS])
def test_validation_messages(make, message, error):
    """Each entry refuses with its message, by InputError unless it names
    the error class third."""
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message



def _entries(draw, template):
    """``template`` with each entry left as it is, replaced by another int, or
    replaced by a value of another type that equals it or spells it: a
    float, a string and, for 0 and 1, a bool."""
    out = []
    for v in template:
        others = [float(v), str(v)] + ([bool(v)] if v in (0, 1) else [])
        out.append(draw(st.one_of(st.just(v), st.integers(-2, 2), st.sampled_from(others))))
    return tuple(out)


_LABELS = st.one_of(st.text(max_size=3), st.integers(), st.booleans(),
                    st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_record_the_constructors_accept_round_trips_through_a_file(data):
    # a cycle and a bundle generator on F(1, 2) from valid templates, with the
    # entries of one field drawn from ints, bools, floats and strings
    draw = data.draw
    field = draw(st.sampled_from(["none", "sides", "hom", "sign", "matrix", "perm", "labels"]))

    def entries(name, template):
        return _entries(draw, template) if name == field else tuple(template)

    def label():
        return draw(_LABELS if field == "labels" else st.text(max_size=3))

    try:
        if draw(st.booleans()):
            cls, hom = CurveClass.nonseparating(), draw(st.sampled_from([(1, 0, 0), (1, 1, 1)]))
        else:
            sides = entries("sides", (0, 1)), entries("sides", (1, 1))
            cls = (CurveClass("sep", sides) if draw(st.booleans())
                   else CurveClass.separating(*reversed(sides)))
            hom = (0, 0, 1)
        curve = Curve(S, cls, entries("hom", hom), label())
        cycle = SignedCycle(curve, entries("sign", (draw(st.sampled_from([1, -1])),))[0])
        matrix, perm = draw(st.sampled_from([(IDENTITY, (0, 1)), (SWAP.matrix, SWAP.perm)]))
        gen = BundleGen(S, tuple(entries("matrix", row) for row in matrix),
                        entries("perm", perm), label())
        f = LefschetzFibration(S, BaseSurface(0, 2), (cycle,), (gen,))
    except InputError:
        return
    again = fibration_loads(fibration_dumps(f))
    # repr shows every field, labels included, and the type of each entry
    assert again == f and repr(again) == repr(f)
