"""Records derived from checked ones are stored without validation.

A homeomorphism takes a valid curve, cycle or fibration to a valid one of the
same type, so ``hurwitz_move``, ``global_conjugate`` and ``act_on_curve``
build their moved records with ``Record._trusted``.  The one mapping-class
check is ``HomPermRep``'s constructor, which ``BundleGen`` inherits; a
product, inverse or conjugate of checked mapping classes is one by algebra,
so ``evaluate``, ``HomPermRep.compose``, ``BundleGen.inverse``,
``boundary_permutation_gen``, the conjugated generators of
``global_conjugate`` and the words of ``Letter.inverse``, ``MCWord.inverse``
and ``MCWord.__mul__`` are stored unchecked too.  These tests rerun the move
trials, the reference differentials and the golden CLI calls with
``_trusted`` routed through the validating constructors, and require the
same results; check that every derived mapping class passes the public
check and preserves the pairing, which is what the skipped checks checked;
spy that the fast path builds nothing through a constructor and checks the
pairing only in the public constructors; and pin the refusals of the
``HomPermRep`` constructor, which is what keeps ``act_on_curve`` sound for a
rep it is given.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lefschetz.mapping as mapping
import reference_kernel as ref
import test_acceptance
import test_golden
import test_kernel
from lefschetz.cli import main
from lefschetz.curves import Curve, nonseparating_curve, separating_curve
from lefschetz.errors import InputError
from lefschetz.fibration import (
    ANNULUS,
    DISK,
    BaseSurface,
    LefschetzFibration,
    SignedCycle,
    global_conjugate,
    hurwitz_move,
    u_g1,
)
from lefschetz.homology import Record, SurfaceSpec
from lefschetz.mapping import (
    BundleGen,
    HomPermRep,
    Letter,
    MCWord,
    TwistGen,
    act_on_curve,
    boundary_permutation_gen,
    evaluate,
    twist_catalog,
    twist_word,
)
from lefschetz.serialize import fibration_dumps


def _validate_everything(monkeypatch):
    """Route ``Record._trusted`` through the public, validating constructor."""
    monkeypatch.setattr(Record, "_trusted", classmethod(lambda cls, *fields: cls(*fields)))


def _spy(monkeypatch) -> Counter:
    """Count the calls of the validating constructors and the pairing check."""
    calls: Counter = Counter()

    def counted(key, fn):
        def spy(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return spy

    for cls in (Curve, SignedCycle, LefschetzFibration):
        monkeypatch.setattr(cls, "__init__", counted(cls, cls.__init__))
    monkeypatch.setattr(mapping, "preserves_pairing",
                        counted("preserves_pairing", mapping.preserves_pairing))
    return calls


# ---------------------------------------------------------------------------
# the trusted path against the validating one
# ---------------------------------------------------------------------------

# (hypothesis test of test_kernel, its arguments) for each reference differential
DIFFERENTIALS = (
    [("test_hurwitz_moves_match_dense_reference", dict(seed=s, moves=20)) for s in range(25)]
    + [("test_global_conjugate_matches_reference", dict(seed=s, length=s % 6))
       for s in range(15)]
    + [("test_twist_word_conjugation_matches_reference", dict(seed=s, length=s % 9))
       for s in range(25)]
    + [("test_evaluate_matches_dense_reference", dict(seed=s, length=s % 9))
       for s in range(25)])


def _run_everything(monkeypatch, tmp_path, capsys) -> list[str]:
    """The repr of every result of AC-7's first 200 move trials, of each
    library move and evaluation in the reference differentials, and of the
    golden CLI calls with their fixture files."""
    out = [repr(trial) for trial in test_acceptance.move_trials(200)]

    def recorded(fn):
        def record(*args):
            result = fn(*args)
            out.append(repr(result))
            return result
        return record

    with monkeypatch.context() as m:
        for name in ("hurwitz_move", "global_conjugate", "evaluate"):
            m.setattr(test_kernel, name, recorded(getattr(test_kernel, name)))
        for test, kwargs in DIFFERENTIALS:
            getattr(test_kernel, test).hypothesis.inner_test(**kwargs)
    for name, f in test_golden.fixtures().items():
        text = fibration_dumps(f)
        (tmp_path / name).write_text(text, encoding="utf-8")
        out.append(text)
    for call in test_golden.GOLDEN:
        code = main(test_golden._argv(call, tmp_path))
        out.append(repr((code, capsys.readouterr().out)))
    return out


def test_trusted_records_equal_validated_ones(monkeypatch, tmp_path, capsys):
    trusted = _run_everything(monkeypatch, tmp_path, capsys)
    _validate_everything(monkeypatch)
    calls = _spy(monkeypatch)
    assert _run_everything(monkeypatch, tmp_path, capsys) == trusted
    assert calls[Curve] and calls[LefschetzFibration]  # the patch took effect


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), length=st.integers(0, 10))
def test_twist_words_preserve_the_pairing(seed, length):
    # the proof obligation for skipping evaluate's assertion on twist words
    rng = random.Random(seed)
    while True:
        s = SurfaceSpec(rng.randint(0, 6), rng.randint(0, 3))
        if 1 <= s.rank <= 12 and (s.genus >= 1 or s.boundary >= 2):
            break
    w = MCWord(s, tuple(
        Letter(TwistGen(test_kernel._random_curve(rng, s), rng.choice(("right", "left"))),
               rng.choice((1, -1)))
        for _ in range(length)))
    rep = evaluate(w)
    assert ref.preserves_pairing(s, rep.matrix)
    assert rep.perm == tuple(range(s.boundary))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), length=st.integers(0, 8))
def test_derived_mapping_classes_pass_the_public_check(seed, length):
    # the proof obligation for storing products, inverses and conjugates of
    # checked mapping classes without the check
    rng = random.Random(seed)
    while True:
        s = SurfaceSpec(rng.randint(0, 5), rng.randint(2, 4))
        if s.rank <= 12:
            break

    def shuffle():
        perm = list(range(s.boundary))
        rng.shuffle(perm)
        return boundary_permutation_gen(s, perm, "p")

    def twist():
        curve = test_kernel._random_curve(rng, s)
        return Letter(TwistGen(curve, rng.choice(("right", "left"))), rng.choice((1, -1)))

    cycle = SignedCycle(test_kernel._random_curve(rng, s), 1)
    f = LefschetzFibration(s, BaseSurface(0, 3), (cycle,), (shuffle(), shuffle()))
    conjugator = MCWord(s, (twist(), Letter(shuffle(), rng.choice((1, -1))), twist()))
    gens = f.bundle + global_conjugate(f, conjugator).bundle
    for gen in gens + tuple(g.inverse() for g in gens):
        assert BundleGen(s, gen.matrix, gen.perm, gen.label) == gen
        assert ref.preserves_pairing(s, gen.matrix)
    w = MCWord(s, tuple(
        Letter(rng.choice(gens), rng.choice((1, -1))) if rng.random() < 0.4 else twist()
        for _ in range(length)))
    for word in (w, w.inverse(), w * conjugator):
        rep = evaluate(word)
        assert HomPermRep(s, rep.matrix, rep.perm) == rep
        assert ref.preserves_pairing(s, rep.matrix)
    assert evaluate(w * w.inverse()).is_identity


# ---------------------------------------------------------------------------
# the fast path builds nothing through a validating constructor
# ---------------------------------------------------------------------------

def test_moves_run_no_validation(monkeypatch):
    f = u_g1(3)
    b1, b2, a1 = twist_catalog(f.fiber)[:3]
    word = twist_word(TwistGen(b1), TwistGen(a1, "left"))
    rep = HomPermRep(f.fiber, evaluate(word).matrix, (0,))
    s = SurfaceSpec(1, 2)
    swap = boundary_permutation_gen(s, (1, 0))
    a = nonseparating_curve(s, (1, 0, 0), "a")
    g = LefschetzFibration(s, ANNULUS, (
        SignedCycle(a, 1), SignedCycle(separating_curve(s, {1}, (0, 1), "d"), -1)), (swap,))
    bundled = MCWord(s, (Letter(swap), Letter(TwistGen(a), -1)))
    calls = _spy(monkeypatch)
    hurwitz_move(f, 2, "R")
    hurwitz_move(f, 2, "L")
    global_conjugate(f, word)
    act_on_curve(word, b2)
    act_on_curve(rep, b2)
    evaluate(word).compose(rep)
    global_conjugate(g, bundled)
    evaluate(bundled)
    swap.inverse()
    boundary_permutation_gen(s, (1, 0))
    bundled.inverse() * bundled
    assert not calls
    BundleGen(s, swap.matrix, swap.perm)
    assert calls == {"preserves_pairing": 1}
    calls.clear()
    HomPermRep(s, swap.matrix, swap.perm)
    assert calls == {"preserves_pairing": 1}


# ---------------------------------------------------------------------------
# HomPermRep refuses what is no mapping class
# ---------------------------------------------------------------------------

T, A2 = SurfaceSpec(1, 1), SurfaceSpec(1, 2)


@pytest.mark.parametrize("surface, matrix, perm, message", [
    (T, ((2, 0), (0, 2)), (0,), "mapping class must preserve the pairing form"),
    (T, ((0, 0), (0, 0)), (0,), "mapping class must preserve the pairing form"),
    (T, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0,), "matrix must be 2x2 for F(1,1)"),
    (A2, ((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, 1), "matrix moves boundary class 1 off d_1"),
    (A2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0), "matrix moves boundary class 1 off d_2"),
    (A2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0), "(0, 0) is not a permutation of 2 points"),
], ids=["twice identity", "zero", "wrong shape", "d1 negated", "d1 kept on a swap",
        "not a permutation"])
def test_hom_perm_rep_refuses_what_is_no_mapping_class(surface, matrix, perm, message):
    with pytest.raises(InputError) as refused:
        HomPermRep(surface, matrix, perm)
    assert str(refused.value) == message
    curve = nonseparating_curve(surface, (1, 0) + (0,) * (surface.rank - 2))
    with pytest.raises(InputError):
        act_on_curve(HomPermRep(surface, matrix, perm), curve)


def test_hom_perm_rep_keeps_a_mapping_class():
    swap = boundary_permutation_gen(A2, (1, 0))
    rep = HomPermRep(A2, [list(row) for row in swap.matrix], [1, 0])
    assert rep == HomPermRep(A2, swap.matrix, swap.perm)
    d1 = separating_curve(A2, {1}, (0, 1), "d")
    assert act_on_curve(rep, d1).hom == (0, 0, -1)
