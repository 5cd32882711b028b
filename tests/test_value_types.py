"""The contract of the package's 13 immutable value types.

The expected reprs and hashes were captured from the same objects when the
types were frozen dataclasses; the plain classes that replaced them must
keep construction, validation messages, equality, hash, repr, immutability,
copying and pickling as they were.  Hash literals hold on 64-bit CPython,
for objects whose fields hash the same in every process (no str, no None).
"""

import copy
import pickle

import pytest

import covercalc.knots as knots_mod
from covercalc.bounds import DilatationEstimate, FixSample, SatelliteProfile
from covercalc.covers import CoverOrder, HfkDimBound
from covercalc.knots import AlexanderPoly, Knot, KnotTableError
from covercalc.obstruct import CheckResult, ObstructionReport
from covercalc.polynomials import DegreeMultiset, IntPoly, ModPoly
from covercalc.primes import PSI_13, PrimeSet

TREFOIL = AlexanderPoly((1, -1, 1))
TREFOIL_SEIFERT = ((-1, 1), (0, -1))
PASS_CHECK = CheckResult("alex_div", "pass", "exact division in Z[t]")

# (positional construction, keyword construction, field names, repr, hash
# or None where a field hashes differently per process)
CASES = [
    (
        PrimeSet((2, 3, 7)),
        PrimeSet(primes=(2, 3, 7)),
        ("primes",),
        "PrimeSet(primes=(2, 3, 7))",
        530127240870097604,
    ),
    (
        IntPoly([1, -3, 1, 0, 0]),
        IntPoly(coeffs=(1, -3, 1)),
        ("coeffs",),
        "IntPoly(coeffs=(1, -3, 1))",
        -8678120137280433431,
    ),
    (IntPoly(), IntPoly(coeffs=()), ("coeffs",), "IntPoly(coeffs=())", -5486347211504344842),
    (
        ModPoly(3, (4, 0, 2, 3)),
        ModPoly(p=3, coeffs=(1, 0, 2)),
        ("p", "coeffs"),
        "ModPoly(p=3, coeffs=(1, 0, 2))",
        -5279751692548154786,
    ),
    (
        DegreeMultiset(((1, 2), (3, 1))),
        DegreeMultiset(entries=((1, 2), (3, 1))),
        ("entries",),
        "DegreeMultiset(entries=((1, 2), (3, 1)))",
        -4338104311595575740,
    ),
    (
        AlexanderPoly((1, -1, 1)),
        AlexanderPoly(coeffs=(1, -1, 1)),
        ("coeffs",),
        "AlexanderPoly(coeffs=(1, -1, 1))",
        -1828094588150393014,
    ),
    (
        Knot("3_1", TREFOIL, 1, 3, True, TREFOIL_SEIFERT),
        Knot(
            name="3_1",
            alexander=TREFOIL,
            genus=1,
            arc_index=3,
            fibered=True,
            seifert=TREFOIL_SEIFERT,
        ),
        ("name", "alexander", "genus", "arc_index", "fibered", "seifert"),
        "Knot(name='3_1', alexander=AlexanderPoly(coeffs=(1, -1, 1)), genus=1, arc_index=3, "
        "fibered=True, seifert=((-1, 1), (0, -1)))",
        None,
    ),
    (
        Knot("u", AlexanderPoly((1,))),
        Knot(name="u", alexander=AlexanderPoly((1,))),
        ("name", "alexander", "genus", "arc_index", "fibered", "seifert"),
        "Knot(name='u', alexander=AlexanderPoly(coeffs=(1,)), genus=None, arc_index=None, "
        "fibered=False, seifert=None)",
        None,
    ),
    (
        CoverOrder(3, 2),
        CoverOrder(n=3, order=2),
        ("n", "order"),
        "CoverOrder(n=3, order=2)",
        3863035679738500442,
    ),
    (
        HfkDimBound(3, 6),
        HfkDimBound(tight=3, loose=6),
        ("tight", "loose"),
        "HfkDimBound(tight=3, loose=6)",
        -4352217537622120393,
    ),
    (
        CheckResult("alex_div", "pass", "exact division in Z[t]"),
        CheckResult(check_id="alex_div", verdict="pass", detail="exact division in Z[t]"),
        ("check_id", "verdict", "detail"),
        "CheckResult(check_id='alex_div', verdict='pass', detail='exact division in Z[t]')",
        None,
    ),
    (
        ObstructionReport(("3_1", "granny"), (PASS_CHECK,)),
        ObstructionReport(candidate=("3_1", "granny"), checks=(PASS_CHECK,)),
        ("candidate", "checks"),
        "ObstructionReport(candidate=('3_1', 'granny'), checks=(CheckResult(check_id="
        "'alex_div', verdict='pass', detail='exact division in Z[t]'),))",
        None,
    ),
    (
        FixSample(2, 9),
        FixSample(n=2, count=9),
        ("n", "count"),
        "FixSample(n=2, count=9)",
        8854719697999914481,
    ),
    (
        DilatationEstimate(3.0, (FixSample(2, 9),)),
        DilatationEstimate(upper=3.0, witnesses=(FixSample(2, 9),), degenerate=False),
        ("upper", "witnesses", "degenerate"),
        "DilatationEstimate(upper=3.0, witnesses=(FixSample(n=2, count=9),), degenerate=False)",
        -8620749319608426165,
    ),
    (
        SatelliteProfile(3, -1, ((2, 1),)),
        SatelliteProfile(total_genus=3, outer_chi=-1, orbits=((2, 1),)),
        ("total_genus", "outer_chi", "orbits"),
        "SatelliteProfile(total_genus=3, outer_chi=-1, orbits=((2, 1),))",
        -1464843936969233265,
    ),
    (
        SatelliteProfile(1, -1),
        SatelliteProfile(total_genus=1, outer_chi=-1, orbits=()),
        ("total_genus", "outer_chi", "orbits"),
        "SatelliteProfile(total_genus=1, outer_chi=-1, orbits=())",
        8091564429781088471,
    ),
]

IDS = [f"{i}-{type(c[0]).__name__}" for i, c in enumerate(CASES)]


def test_every_value_type_is_covered():
    assert {type(c[0]).__name__ for c in CASES} == {
        "PrimeSet", "IntPoly", "ModPoly", "DegreeMultiset", "AlexanderPoly", "Knot",
        "CoverOrder", "HfkDimBound", "CheckResult", "ObstructionReport", "FixSample",
        "DilatationEstimate", "SatelliteProfile",
    }


@pytest.mark.parametrize("pos, kw, fields, text, h", CASES, ids=IDS)
def test_construction_repr_and_hash(pos, kw, fields, text, h):
    assert pos == kw and not pos != kw
    assert repr(pos) == repr(kw) == text
    values = tuple(getattr(pos, f) for f in fields)
    assert hash(pos) == hash(kw) == hash(values)
    if h is not None:
        assert hash(pos) == h
    # usable as a set member and a dict key, as the memo caches use them
    assert {pos: 1}[kw] == 1 and len({pos, kw}) == 1


@pytest.mark.parametrize("pos, kw, fields, text, h", CASES, ids=IDS)
def test_immutable(pos, kw, fields, text, h):
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(pos, name, 1)
        with pytest.raises(AttributeError):
            delattr(pos, name)
    assert repr(pos) == text


@pytest.mark.parametrize("pos, kw, fields, text, h", CASES, ids=IDS)
def test_deepcopy_and_pickle_round_trip(pos, kw, fields, text, h):
    for twin in (copy.deepcopy(pos), pickle.loads(pickle.dumps(pos)), copy.copy(pos)):
        assert type(twin) is type(pos)
        assert twin == pos and hash(twin) == hash(pos) and repr(twin) == text


def test_equality_only_within_one_class():
    # field names and values shared across classes never make them equal
    assert IntPoly((1, -1, 1)) != AlexanderPoly((1, -1, 1))
    assert CoverOrder(3, 2) != FixSample(3, 2)
    assert HfkDimBound(3, 2) != CoverOrder(3, 2)
    assert IntPoly((1, 2)) != (1, 2) and PrimeSet((2,)) != (2,)
    assert IntPoly((1,)).__eq__(ModPoly(2, (1,))) is NotImplemented
    assert PrimeSet((2,)).__eq__((2,)) is NotImplemented
    assert CoverOrder(1, 1).__eq__(None) is NotImplemented
    assert Knot("u", AlexanderPoly((1,))).__eq__("u") is NotImplemented
    # unequal fields
    assert PrimeSet((2, 3)) != PrimeSet((2, 5))
    assert ModPoly(2, (1, 1)) != ModPoly(3, (1, 1))
    assert CoverOrder(3, 2) != CoverOrder(3, 4)
    assert Knot("a", TREFOIL) != Knot("b", TREFOIL)


def test_int_poly_hash_is_kept_but_not_a_field():
    f = IntPoly((1, 2, 3))
    h = hash(f)
    assert vars(f)["_hash"] == h
    assert f == IntPoly((1, 2, 3)) and repr(f) == "IntPoly(coeffs=(1, 2, 3))"
    assert pickle.loads(pickle.dumps(f)) == f


def test_prime_set_union_skips_validation_but_stays_a_value():
    u = PrimeSet((2, 7)).union(PrimeSet((3, 7)))
    assert u == PrimeSet((2, 3, 7)) and hash(u) == hash(PrimeSet((2, 3, 7)))
    assert repr(u) == "PrimeSet(primes=(2, 3, 7))"


def test_knot_tilde_is_computed_once(monkeypatch):
    calls = []
    real = knots_mod.tilde

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(knots_mod, "tilde", counting)
    k = Knot("3_1", TREFOIL, 1, 3, True)
    assert k.tilde is k.tilde
    assert k.tilde == IntPoly((1, -1, 1))
    assert len(calls) == 1 and vars(k)["tilde"] is k.tilde
    # the cached value is no field: equality, hash and repr ignore it
    fresh = Knot("3_1", TREFOIL, 1, 3, True)
    assert fresh == k and hash(fresh) == hash(k) and repr(fresh) == repr(k)
    assert copy.deepcopy(k).tilde == k.tilde and len(calls) == 1


VALIDATION = [
    (lambda: PrimeSet((2, 4)), ValueError, "4 is not prime"),
    (lambda: PrimeSet((3, 2)), ValueError, "primes must be strictly increasing"),
    (lambda: ModPoly(4, (1,)), ValueError, "modulus 4 is not prime"),
    (
        lambda: ModPoly(PSI_13, (1,)),
        ValueError,
        f"modulus {PSI_13}: primality is proven only below {PSI_13}",
    ),
    (lambda: DegreeMultiset(((0, 1),)), ValueError, "degrees and counts must be positive"),
    (lambda: DegreeMultiset(((2, 1), (1, 1))), ValueError, "degrees must be strictly increasing"),
    (
        lambda: AlexanderPoly((1, 0)),
        KnotTableError,
        "coefficient list must have odd length, got 2",
    ),
    (lambda: AlexanderPoly(()), KnotTableError, "coefficient list must have odd length, got 0"),
    (
        lambda: AlexanderPoly((1, -1, 2)),
        KnotTableError,
        "coefficients are not palindromic: [1, -1, 2]",
    ),
    (
        lambda: AlexanderPoly((0, 1, 0)),
        KnotTableError,
        "leading coefficient is zero; strip the padding",
    ),
    (lambda: AlexanderPoly((1, 1, 1)), KnotTableError, "value at t=1 is 3, must be 1"),
    (lambda: Knot("", TREFOIL), KnotTableError, "knot name must be nonempty"),
    (lambda: Knot("k", TREFOIL, genus=-1), KnotTableError, "k: genus must be >= 0"),
    (lambda: Knot("k", TREFOIL, arc_index=1), KnotTableError, "k: arc index must be >= 2"),
    (
        lambda: Knot("k", AlexanderPoly((1, -3, 5, -3, 1)), genus=1),
        KnotTableError,
        "k: Alexander half-degree 2 exceeds genus 1",
    ),
    (
        lambda: Knot("k", TREFOIL, genus=2, fibered=True),
        KnotTableError,
        "k: fibered knot needs genus == Alexander half-degree (2 != 1)",
    ),
    (
        lambda: Knot("k", AlexanderPoly((-1, 3, -1)), seifert=TREFOIL_SEIFERT),
        KnotTableError,
        "k: Seifert matrix gives [1, -1, 1], table says [-1, 3, -1]",
    ),
    (lambda: CoverOrder(0, 1), ValueError, "cover index must be >= 1"),
    (lambda: CoverOrder(1, -1), ValueError, "order must be >= 0"),
    (lambda: CheckResult("x", "maybe", ""), ValueError, "bad verdict 'maybe'"),
    (lambda: FixSample(0, 5), ValueError, "iterate index must be >= 1"),
    (lambda: FixSample(2, -1), ValueError, "count must be >= 0"),
    (lambda: FixSample(True, 5), ValueError, "iterate index must be an integer, got True"),
    (lambda: FixSample(2.0, 5), ValueError, "iterate index must be an integer, got 2.0"),
    (lambda: FixSample(2, True), ValueError, "count must be an integer, got True"),
    (lambda: FixSample(2, 1.5), ValueError, "count must be an integer, got 1.5"),
    (lambda: FixSample(2, "9"), ValueError, "count must be an integer, got '9'"),
    (lambda: SatelliteProfile(0, -1), ValueError, "total genus must be >= 1"),
    (lambda: SatelliteProfile(2, 0), ValueError, "outer Euler characteristic must be <= -1"),
    (
        lambda: SatelliteProfile(2, -1, ((0, 1),)),
        ValueError,
        "orbit multiplicities and genera must be >= 1",
    ),
]


@pytest.mark.parametrize("build, exc, message", VALIDATION, ids=[v[2] for v in VALIDATION])
def test_validation_messages(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert str(info.value) == message
