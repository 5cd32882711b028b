import importlib
import json
import sys

import pytest

from covercalc.covers import fox_order
from covercalc.knots import Knot, alexander_mul, bundled_table
from covercalc.obstruct import (
    FAIL,
    PASS,
    SKIPPED,
    DEFAULT_PRIMES,
    CheckResult,
    alexander_divides,
    fibered_genus_check,
    filter_predecessors,
    h1_order_divisibility,
    obstruct,
    skp_containment,
)
from covercalc.primes import PSI_13

TABLE = bundled_table()


def K(name):
    return TABLE.get(name)


# -------------------------------------------------------------- divisibility


def test_alexander_divides_fixed_values():
    assert alexander_divides(K("3_1"), K("granny"))
    assert not alexander_divides(K("4_1"), K("3_1"))
    for name in TABLE.names():
        assert alexander_divides(K("unknot"), K(name))
    assert alexander_divides(K("6_1"), K("3_1#6_1"))
    assert not alexander_divides(K("5_1"), K("granny"))


def test_alexander_divides_evaluation_necessary_condition():
    # integer-point divisibility is a necessary consequence of polynomial
    # divisibility: sanity-check every positive verdict against it
    for jn in TABLE.names():
        for kn in TABLE.names():
            if alexander_divides(K(jn), K(kn)):
                for x in (2, 3, -2):
                    jv = K(jn).tilde(x)
                    kv = K(kn).tilde(x)
                    if jv == 0:
                        assert kv == 0, (jn, kn, x)
                    else:
                        assert kv % jv == 0, (jn, kn, x)


# --------------------------------------------------------------- fib_genus


def test_fibered_genus_fixed_values():
    assert fibered_genus_check(K("3_1"), K("granny")).verdict == PASS
    assert fibered_genus_check(K("granny"), K("3_1")).verdict == FAIL
    assert fibered_genus_check(K("5_2"), K("granny")).verdict == SKIPPED


def test_fibered_genus_skips_when_genus_unknown():
    from covercalc.knots import AlexanderPoly, Knot

    mystery = Knot(name="mystery", alexander=AlexanderPoly((1, -1, 1)), fibered=True)
    assert fibered_genus_check(K("3_1"), mystery).verdict == SKIPPED


# ----------------------------------------------------------- skp containment


def test_skp_containment_fixed_values():
    assert skp_containment(K("3_1"), K("granny"), 2).verdict == PASS
    # 4_1 reduces to the same polynomial mod 2: the check alone is weak
    assert skp_containment(K("3_1"), K("4_1"), 2).verdict == PASS
    for name in TABLE.names():
        assert skp_containment(K("unknot"), K(name), 5).verdict == PASS


def test_skp_containment_can_fail():
    assert skp_containment(K("3_1"), K("unknot"), 2).verdict == FAIL


def test_skp_containment_rejects_primes_at_or_above_psi13():
    with pytest.raises(ValueError, match="proven only below"):
        skp_containment(K("3_1"), K("granny"), PSI_13)
    with pytest.raises(ValueError, match="proven only below"):
        obstruct(K("3_1"), K("granny"), primes_p=(2, PSI_13))


def test_skp_containment_never_fails_under_divisibility():
    for jn in TABLE.names():
        for kn in TABLE.names():
            if alexander_divides(K(jn), K(kn)):
                for p in (2, 3, 5):
                    assert skp_containment(K(jn), K(kn), p).verdict == PASS, (jn, kn, p)


# ------------------------------------------------------------ h1 divisibility


def test_h1_divisibility_fixed_values():
    c = h1_order_divisibility(K("3_1"), K("granny"), 2)
    assert c.verdict == PASS and "3 divides 9" in c.detail
    assert h1_order_divisibility(K("unknot"), K("6_2"), 7).verdict == PASS
    c = h1_order_divisibility(K("3_1"), K("3_1#6_1"), 2)
    assert c.verdict == PASS and "3 divides 27" in c.detail


def test_h1_divisibility_skips():
    assert h1_order_divisibility(K("4_1"), K("3_1"), 2).verdict == SKIPPED
    # n = 6 kills both trefoil-family orders
    assert h1_order_divisibility(K("3_1"), K("granny"), 6).verdict == SKIPPED


def test_h1_divisibility_never_fails_when_divides():
    # violation would be an arithmetic bug, so assert it hard across the table
    for jn in TABLE.names():
        for kn in TABLE.names():
            if not alexander_divides(K(jn), K(kn)):
                continue
            for n in range(1, 21):
                c = h1_order_divisibility(K(jn), K(kn), n)
                assert c.verdict != FAIL, (jn, kn, n, c.detail)
                both_finite = not (fox_order(K(jn), n).infinite or fox_order(K(kn), n).infinite)
                if both_finite:
                    assert c.verdict == PASS


def test_checks_after_alex_div_never_fail_on_bundled_knots_and_their_sums():
    # Delta~_K = Delta~_J q in Z[t] decides every later check: Res(t**n - 1, .)
    # is multiplicative, so |H1_n(J)| divides |H1_n(K)|; J mod p divides K mod
    # p, so every factor degree of J is one of K and S(J, p) is in S(K, p);
    # and hd(J) <= hd(K) <= g(K) for a fibered J.  So while alex_div passes,
    # no other check can fail, which is why no bundled pair reaches the FAIL
    # line of the h1_div verdict.
    base = [k for k in TABLE if k.name != "unknot"]
    sums = [
        Knot(
            name=f"{a.name}#{b.name}",
            alexander=alexander_mul(a.alexander, b.alexander),
            genus=a.genus + b.genus,
            fibered=a.fibered and b.fibered,
        )
        for i, a in enumerate(base)
        for b in base[i:]
    ]
    knots = [*TABLE, *sums]
    dividing = [(J, K_) for J in knots for K_ in knots if alexander_divides(J, K_)]
    assert len(knots) == 55 and len(dividing) > 4 * len(knots)
    for J, K_ in dividing:
        checks = [fibered_genus_check(J, K_)]
        checks += [skp_containment(J, K_, p) for p in (2, 3, 5, 7)]
        checks += [h1_order_divisibility(J, K_, n) for n in range(1, 41)]
        assert [c for c in checks if c.verdict == FAIL] == [], (J.name, K_.name)


# ------------------------------------------------------------------ obstruct


def test_obstruct_fixed_values():
    assert obstruct(K("3_1"), K("3_1#6_1")).passed
    report = obstruct(K("4_1"), K("3_1"))
    assert not report.passed
    assert report.failures() == ["alex_div"]


def test_obstruct_reflexive():
    for name in TABLE.names():
        assert obstruct(K(name), K(name)).passed, name


def test_obstruct_transitive_on_divisibility_and_genus():
    names = TABLE.names()
    for a in names:
        for b in names:
            for c in names:
                ab = obstruct(K(a), K(b))
                bc = obstruct(K(b), K(c))
                ok_ab = not any(x in ab.failures() for x in ("alex_div", "fib_genus"))
                ok_bc = not any(x in bc.failures() for x in ("alex_div", "fib_genus"))
                if ok_ab and ok_bc:
                    ac = obstruct(K(a), K(c))
                    assert "alex_div" not in ac.failures(), (a, b, c)
                    assert "fib_genus" not in ac.failures(), (a, b, c)


def test_obstruct_check_ids_are_stable():
    report = obstruct(K("3_1"), K("granny"), primes_p=(2, 3), max_n=7)
    ids = [c.check_id for c in report.checks]
    assert ids[:4] == ["alex_div", "fib_genus", "skp_subset:2", "skp_subset:3"]
    assert all(i.startswith("h1_div:") for i in ids[4:])
    # S(granny,2) = {3} and S(granny,3) = {2}: admissible n <= 7 are 1, 5, 7
    assert ids[4:] == ["h1_div:1", "h1_div:5", "h1_div:7"]


def test_obstruct_validation():
    with pytest.raises(ValueError):
        obstruct(K("3_1"), K("granny"), max_n=0)
    with pytest.raises(ValueError):
        obstruct(K("3_1"), K("granny"), primes_p=(4,))


def test_report_json_shape():
    report = obstruct(K("4_1"), K("3_1"))
    doc = report.to_json_dict()
    assert doc["candidate"] == ["4_1", "3_1"]
    assert doc["overall"] == "fail"
    assert {"id", "verdict", "detail"} == set(doc["checks"][0])
    json.dumps(doc)  # serializable


def test_check_result_validation():
    with pytest.raises(ValueError):
        CheckResult("x", "maybe", "")


# ------------------------------------------------------------------- filter


def test_filter_fixed_values():
    got = filter_predecessors(K("granny"), TABLE)
    assert got == ["unknot", "3_1", "granny"]
    got = filter_predecessors(K("3_1#6_1"), TABLE)
    assert set(got) >= {"unknot", "3_1", "6_1", "3_1#6_1"}
    assert "4_1" not in got and "5_1" not in got
    assert filter_predecessors(K("unknot"), TABLE) == ["unknot"]


def test_filter_includes_off_table_target():
    from covercalc.knots import AlexanderPoly, Knot, KnotTable

    sub = KnotTable([K("unknot"), K("4_1")])
    target = Knot(name="granny2", alexander=AlexanderPoly((1, -2, 3, -2, 1)), fibered=True, genus=2)
    got = filter_predecessors(target, sub)
    assert got == ["unknot", "granny2"]


def test_filter_factors_each_polynomial_once_per_prime(monkeypatch):
    import covercalc.covers as covers

    calls = []
    factor = covers.irreducible_factor_degrees

    def counting(fbar):
        calls.append(fbar)
        return factor(fbar)

    monkeypatch.setattr(covers, "irreducible_factor_degrees", counting)
    covers.skp_from_tilde.cache_clear()
    for target in TABLE:
        filter_predecessors(target, TABLE)
    distinct = {(k.tilde, p) for k in TABLE for p in DEFAULT_PRIMES}
    assert len(calls) <= len(distinct) <= 30


def _filter_all_targets():
    for target in TABLE:
        filter_predecessors(target, TABLE)


def test_filter_divides_each_pair_of_polynomials_once(monkeypatch):
    # the package re-exports the function obstruct under the submodule's name
    ob = importlib.import_module("covercalc.obstruct")
    calls = []
    divide = ob.exact_divide

    def counting(num, den):
        calls.append((num, den))
        return divide(num, den)

    monkeypatch.setattr(ob, "exact_divide", counting)
    ob._divides.cache_clear()
    _filter_all_targets()
    assert calls
    assert len(calls) == len(set(calls))
    assert set(calls) <= {(k.tilde, j.tilde) for k in TABLE for j in TABLE}


def test_filter_computes_each_cover_order_once(monkeypatch):
    import covercalc.covers as covers

    calls = []
    order = covers.order_from_tilde

    def counting(f, n):
        calls.append((f, n))
        return order(f, n)

    monkeypatch.setattr(covers, "order_from_tilde", counting)
    covers._orders.clear()
    _filter_all_targets()
    assert calls
    assert len(calls) == len(set(calls))


def test_filter_factors_each_unit_group_order_once(monkeypatch):
    import covercalc.covers as covers

    calls = []
    factor = covers.prime_factors

    def counting(m):
        calls.append(m)
        return factor(m)

    monkeypatch.setattr(covers, "prime_factors", counting)
    covers._unit_group_primes.cache_clear()
    covers._skp_of_reduction.cache_clear()
    covers.skp_from_tilde.cache_clear()
    _filter_all_targets()
    assert calls
    # each call factors p**d - 1 for one (p, d); distinct (p, d) give distinct values
    assert len(calls) == len(set(calls))
    assert all(any(_is_power_of(m + 1, p) for p in DEFAULT_PRIMES) for m in calls)


def _is_power_of(x, p):
    while x % p == 0:
        x //= p
    return x == 1


def test_obstruct_asks_each_prime_once():
    J, K_ = K("3_1"), K("granny")
    twice = obstruct(J, K_, primes_p=(3, 2, 3, 2))
    once = obstruct(J, K_, primes_p=(3, 2))
    assert twice == once
    ids = [c.check_id for c in twice.checks]
    assert ids.count("skp_subset:3") == 1 and ids.count("skp_subset:2") == 1
    assert ids.index("skp_subset:3") < ids.index("skp_subset:2")


def _clear_every_cache():
    # every memo cache of the package, found by its cache_clear, so that a
    # cache added later is cleared too, and the cover-order dict
    for name, module in list(sys.modules.items()):
        if name.startswith("covercalc."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    importlib.import_module("covercalc.covers")._orders.clear()


@pytest.mark.parametrize("primes_p,max_n", [(DEFAULT_PRIMES, 30), ((7, 2), 45)])
def test_memoized_verdicts_match_a_cold_run(primes_p, max_n):
    ob = importlib.import_module("covercalc.obstruct")
    for cache in (ob._containment, ob._h1_skipped, ob._h1_verdict, ob._admissible_indices):
        assert cache.cache_info().maxsize == ob._CACHE_SIZE
    # warm every cache over all pairs first, so that a verdict cached for one
    # pair is offered to every other pair
    for J in TABLE:
        for K_ in TABLE:
            obstruct(J, K_, primes_p=primes_p, max_n=max_n)
    warm = {
        (J.name, K_.name): obstruct(J, K_, primes_p=primes_p, max_n=max_n).to_json_dict()
        for J in TABLE
        for K_ in TABLE
    }
    for (jn, kn), got in warm.items():
        _clear_every_cache()
        assert ob._containment.cache_info().currsize == 0
        fresh = bundled_table()  # Knot.tilde is stored on the knot
        cold = obstruct(fresh.get(jn), fresh.get(kn), primes_p=primes_p, max_n=max_n)
        assert cold.to_json_dict() == got, (jn, kn)


def test_filter_formats_each_containment_verdict_once(monkeypatch):
    from covercalc.covers import skp_set

    ob = importlib.import_module("covercalc.obstruct")
    calls = []
    fmt = ob._fmt_set

    def counting(s):
        calls.append(s)
        return fmt(s)

    monkeypatch.setattr(ob, "_fmt_set", counting)
    ob._containment.cache_clear()
    _filter_all_targets()
    distinct = {(skp_set(J, p), skp_set(K_, p), p) for J in TABLE for K_ in TABLE for p in DEFAULT_PRIMES}
    assert calls
    # a pass formats S(J, p) and S(K, p), a fail only S(K, p)
    assert len(calls) <= 2 * len(distinct) < 2 * len(TABLE) ** 2 * len(DEFAULT_PRIMES)
