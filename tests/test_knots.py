import json
import random
import time

import pytest

from covercalc.knots import (
    AlexanderPoly,
    Knot,
    KnotTableError,
    alexander_from_seifert,
    alexander_mul,
    bundled_table,
    load_table,
    load_table_file,
    tilde,
)
from covercalc.polynomials import IntPoly

from oracles import det_fraction

TREFOIL = AlexanderPoly((1, -1, 1))
FIG8 = AlexanderPoly((-1, 3, -1))
UNKNOT = AlexanderPoly((1,))


# -------------------------------------------------------- seifert matrices


def test_seifert_fixed_values():
    assert alexander_from_seifert([[-1, 1], [0, -1]]) == TREFOIL
    assert alexander_from_seifert([[1, 1], [0, -1]]) == FIG8
    assert alexander_from_seifert([]) == UNKNOT


def test_seifert_rejects_bad_matrices():
    with pytest.raises(KnotTableError, match="square"):
        alexander_from_seifert([[1, 2]])
    with pytest.raises(KnotTableError, match="even size"):
        alexander_from_seifert([[3]])
    # det(V - V^T) = 4 for this symmetric-ish matrix
    with pytest.raises(KnotTableError, match="not a Seifert matrix"):
        alexander_from_seifert([[0, 2], [0, 0]])
    with pytest.raises(KnotTableError, match="not a Seifert matrix"):
        alexander_from_seifert([[1, 1], [1, 1]])


@pytest.mark.parametrize(
    "seifert,message",
    [
        ([[1, 2]], "Seifert matrix must be square"),
        ([[3]], "Seifert matrix must have even size 2g"),
        ([[1, 1], [1, 1]], "det(V - tV^T) vanishes; not a Seifert matrix"),
        ([[0, 2], [0, 0]], "det(V - V^T) = 4, must be +-1; not a Seifert matrix"),
    ],
    ids=["not-square", "odd-size", "det-vanishes", "det-at-1-not-unit"],
)
def test_bad_seifert_matrix_errors_name_the_knot_once(seifert, message):
    with pytest.raises(KnotTableError) as err:
        load_table([{"name": "k9", "alexander": [1], "fibered": False, "seifert": seifert}])
    assert str(err.value) == f"k9: {message}"
    with pytest.raises(KnotTableError) as err:
        Knot(name="k9", alexander=UNKNOT, seifert=tuple(map(tuple, seifert)))
    assert str(err.value) == f"k9: {message}"


def test_seifert_determinant_matches_fraction_oracle():
    # det(V - xV^T) at integer points must agree with sign * x^k * tilde(x)
    rng = random.Random(77)
    for knot in bundled_table():
        if knot.seifert is None or not knot.seifert:
            continue
        v = [list(row) for row in knot.seifert]
        n = len(v)
        td = tilde(knot.alexander)
        k = (n - 2 * knot.alexander.half_degree) // 2
        sign = det_fraction([[v[i][j] - v[j][i] for j in range(n)] for i in range(n)])
        assert abs(sign) == 1
        for x in (2, -3, 5):
            m = [[v[i][j] - x * v[j][i] for j in range(n)] for i in range(n)]
            assert det_fraction(m) == sign * x**k * td(x)


def test_seifert_invariant_under_unimodular_congruence():
    rng = random.Random(99)

    def random_unimodular(n):
        # product of elementary row operations: determinant stays +-1
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for col in range(n):
                m[i][col] += c * m[j][col]
        if rng.random() < 0.5:
            m[0], m[1] = m[1], m[0]
        return m

    def congruate(v, p):
        n = len(v)
        pv = [[sum(p[i][a] * v[a][b] for a in range(n)) for b in range(n)] for i in range(n)]
        return [[sum(pv[i][b] * p[j][b] for b in range(n)) for j in range(n)] for i in range(n)]

    for v in ([[-1, 1], [0, -1]], [[1, 1], [0, -1]],
              [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]):
        expected = alexander_from_seifert(v)
        for _ in range(20):
            p = random_unimodular(len(v))
            assert alexander_from_seifert(congruate(v, p)) == expected


def test_dense_genus_ten_seifert_matrix_loads_fast():
    # P^T V P with V block diagonal in trefoil and figure-eight blocks and P
    # unimodular upper triangular: dense, and congruent to V
    rng = random.Random(10)
    blocks = [rng.choice(((TREFOIL, [[-1, 1], [0, -1]]), (FIG8, [[1, 1], [0, -1]])))
              for _ in range(10)]
    n = 2 * len(blocks)
    v = [[0] * n for _ in range(n)]
    for b, (_, m) in enumerate(blocks):
        for i in range(2):
            for j in range(2):
                v[2 * b + i][2 * b + j] = m[i][j]
    p = [[1 if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(n)]
         for i in range(n)]
    vp = [[sum(v[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    s = [[sum(p[k][i] * vp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert sum(x != 0 for row in s for x in row) > n * n // 2
    expected = UNKNOT
    for alex, _ in blocks:
        expected = alexander_mul(expected, alex)
    doc = [{"name": "g10", "alexander": list(expected.coeffs), "genus": 10,
            "fibered": True, "seifert": s}]
    start = time.perf_counter()
    table = load_table(json.dumps(doc))
    elapsed = time.perf_counter() - start
    assert table.get("g10").alexander == expected
    assert elapsed < 1.0, elapsed


# ------------------------------------------------------------- normalization


def test_alexander_poly_validation():
    with pytest.raises(KnotTableError, match="odd length"):
        AlexanderPoly((1, 1))
    with pytest.raises(KnotTableError, match="palindromic"):
        AlexanderPoly((1, -1, 2))
    with pytest.raises(KnotTableError, match="value at t=1"):
        AlexanderPoly((1, -3, 1))
    with pytest.raises(KnotTableError, match="leading"):
        AlexanderPoly((0, 1, 0))


def test_normalized_fixes_sign_and_padding():
    assert AlexanderPoly.normalized([-1, 1, -1]) == TREFOIL
    assert AlexanderPoly.normalized([0, 1, -1, 1, 0]) == TREFOIL
    assert AlexanderPoly.normalized([-1]) == UNKNOT
    with pytest.raises(KnotTableError):
        AlexanderPoly.normalized([2, -3, 2, -3, 2])  # value 0 at t=1


def test_alexander_poly_str():
    # exponents -d..d, highest first; t^-1 is written like every other power
    shown = {
        (1,): "1",
        (1, -1, 1): "t - 1 + t^-1",
        (3, -5, 3): "3*t - 5 + 3*t^-1",
        (2, 0, -3, 0, 2): "2*t^2 - 3 + 2*t^-2",
        (-1, 1, 1, 1, -1): "-t^2 + t + 1 + t^-1 - t^-2",
    }
    for coeffs, text in shown.items():
        assert str(AlexanderPoly(coeffs)) == text, coeffs
    assert [str(k.alexander) for k in bundled_table()] == [
        "1",
        "t - 1 + t^-1",
        "-t + 3 - t^-1",
        "t^2 - t + 1 - t^-1 + t^-2",
        "2*t - 3 + 2*t^-1",
        "-2*t + 5 - 2*t^-1",
        "-t^2 + 3*t - 3 + 3*t^-1 - t^-2",
        "t^2 - 3*t + 5 - 3*t^-1 + t^-2",
        "t^2 - 2*t + 3 - 2*t^-1 + t^-2",
        "-2*t^2 + 7*t - 9 + 7*t^-1 - 2*t^-2",
    ]


def test_tilde():
    assert tilde(TREFOIL) == IntPoly([1, -1, 1])
    assert tilde(UNKNOT) == IntPoly([1])
    assert tilde(FIG8) == IntPoly([-1, 3, -1])


def test_alexander_mul():
    granny = alexander_mul(TREFOIL, TREFOIL)
    assert granny.coeffs == (1, -2, 3, -2, 1)
    assert alexander_mul(TREFOIL, UNKNOT) == TREFOIL
    mixed = alexander_mul(TREFOIL, FIG8)
    assert mixed.half_degree == 2
    assert tilde(mixed) == tilde(TREFOIL) * tilde(FIG8)


def test_mul_random_tilde_homomorphism():
    rng = random.Random(4)

    def rand_alex(d):
        while True:
            tail = [rng.randint(-6, 6) for _ in range(d)]
            if d and tail[-1] == 0:
                continue
            mid = 1 - 2 * sum(tail)
            return AlexanderPoly(tuple(reversed(tail)) + (mid,) + tuple(tail))

    for _ in range(60):
        a, b = rand_alex(rng.randint(0, 4)), rand_alex(rng.randint(0, 4))
        assert tilde(alexander_mul(a, b)) == tilde(a) * tilde(b)


# -------------------------------------------------------------- table load


def test_load_table_accepts_valid_entries():
    doc = [
        {"name": "3_1", "alexander": [1, -1, 1], "genus": 1, "arc_index": 5, "fibered": True},
        {"name": "unknot", "alexander": [1], "genus": 0, "fibered": True},
    ]
    table = load_table(json.dumps(doc))
    assert table.names() == ["3_1", "unknot"]
    assert table.get("3_1").arc_index == 5


@pytest.mark.parametrize(
    "entry,message",
    [
        ({"name": "x", "alexander": [1, 1], "fibered": False}, "odd length"),
        ({"name": "x", "alexander": [1, 0, 1], "fibered": False}, "value at t=1"),
        ({"name": "x", "alexander": [1, -1, 2], "fibered": False}, "palindromic"),
        ({"name": "x", "alexander": [1, -1, 1], "genus": 0, "fibered": False}, "exceeds genus"),
        ({"name": "x", "alexander": [1, -1, 1], "genus": 2, "fibered": True}, "fibered"),
        ({"name": "x", "alexander": [1, -1, 1], "fibered": False, "bogus": 1}, "unknown fields"),
        ({"name": "x", "alexander": [1, -1, 1]}, "missing field"),
        ({"name": "x", "alexander": [1, -1, 1], "fibered": False,
          "seifert": [[1, 1], [0, -1]]}, "Seifert matrix gives"),
        # JSON booleans are not integers, even though Python's bool is an int
        ({"name": "x", "alexander": [True], "fibered": False}, "alexander must be an integer"),
        ({"name": "x", "alexander": [1, -1, 1], "genus": True, "fibered": False},
         "genus must be an integer"),
        ({"name": "x", "alexander": [1, -1, 1], "arc_index": True, "fibered": False},
         "arc_index must be an integer"),
        ({"name": "x", "alexander": [1, -1, 1], "fibered": False,
          "seifert": [[-1, True], [False, -1]]}, "seifert must be an array of integer"),
        ([{"name": "x"}], "table entry must be an object, got list"),
        ({"name": 5, "alexander": [1, -1, 1], "fibered": False}, "name must be a string"),
        ({"name": "x", "alexander": [1, -1, 1], "fibered": 0}, "fibered must be a boolean"),
    ],
)
def test_load_table_rejects_bad_entries(entry, message):
    with pytest.raises(KnotTableError, match=message):
        load_table([entry])


GOOD = {"name": "3_1", "alexander": [1, -1, 1], "fibered": True}


@pytest.mark.parametrize(
    "document,message",
    [
        ([{"name": "x", "alexander": [1, 1], "fibered": False}],
         "x: coefficient list must have odd length, got 2"),
        ([{"name": "x", "alexander": [1, 0, 1], "fibered": False}], "x: value at t=1 is 2, must be 1"),
        ([{"name": "x", "alexander": [1, -1, 2], "fibered": False}],
         "x: coefficients are not palindromic: [1, -1, 2]"),
        ([{"name": "x", "alexander": [1, -1, 1], "genus": 0, "fibered": False}],
         "x: Alexander half-degree 1 exceeds genus 0"),
        ([{"name": "x", "alexander": [1, -1, 1], "genus": 2, "fibered": True}],
         "x: fibered knot needs genus == Alexander half-degree (2 != 1)"),
        ([{"name": "x", "alexander": [1, -1, 1], "fibered": False, "bogus": 1}],
         "x: unknown fields ['bogus']"),
        ([{"name": "x", "alexander": [1, -1, 1]}], "x: missing field 'fibered'"),
        ([{"name": "x", "alexander": [1, -1, 1], "fibered": False, "seifert": [[1, 1], [0, -1]]}],
         "x: Seifert matrix gives [-1, 3, -1], table says [1, -1, 1]"),
        ([{"name": "x", "alexander": [True], "fibered": False}], "x: alexander must be an integer array"),
        ([{"name": "x", "alexander": [1, -1, 1], "genus": True, "fibered": False}],
         "x: genus must be an integer"),
        ([{"name": "x", "alexander": [1, -1, 1], "arc_index": True, "fibered": False}],
         "x: arc_index must be an integer"),
        ([{"name": "x", "alexander": [1, -1, 1], "fibered": False, "seifert": [[-1, True], [False, -1]]}],
         "x: seifert must be an array of integer arrays"),
        ([[{"name": "x"}]], "entry 1: table entry must be an object, got list"),
        ([{"name": 5, "alexander": [1, -1, 1], "fibered": False}], "entry 1: name must be a string"),
        ([{"name": "x", "alexander": [1, -1, 1], "fibered": 0}], "x: fibered must be a boolean"),
        # records without a usable name are counted from 1
        ([{"alexander": [1, -1, 1], "fibered": False}], "entry 1: missing field 'name'"),
        ([{"name": "", "alexander": [1, -1, 1], "fibered": False}], "entry 1: knot name must be nonempty"),
        ([GOOD, {"name": None, "alexander": [1], "fibered": False}], "entry 2: name must be a string"),
        ([GOOD, {"name": "k", "alexander": [1], "fibered": False, "signature": 0}],
         "k: unknown fields ['signature']"),
        ([{"name": 1, "alexander": [1], "fibered": False, "bogus": 1}], "entry 1: unknown fields ['bogus']"),
    ],
)
def test_load_table_errors_begin_with_the_record_label(document, message):
    with pytest.raises(KnotTableError) as err:
        load_table(document)
    assert str(err.value) == message


def test_load_table_rejects_duplicates_and_junk():
    rec = {"name": "a", "alexander": [1], "fibered": False}
    with pytest.raises(KnotTableError, match="duplicate"):
        load_table([rec, rec])
    with pytest.raises(KnotTableError, match="JSON"):
        load_table("{nope")
    with pytest.raises(KnotTableError) as err:
        load_table(b"[\xff]")
    assert str(err.value) == (
        "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"
    )
    with pytest.raises(KnotTableError, match="array"):
        load_table({"name": "a"})


def test_knot_validation_direct():
    with pytest.raises(KnotTableError, match="arc index"):
        Knot(name="x", alexander=TREFOIL, arc_index=1)
    with pytest.raises(KnotTableError, match="genus"):
        Knot(name="x", alexander=TREFOIL, genus=-1)


# ------------------------------------------------------------ bundled table


def test_bundled_table_contents():
    table = bundled_table()
    assert table.names() == [
        "unknot", "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "granny", "3_1#6_1",
    ]
    granny = table.get("granny")
    assert granny.alexander == alexander_mul(TREFOIL, TREFOIL)
    comp = table.get("3_1#6_1")
    assert comp.alexander == alexander_mul(TREFOIL, table.get("6_1").alexander)


def test_bundled_table_self_consistent():
    # every Seifert matrix reproduces its stored polynomial, every value at 1 is 1
    for knot in bundled_table():
        assert knot.seifert is not None
        assert alexander_from_seifert([list(r) for r in knot.seifert]) == knot.alexander
        assert tilde(knot.alexander)(1) == 1
        if knot.fibered:
            assert knot.genus == knot.alexander.half_degree


def test_load_table_file_names_the_file_as_pathlib_spells_it(tmp_path):
    # without pathlib, the file is still opened under pathlib's spelling of
    # its name: the error text keeps it, and a trailing slash is dropped
    doc = tmp_path / "t.json"
    doc.write_text(json.dumps([{"name": "3_1", "alexander": [1, -1, 1], "genus": 1, "fibered": True}]))
    assert [k.name for k in load_table_file(f"{doc}/")] == ["3_1"]
    assert [k.name for k in load_table_file(doc)] == ["3_1"]
    for spelled, opened in ((f"{tmp_path}/.//no.json", f"{tmp_path}/no.json"), ("", ".")):
        with pytest.raises(KnotTableError) as err:
            load_table_file(spelled)
        assert str(err.value).startswith(f"cannot read table {spelled}: [Errno ")
        assert str(err.value).endswith(f": {opened!r}")


def test_load_table_file_that_is_not_utf8_names_the_file(tmp_path):
    doc = tmp_path / "t.json"
    doc.write_bytes(b"\xff\xfe")
    with pytest.raises(KnotTableError) as err:
        load_table_file(doc)
    assert str(err.value) == (
        f"cannot read table {doc}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte"
    )
