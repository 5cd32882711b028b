"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of its seed (and, for the knot data, of the
bundled table), so the same seed always yields byte-identical documents.  The
generators keep the *cost distribution* of a run the same for every seed: the
seed decides which inputs are drawn and in what order, never how many of each
kind there are.  That way two seeds differ by sampling, not by workload size,
and run-to-run spread measures the program rather than the inputs.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

# Bundled knots swept by cover-sweep.
SWEEP_BUNDLED = ("3_1", "5_2", "6_3", "3_1#6_1")
SWEEP_TORUS = ((2, 5), (2, 7), (3, 4), (3, 5))
SWEEP_N_MAX = 400
SWEEP_STRATA = 80  # intervals of n; every run of this many rounds takes one row from each

FILTER_TORUS = ((2, 7), (2, 9), (3, 4), (3, 5))
# The filter table holds every base knot once, and double and triple sums in
# which every base knot appears equally often (FILTER_PAIR_USES and
# FILTER_TRIPLE_USES times).  The targets are all double sums, in rounds
# {c, c} and {c - x, c + x mod n} for x = 1 .. n // 2 (n odd): each round
# holds every base knot, and one sum at each distance |i - j| mod n.
# This layout, the order of the rounds included, is fixed; a seed relabels
# base knots of equal degree and orders the targets within each round, so
# every seed asks for the same work by degree as far as a run gets.
FILTER_PAIR_USES = 6
FILTER_TRIPLE_USES = 12
FILTER_LAYOUT_SEED = "filter-table layout"

# Seifert blocks for table-ingest: trefoil and figure-eight.
SEIFERT_BLOCKS = {
    "3_1": ([[-1, 1], [0, -1]], [1, -1, 1]),
    "4_1": ([[1, 1], [0, -1]], [-1, 3, -1]),
}
# Every document holds one dense Seifert matrix of each genus 1-4, so every
# document asks for the same determinant work.  Per round of INGEST_ROUND
# documents, INGEST_CORRUPT are corrupted, taking the corruption kinds in
# turn (all found in the genus-4 entry); the seed decides which documents
# are corrupted and the matrices, not how many or how.
INGEST_GENERA = (1, 2, 3, 4)
INGEST_ROUND = 8
INGEST_CORRUPT = 2
INGEST_ROUNDS = 128
CORRUPTIONS = (
    "mismatch", "not_palindromic", "bad_value_at_one", "not_square",
    "odd_size", "duplicate_name", "fibered_genus", "bad_json", "bad_type",
)


def poly_mul(a, b):
    """Product of two integer coefficient lists (ascending powers)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_monic(num, den):
    # exact quotient num/den for a monic den; raises if a remainder is left
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(num):
        raise ArithmeticError("inexact division")
    return q


def _t_power_minus_one(n):
    return [-1] + [0] * (n - 1) + [1]


def torus_alexander(p, q):
    """Alexander polynomial of the torus knot T(p, q), closed form
    (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), as symmetric coefficients."""
    num = poly_mul(_t_power_minus_one(p * q), [-1, 1])
    return _poly_div_monic(num, poly_mul(_t_power_minus_one(p), _t_power_minus_one(q)))


def torus_record(p, q):
    return {"name": f"T({p},{q})", "alexander": torus_alexander(p, q),
            "genus": (p - 1) * (q - 1) // 2, "fibered": True}


def bundled_records():
    """The bundled table as plain records, read through the library."""
    from covercalc import bundled_table

    return {
        k.name: {"name": k.name, "alexander": list(k.alexander.coeffs),
                 "genus": k.genus, "fibered": k.fibered}
        for k in bundled_table()
    }


def connected_sum(records):
    """Record of the connected sum of base records; the polynomial is built
    with the library's ``alexander_mul``, genus and fibering carry over."""
    from covercalc import AlexanderPoly, alexander_mul

    alex = AlexanderPoly(tuple(records[0]["alexander"]))
    for r in records[1:]:
        alex = alexander_mul(alex, AlexanderPoly(tuple(r["alexander"])))
    genera = [r["genus"] for r in records]
    return {
        "name": "+".join(r["name"] for r in records),
        "alexander": list(alex.coeffs),
        "genus": None if None in genera else sum(genera),
        "fibered": all(r["fibered"] for r in records),
    }


def _clean(record):
    return {k: v for k, v in record.items() if v is not None}


def _doc(records):
    return json.dumps([_clean(r) for r in records])


# ------------------------------------------------------------- cover-sweep


def stratified_order(rng, size, strata):
    """1..size in an order whose every prefix is spread evenly over the
    range: the range is cut into ``strata`` equal intervals, and each run of
    ``strata`` values takes one value from every interval, in a seeded
    order and drawn at random from what is left of the interval, so that
    no residue class is favoured."""
    width = size // strata
    intervals = [rng.sample(range(1 + j * width, 1 + (j + 1) * width), width)
                 for j in range(strata)]
    return [intervals[j].pop() for _ in range(width) for j in rng.sample(range(strata), strata)]


def cover_sweep(seed):
    """Knots and a seeded order of (knot, n) rows, n = 1..SWEEP_N_MAX.

    The knot set is fixed: four bundled knots, four torus knots and every
    connected sum of two of those eight.  The rows come in rounds that hold
    every knot once, in a seeded order; each knot's n follows its own
    stratified_order.  So any prefix a run reaches holds every knot equally
    often, with its n spread evenly over 1..SWEEP_N_MAX, and no row repeats
    before the population is used up: the costliest rows, which set
    op_tail_ms, come in the same share for every seed.
    """
    rng = random.Random(seed)
    bundled = bundled_records()
    base = [bundled[n] for n in SWEEP_BUNDLED] + [torus_record(*pq) for pq in SWEEP_TORUS]
    generated = base[len(SWEEP_BUNDLED):] + [connected_sum(list(c)) for c in combinations(base, 2)]
    names = [r["name"] for r in base] + [r["name"] for r in generated[len(SWEEP_TORUS):]]
    orders = {name: stratified_order(rng, SWEEP_N_MAX, SWEEP_STRATA) for name in names}
    rows = []
    for r in range(SWEEP_N_MAX):
        block = [(name, orders[name][r]) for name in names]
        rng.shuffle(block)
        rows += block
    return {
        "bundled": list(SWEEP_BUNDLED),
        "table": _doc(generated),
        "rows": rows,
        "n_max": SWEEP_N_MAX,
    }


# ------------------------------------------------------------ filter-table


def filter_base():
    """Base knots of the synthetic filter table: the nontrivial bundled knots
    and four torus knots."""
    bundled = bundled_records()
    return [r for name, r in bundled.items() if name != "unknot"] + [
        torus_record(*pq) for pq in FILTER_TORUS
    ]


def balanced_sums(rng, n_base, k, uses):
    """Distinct k-element multisets of base indices in which every index
    appears ``uses`` times: a seeded shuffle of the slots, then swaps
    between groups until no group repeats."""
    slots = [i for i in range(n_base) for _ in range(uses)]
    rng.shuffle(slots)
    groups = [sorted(slots[j:j + k]) for j in range(0, len(slots), k)]
    for _ in range(100_000):
        seen = set()
        clash = None
        for gi, g in enumerate(groups):
            if tuple(g) in seen:
                clash = gi
                break
            seen.add(tuple(g))
        if clash is None:
            return [tuple(g) for g in groups]
        other, a, b = rng.randrange(len(groups)), rng.randrange(k), rng.randrange(k)
        groups[clash][a], groups[other][b] = groups[other][b], groups[clash][a]
        groups[clash].sort()
        groups[other].sort()
    raise ValueError("no balanced layout found")


def filter_layout(n_base):
    """The seed-independent layout: table rows and rounds of targets, as
    tuples of base indices.  Every double sum is in exactly one round, the
    one centred on (i + j) / 2 mod n_base."""
    if n_base % 2 == 0:
        raise ValueError("the rounds of targets need an odd number of base knots")
    rng = random.Random(FILTER_LAYOUT_SEED)
    rows = ([(i,) for i in range(n_base)] + balanced_sums(rng, n_base, 2, FILTER_PAIR_USES)
            + balanced_sums(rng, n_base, 3, FILTER_TRIPLE_USES))
    rounds = [[(c, c)] + [tuple(sorted(((c - x) % n_base, (c + x) % n_base)))
                          for x in range(1, n_base // 2 + 1)]
              for c in rng.sample(range(n_base), n_base)]
    return rows, rounds


def filter_table(seed):
    """A synthetic table of connected sums of 1-3 base knots, and targets.

    The layout is fixed (see filter_layout); the seed relabels base knots
    within each polynomial degree and orders the targets within each round.
    Some targets are table rows; the filter appends the others as
    candidates.
    """
    rng = random.Random(seed)
    base = filter_base()
    label = list(range(len(base)))
    for d in sorted({len(r["alexander"]) for r in base}):
        same = [i for i, r in enumerate(base) if len(r["alexander"]) == d]
        for i, j in zip(same, rng.sample(same, len(same))):
            label[i] = j

    def record(idx):
        idx = sorted(label[i] for i in idx)
        return connected_sum([base[i] for i in idx]) if len(idx) > 1 else base[idx[0]]

    rows, rounds = filter_layout(len(base))
    table = [record(idx) for idx in rows]
    targets = []
    for rnd in rounds:
        targets += rng.sample([record(idx) for idx in rnd], len(rnd))
    return {
        "table": _doc(table),
        "targets": [_clean(r) for r in targets],
        "base": [r["name"] for r in base],
        "summands": {r["name"]: r["name"].split("+") for r in table + targets},
    }


# ------------------------------------------------------------ table-ingest


def _seifert(rng, blocks):
    """P^T V P with V block diagonal and P unimodular upper triangular,
    redrawn until every entry of V - tV^T is nonzero: the determinant then
    does the same work for every seed."""
    n = 2 * len(blocks)
    v = [[0] * n for _ in range(n)]
    for b, name in enumerate(blocks):
        m = SEIFERT_BLOCKS[name][0]
        for i in range(2):
            for j in range(2):
                v[2 * b + i][2 * b + j] = m[i][j]
    while True:
        p = [[1 if i == j else (rng.choice((-2, -1, 1, 2)) if j > i else 0) for j in range(n)]
             for i in range(n)]
        vp = [[sum(v[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        s = [[sum(p[k][i] * vp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if all(s[i][j] or s[j][i] for i in range(n) for j in range(n)):
            return s


def _ingest_entry(rng, name, genus):
    blocks = [rng.choice(sorted(SEIFERT_BLOCKS)) for _ in range(genus)]
    alex = [1]
    for b in blocks:
        alex = poly_mul(alex, SEIFERT_BLOCKS[b][1])
    return {"name": name, "alexander": alex, "genus": genus, "fibered": True,
            "seifert": _seifert(rng, blocks)}


def _corrupt(rng, entries, kind):
    # returns the document text; every kind is rejected by a valid loader
    e = entries[-1]
    c = e["alexander"]
    d = len(c) // 2
    if kind == "mismatch":
        i = rng.randrange(1, d) if d > 1 else 0
        k = 1 if c[i] != -1 else 2
        c[i] += k
        c[2 * d - i] += k
        c[d] -= 2 * k
    elif kind == "not_palindromic":
        c[rng.randrange(d)] += 1
    elif kind == "bad_value_at_one":
        c[d] += 2
    elif kind == "not_square":
        e["seifert"][-1].pop()
    elif kind == "odd_size":
        e["seifert"] = [row[:-1] for row in e["seifert"][:-1]]
    elif kind == "duplicate_name":
        e["name"] = entries[0]["name"]
    elif kind == "fibered_genus":
        e["genus"] += 1
    elif kind == "bad_type":
        e["fibered"] = "yes"
    text = json.dumps(entries)
    if kind == "bad_json":
        text = text[: rng.randrange(1, len(text) - 1)]
    return text


def table_ingest(seed, rounds=INGEST_ROUNDS):
    """Knot-table documents carrying dense Seifert matrices.

    Returns ``docs`` (JSON text) and ``expected``: for each document either
    the list of (name, alexander) pairs a correct loader yields, or None when
    the document is corrupted and must be rejected.
    """
    rng = random.Random(seed)
    docs, expected = [], []
    corrupted = 0
    for r in range(rounds):
        bad = set(rng.sample(range(INGEST_ROUND), INGEST_CORRUPT))
        for slot in range(INGEST_ROUND):
            entries = [_ingest_entry(rng, f"r{r}d{slot}k{i}", g)
                       for i, g in enumerate(INGEST_GENERA)]
            if slot in bad:
                docs.append(_corrupt(rng, entries, CORRUPTIONS[corrupted % len(CORRUPTIONS)]))
                expected.append(None)
                corrupted += 1
            else:
                docs.append(json.dumps(entries))
                expected.append([[e["name"], e["alexander"]] for e in entries])
    return {"docs": docs, "expected": expected}


# ----------------------------------------------------------------- cli-mix

CLI_ARC_KNOTS = ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3")
CLI_KNOTS = ("unknot", "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "granny", "3_1#6_1")
CLI_KNOWN_STRICT_FAIL = ("obstruct", "4_1", "3_1", "--strict")


def _cycle(seed, slot, choices, k):
    """The k-th draw of a seeded cycle through choices: every run of
    len(choices) draws takes each choice once."""
    order = random.Random(f"{seed}:{slot}").sample(choices, len(choices))
    return order[k % len(order)]


def cli_round(seed, r):
    """One round of the cli-mix: seven commands in text and --json form, in a
    seeded order.  ``render`` has no --json flag; its two forms re-render a
    saved ``cover`` record and a saved ``obstruct`` record.  Round 0 always
    holds ``obstruct 4_1 3_1 --strict``, whose exit code is known to be 1.
    The knots of the costlier commands (``filter``, ``cover``, ``skp``) and
    the start of the ``cover`` range take seeded cycles, so that every run
    asks for the same mix of them whatever the seed.

    Each op is (argv, stdin_source): stdin_source is None or the argv whose
    --json output is fed to ``render -``.
    """
    rng = random.Random(f"{seed}:{r}")
    ops = []
    for i, form in enumerate(("text", "json")):
        js = ["--json"] if form == "json" else []
        k = _cycle(seed, "cover", CLI_KNOTS[1:], 2 * r + i)
        a = _cycle(seed, "cover-n", range(1, 41), 2 * r + i)
        cover = ["cover", k, "--n", f"{a}..{a + 14}", "-p", "2", "-p", "3"]
        j, kk = rng.choice(CLI_KNOTS), rng.choice(CLI_KNOTS)
        obstruct = ["obstruct", j, kk, "--strict"]
        if r == 0 and form == "text":
            obstruct = list(CLI_KNOWN_STRICT_FAIL)
        ops += [
            (cover + js, None),
            (["skp", _cycle(seed, "skp", CLI_KNOTS, 2 * r + i),
              "-p", str(rng.choice((2, 3, 5, 7)))] + js, None),
            (obstruct + js, None),
            (["filter", _cycle(seed, "filter", CLI_KNOTS, 2 * r + i)] + js, None),
            (["bounds", rng.choice(CLI_ARC_KNOTS)] + js, None),
            (["table", "check"] + js, None),
            (["render", "-"], (cover if form == "text" else obstruct) + ["--json"]),
        ]
    rng.shuffle(ops)
    return ops
