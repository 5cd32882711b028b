import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covercalc.cli import render_text, run


def capture(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


# ------------------------------------------------------------------- cover


def test_cover_text_orders():
    code, out = capture(["cover", "3_1", "--n", "2..6"])
    assert code == 0
    lines = out.splitlines()
    orders = [line.split()[1] for line in lines[2:]]
    assert orders == ["3", "4", "3", "1", "∞"]


def test_cover_at_huge_n():
    # the order row of 3_1 repeats with period 6, and 10**18 = 4 (mod 6)
    code, out = capture(["cover", "3_1", "--n", "1000000000000000000"])
    assert code == 0
    assert out.splitlines()[2].split() == ["1000000000000000000", "3"]


def test_cover_single_n_and_sphere_columns():
    code, out = capture(["cover", "3_1", "--n", "2", "-p", "2", "-p", "5"])
    assert code == 0
    assert "Z/2-sphere" in out and "Z/5-sphere" in out
    assert "yes" in out


def test_cover_json_encodes_infinite_as_zero_with_flag():
    code, out = capture(["cover", "3_1", "--n", "6", "--json"])
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["order"] == 0 and row["infinite"] is True


# --------------------------------------------------------------------- skp


def test_skp_text():
    code, out = capture(["skp", "3_1", "-p", "2"])
    assert code == 0
    assert "S(3_1, 2) = {3}" in out


def test_skp_empty_set():
    code, out = capture(["skp", "unknot", "-p", "7"])
    assert code == 0
    assert "= {}" in out


def _module_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _module_cli(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "covercalc.cli", *args],
        input=stdin, capture_output=True, text=True, env=_module_env(), timeout=60,
    )


def test_closed_stdout_exits_1_with_nothing_on_stderr():
    # `covercalc ... | head`: about 69 KB of JSON overfill a 64 KiB pipe
    # buffer, so the process is still writing when the read end closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "covercalc.cli", "cover", "4_1", "--n", "1..400", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err.decode() == ""
    assert proc.returncode == 1


def test_module_entry_point_runs_command():
    proc = _module_cli(["skp", "3_1", "-p", "2"])
    assert proc.returncode == 0
    assert "obstruction primes S(3_1, 2) = {3}" in proc.stdout


def test_entry_point_prints_orders_past_the_int_string_limit():
    from covercalc.covers import fox_order
    from covercalc.knots import bundled_table

    # the 4_1 order at n = 12000 has about 5000 digits; Python refuses to
    # convert ints of more than 4300 by default, and only main() lifts that
    order = fox_order(bundled_table().get("4_1"), 12000).order
    assert order.bit_length() > 4300 * 3.33
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        with pytest.raises(ValueError):
            str(order)
    text = _module_cli(["cover", "4_1", "--n", "12000"])
    assert text.returncode == 0, text.stderr
    got = text.stdout.splitlines()[2].split()
    assert got[0] == "12000"
    as_json = _module_cli(["cover", "4_1", "--n", "12000", "--json"])
    assert as_json.returncode == 0, as_json.stderr
    rendered = _module_cli(["render", "-"], stdin=as_json.stdout)
    assert rendered.returncode == 0, rendered.stderr
    assert rendered.stdout == text.stdout
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert int(got[1]) == order
        assert json.loads(as_json.stdout)["rows"][0]["order"] == order
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------- obstruct


def test_obstruct_fail_reported_without_strict():
    code, out = capture(["obstruct", "4_1", "3_1"])
    assert code == 0
    assert "alex_div" in out and "FAIL" in out
    assert "overall: FAIL (alex_div)" in out


def test_obstruct_strict_exit_code():
    code, _ = capture(["obstruct", "4_1", "3_1", "--strict"])
    assert code == 1
    code, out = capture(["obstruct", "3_1", "granny", "--strict"])
    assert code == 0
    assert "not obstructed" in out


def test_obstruct_wording_never_claims_concordance():
    code, out = capture(["obstruct", "3_1", "granny"])
    assert code == 0
    assert "not obstructed" in out
    assert "no claim" in out


def test_obstruct_repeated_prime_is_checked_once():
    code, out = capture(["obstruct", "3_1", "granny", "-p", "2", "-p", "2"])
    assert code == 0
    assert out.count("skp_subset:2") == 1
    assert out == capture(["obstruct", "3_1", "granny", "-p", "2"])[1]
    code, out = capture(["obstruct", "3_1", "granny", "-p", "3", "-p", "2", "-p", "3", "--json"])
    payload = json.loads(out)
    assert payload["params"]["primes"] == [3, 2]
    ids = [c["id"] for c in payload["report"]["checks"]]
    assert ids.count("skp_subset:3") == 1 and ids.index("skp_subset:3") < ids.index("skp_subset:2")


def test_cover_repeated_prime_gives_one_column():
    code, out = capture(["cover", "3_1", "--n", "3..4", "-p", "2", "-p", "2"])
    assert code == 0
    assert out.count("Z/2-sphere") == 1
    assert out == capture(["cover", "3_1", "--n", "3..4", "-p", "2"])[1]


PSI_13 = "3317044064679887385961981"  # 1287836182261 * 2575672364521
PSI_12 = "318665857834031151167461"


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "3_1", "--n", "1..3", "-p"],
        ["skp", "3_1", "-p"],
        ["obstruct", "3_1", "granny", "-p"],
    ],
    ids=lambda a: a[0],
)
def test_user_primes_at_or_above_psi13_exit_2(argv, capsys):
    for json_flag in ([], ["--json"]):
        code, out = capture(argv + [PSI_13] + json_flag)
        assert code == 2 and out == ""
        assert f"-p {PSI_13}: primality is proven only below {PSI_13}" in capsys.readouterr().err
        code, out = capture(argv + [PSI_12] + json_flag)
        assert code == 2 and out == ""
        assert f"-p {PSI_12}: not a prime" in capsys.readouterr().err


# ------------------------------------------------------------------ filter


def test_filter_text():
    code, out = capture(["filter", "granny"])
    assert code == 0
    assert "not obstructed: unknot, 3_1, granny" in out


# ------------------------------------------------------------------ bounds


def test_bounds_uses_table_data():
    code, out = capture(["bounds", "3_1"])
    assert code == 0
    assert "genus 1, arc index 5" in out
    assert "44.456791" in out


def test_bounds_overrides():
    code, out = capture(["bounds", "3_1", "--delta", "2"])
    assert code == 0
    assert "6.436585" in out


def test_bounds_requires_data():
    code, _ = capture(["bounds", "granny"])  # granny has no arc index on file
    assert code == 2
    code, out = capture(["bounds", "granny", "--delta", "8"])
    assert code == 0
    assert "genus 2, arc index 8" in out


def test_bounds_requires_a_genus_of_at_least_one(tmp_path, capsys):
    table = tmp_path / "t.json"
    entry = {"name": "x", "alexander": [1, -1, 1], "arc_index": 5, "fibered": False}
    table.write_text(json.dumps([entry]))
    assert capture(["bounds", "x", "--table", str(table)]) == (2, "")
    assert capsys.readouterr().err == "error: x: genus unknown; pass --genus\n"
    assert capture(["bounds", "unknot", "--delta", "2"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: bounds need genus >= 1 (the unknot has no fibered predecessors beyond itself)\n"
    )


def test_bounds_samples(tmp_path):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps([{"n": 2, "count": 9}, {"n": 3, "count": 27}]))
    code, out = capture(["bounds", "3_1", "--samples", str(samples)])
    assert code == 0
    assert "dilatation upper estimate: 3.000000" in out
    assert "mapping-torus volume bound:" in out


def test_bounds_samples_degenerate(tmp_path):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps([{"n": 2, "count": 0}]))
    code, out = capture(["bounds", "3_1", "--samples", str(samples)])
    assert code == 0
    assert "degenerate" in out


def test_bounds_bad_samples(tmp_path):
    samples = tmp_path / "s.json"
    samples.write_text("[{\"n\": 2}]")
    code, _ = capture(["bounds", "3_1", "--samples", str(samples)])
    assert code == 2


def test_bounds_samples_file_missing_invalid_or_empty(tmp_path, capsys):
    samples = tmp_path / "s.json"
    argv = ["bounds", "3_1", "--samples", str(samples)]
    assert capture(argv) == (2, "")
    assert capsys.readouterr().err.startswith(f"error: bad samples file {samples}: [Errno 2] ")
    samples.write_text("not json")
    assert capture(argv) == (2, "")
    assert capsys.readouterr().err == (
        f"error: bad samples file {samples}: Expecting value: line 1 column 1 (char 0)\n"
    )
    samples.write_text("[]")
    assert capture(argv) == (2, "")
    assert capsys.readouterr().err == f"error: samples file {samples} is empty\n"


def test_bounds_samples_estimate_at_most_one_gives_no_volume_bound(tmp_path):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps([{"n": 1, "count": 1}, {"n": 2, "count": 4}]))
    code, out = capture(["bounds", "3_1", "--samples", str(samples)])
    assert code == 0
    assert out.splitlines()[-2:] == [
        "dilatation upper estimate: 1.000000",
        "mapping-torus volume bound: n/a (estimate <= 1)",
    ]
    code, out = capture(["bounds", "3_1", "--samples", str(samples), "--json"])
    assert code == 0 and json.loads(out)["dilatation"]["km_volume_bound"] is None


@pytest.mark.parametrize(
    "doc, reason",
    [
        ('[{"n": 2, "count": true}]', 'record 1 ({"n": 2, "count": true}): count must be an '
                                      "integer, got True"),
        ('[{"n": 2, "count": 9}, {"n": 3, "count": 1.5}]',
         'record 2 ({"n": 3, "count": 1.5}): count must be an integer, got 1.5'),
        ('[{"n": false, "count": 9}]',
         'record 1 ({"n": false, "count": 9}): iterate index must be an integer, got False'),
        ('[{"n": 2}]', 'record 1 ({"n": 2}) is not an {n, count} object'),
        ("[1]", "record 1 (1) is not an {n, count} object"),
        ('[{"n": 2, "count": 9}, [2, 9]]', "record 2 ([2, 9]) is not an {n, count} object"),
        ('{"n": 2, "count": 9}', "expected a JSON array of {n, count} objects"),
        ('"abc"', "expected a JSON array of {n, count} objects"),
    ],
)
def test_bounds_samples_names_the_bad_record(tmp_path, capsys, doc, reason):
    samples = tmp_path / "s.json"
    samples.write_text(doc)
    code, out = capture(["bounds", "3_1", "--samples", str(samples)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: bad samples file {samples}: {reason}\n"


def test_bounds_samples_beyond_float_range(tmp_path, capsys):
    samples = tmp_path / "s.json"
    samples.write_text('[{"n": 2, "count": 1%s}]' % ("0" * 400))
    code, out = capture(["bounds", "3_1", "--samples", str(samples)])
    assert code == 0
    upper = next(line for line in out.splitlines() if line.startswith("dilatation upper"))
    assert math.isclose(float(upper.split(": ")[1]), 1e200, rel_tol=1e-12)
    samples.write_text('[{"n": 1, "count": 1%s}]' % ("0" * 400))
    code, out = capture(["bounds", "3_1", "--samples", str(samples)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: every sample's count**(1/n) is beyond float range\n"


# :.6f of a value of 1e11 or more has more than the 17 significant digits a
# float holds, so such a value prints as :.6e; smaller values keep :.6f
@pytest.mark.parametrize(
    "n, count, shown",
    [(2, 10**400, "1.000000e+200"), (1, 10**11, "1.000000e+11"), (1, 10**11 - 1, "99999999999.000000")],
)
def test_bounds_estimate_past_float_precision_prints_in_exponent_form(tmp_path, n, count, shown):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps([{"n": n, "count": count}]))
    code, out = capture(["bounds", "3_1", "--samples", str(samples)])
    assert code == 0 and f"dilatation upper estimate: {shown}" in out.splitlines(), out


def test_bounds_gromov_ceiling_past_float_precision_prints_in_exponent_form():
    for genus, shown in (("1000000000", "2.805200e+11"), ("100000000", "28052004800.227169")):
        code, out = capture(["bounds", "3_1", "--genus", genus, "--delta", "10"])
        assert code == 0 and f"predecessor <= {shown}" in out.splitlines()[1], out


@pytest.mark.parametrize(
    "args, samples",
    [
        (["--genus", str(10**400)], None),
        (["--delta", str(10**400)], None),
        (["--genus", "1000000", "--delta", str(10**300)], None),
        # the ceiling is finite, the mapping-torus volume bound is not
        (["--genus", str(10**306), "--delta", "2"], [{"n": 1, "count": 10**300}]),
    ],
)
@pytest.mark.parametrize("form", [[], ["--json"]])
def test_bounds_beyond_float_range_is_a_data_error(tmp_path, capsys, args, samples, form):
    if samples is not None:
        path = tmp_path / "s.json"
        path.write_text(json.dumps(samples))
        args = [*args, "--samples", str(path)]
    code, out = capture(["bounds", "3_1", *args, *form])
    assert (code, out) == (2, "")
    name = "gromov norm bound" if samples is None else "volume bound"
    assert capsys.readouterr().err == f"error: {name} is beyond float range\n"


def test_bounds_samples_ignore_extra_keys(tmp_path):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps([{"n": 2, "count": 9, "note": "x"}]))
    code, out = capture(["bounds", "3_1", "--samples", str(samples)])
    assert code == 0
    assert "fixed-point samples: (2, 9)" in out


# ------------------------------------------------------------------- table


def test_table_list_and_check():
    code, out = capture(["table", "list"])
    assert code == 0
    assert "granny" in out and "fibered" in out
    code, out = capture(["table", "check"])
    assert code == 0
    assert "10 knots, all invariants hold" in out


def test_table_flag_and_env(tmp_path, monkeypatch):
    doc = [{"name": "only", "alexander": [1], "fibered": False}]
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out = capture(["table", "list", "--table", str(path)])
    assert code == 0
    assert "only" in out and "granny" not in out
    monkeypatch.setenv("COVERCALC_TABLE", str(path))
    code, out = capture(["table", "list"])
    assert code == 0
    assert "only" in out and "granny" not in out
    # explicit flag beats the environment
    monkeypatch.setenv("COVERCALC_TABLE", "/nonexistent.json")
    code, out = capture(["table", "list", "--table", str(path)])
    assert code == 0


def test_malformed_table_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[{\"name\": \"x\", \"alexander\": [1, 1], \"fibered\": false}]")
    code, _ = capture(["table", "list", "--table", str(path)])
    assert code == 2
    # the error names the file it cannot decode, or the knot whose Seifert matrix is bad
    capsys.readouterr()
    path.write_bytes(b"\xff\xfe")
    assert capture(["table", "list", "--table", str(path)]) == (2, "")
    assert capsys.readouterr().err == (
        f"error: cannot read table {path}: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte\n"
    )
    path.write_text(json.dumps([{"name": "k9", "alexander": [1], "fibered": False, "seifert": [[1, 2]]}]))
    assert capture(["table", "check", "--table", str(path)]) == (2, "")
    assert capsys.readouterr().err == "error: k9: Seifert matrix must be square\n"
    path.write_text(json.dumps([{"name": 9, "alexander": [1], "fibered": False}]))
    assert capture(["table", "list", "--table", str(path)]) == (2, "")
    assert capsys.readouterr().err == "error: entry 1: name must be a string\n"


# -------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["cover", "3_1", "--n", "2..6"], 0),
        (["cover", "nosuch", "--n", "2"], 2),
        (["cover", "3_1", "--n", "0..4"], 2),
        (["cover", "3_1", "--n", "5..2"], 2),
        (["cover", "3_1", "--n", "x"], 2),
        (["cover", "3_1", "--n", "2", "-p", "6"], 2),
        (["skp", "3_1", "-p", "9"], 2),
        (["skp", "3_1", "-p", "3"], 0),
        (["obstruct", "3_1", "nosuch"], 2),
        (["obstruct", "3_1", "granny", "--max-n", "0"], 2),
        (["filter", "nosuch"], 2),
        (["bounds", "unknot"], 2),
        (["nosuchcommand"], 2),
        ([], 2),
    ],
)
def test_exit_code_matrix(argv, expected):
    code, _ = capture(argv)
    assert code == expected


# ------------------------------------------------------------ render round trip


ROUND_TRIP_COMMANDS = [
    ["table", "list"],
    ["table", "check"],
    ["cover", "3_1", "--n", "1..8", "-p", "2", "-p", "3"],
    ["cover", "6_1", "--n", "3"],
    ["skp", "4_1", "-p", "3"],
    ["obstruct", "4_1", "3_1"],
    ["obstruct", "3_1", "3_1#6_1"],
    ["filter", "granny"],
    ["bounds", "5_1"],
]


@pytest.mark.parametrize("argv", ROUND_TRIP_COMMANDS, ids=lambda a: " ".join(a))
def test_render_round_trip(argv):
    code_text, text = capture(argv)
    code_json, payload = capture(argv + ["--json"])
    assert code_text == code_json == 0
    assert render_text(json.loads(payload)) + "\n" == text


def test_render_round_trip_with_samples(tmp_path):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps([{"n": 2, "count": 9}, {"n": 5, "count": 100}]))
    argv = ["bounds", "3_1", "--samples", str(samples)]
    _, text = capture(argv)
    _, payload = capture(argv + ["--json"])
    assert render_text(json.loads(payload)) + "\n" == text


def test_render_subcommand_from_file(tmp_path):
    _, payload = capture(["skp", "3_1", "-p", "2", "--json"])
    path = tmp_path / "p.json"
    path.write_text(payload)
    code, out = capture(["render", str(path)])
    assert code == 0
    _, text = capture(["skp", "3_1", "-p", "2"])
    assert out == text


def test_render_rejects_bad_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"command\": \"wat\"}")
    code, _ = capture(["render", str(path)])
    assert code == 2
    path.write_text("not json")
    code, _ = capture(["render", str(path)])
    assert code == 2


def test_render_of_an_unreadable_file_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert capture(["render", str(path)]) == (2, "")
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: [Errno 2] ")


@pytest.mark.parametrize(
    "payload",
    ['{"command": "cover"}', "[1, 2]", '"x"',
     '{"command": "skp", "knot": "3_1", "p": 2, "primes": 5}'],
)
def test_render_malformed_payload_is_a_data_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code, out = capture(["render", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
