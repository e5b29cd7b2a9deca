"""Command line interface: output formats, file round-trips, exit codes.

Exit code contract: 0 success, 1 claimed property violated, 2 malformed
input, 3 budget exceeded or result inconclusive.
"""

import json
import math
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from teachlab import (
    ConceptClass,
    bound_report,
    class1,
    class2,
    random_tournament,
    serialize_class,
    serialize_tournament,
    teaching_report,
)
from teachlab.cli import (
    BUDGET_ENV,
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PROPERTY,
    dispatch,
    main,
)

GOLDEN = Path(__file__).parent / "golden"

HALF3 = "n=3\n000\n100\n110\n111\n011\n001\n"


@pytest.fixture
def half3(tmp_path):
    p = tmp_path / "half3.cls"
    p.write_text(HALF3, encoding="ascii")
    return p


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="ascii")


# a command-line value far past the 40 characters an error repeats
LONG_VALUE = "x" * 5000


def assert_cut(raw: str, err: str) -> None:
    """A long value is repeated only in part, so the error stays short."""
    if raw == LONG_VALUE:
        assert "(first 40 of 5000 characters)" in err
        assert len(err) < 400


# every subcommand's exit code, output and written files on small inputs, with
# and without --json; "{tmp}" stands for the directory the inputs are written to
CLI_OUTPUTS = json.loads(golden("cli_outputs.json"))


def run_recorded(argv: list[str], tmp_path: Path) -> dict:
    """Run one command in tmp_path over the golden inputs and record what it did.

    Text is kept as a list of lines (split on "\\n", so joining them restores
    it exactly), and so are the files the command wrote.
    """
    inputs = CLI_OUTPUTS["inputs"]
    for name, lines in inputs.items():
        (tmp_path / name).write_text("\n".join(lines), encoding="ascii")
    tmp = str(tmp_path)
    outcome = dispatch([arg.replace("{tmp}", tmp) for arg in argv])
    written = {p.name: p.read_text(encoding="ascii").split("\n")
               for p in sorted(tmp_path.iterdir()) if p.name not in inputs}
    return {"code": outcome.code, "text": outcome.text.replace(tmp, "{tmp}").split("\n"),
            "files": written}


@pytest.mark.parametrize("case", CLI_OUTPUTS["cases"], ids=lambda case: case["id"])
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    want = {key: case[key] for key in ("code", "text", "files")}
    assert run_recorded(case["argv"], tmp_path) == want


def test_td_report_text_golden(half3, capsys):
    assert main(["td", "--class", str(half3)]) == EXIT_OK
    assert capsys.readouterr().out == golden("td_half3.txt")


def test_td_report_json_golden(half3, capsys):
    assert main(["td", "--class", str(half3), "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == golden("td_half3.json")
    doc = json.loads(out)
    assert doc["td_min"] == 2 and doc["td_max"] == 2
    assert [c["td"] for c in doc["concepts"]] == [2] * 6


def test_td_single_concept_by_index(half3):
    outcome = dispatch(["td", "--class", str(half3), "--concept", "3"])
    assert outcome.code == EXIT_OK
    assert outcome.text == "concept 3 111: td=2 witness=1 3"


def test_td_single_concept_matches_the_report(tmp_path):
    # --concept runs one concept's search; its output must equal the report's entry
    path = tmp_path / "c2.cls"
    path.write_text(serialize_class(class2(random_tournament(12, 3))), encoding="ascii")
    report = json.loads(dispatch(["td", "--class", str(path), "--json"]).text)
    lines = dispatch(["td", "--class", str(path)]).text.splitlines()
    for entry in report["concepts"]:
        i = str(entry["index"])
        single = json.loads(dispatch(["td", "--class", str(path), "--concept", i, "--json"]).text)
        assert single == {"n": report["n"], **entry}
        assert dispatch(["td", "--class", str(path), "--concept", i]).text == lines[1 + entry["index"]]


def test_td_concept_index_out_of_range(half3):
    outcome = dispatch(["td", "--class", str(half3), "--concept", "6"])
    assert outcome.code == EXIT_INPUT


def test_td_csv_export(half3, tmp_path):
    out = tmp_path / "td.csv"
    assert dispatch(["td", "--class", str(half3), "--csv", str(out)]).code == EXIT_OK
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "concept_index,td,witness"
    assert lines[1] == "0,2,1 3"
    assert len(lines) == 7


def test_td_concept_and_csv_are_refused_together(half3, tmp_path, capsys):
    # --concept reports one concept and would write no CSV
    out = tmp_path / "td.csv"
    with pytest.raises(SystemExit) as exc:
        dispatch(["td", "--class", str(half3), "--concept", "3", "--csv", str(out)])
    assert exc.value.code == EXIT_INPUT
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_rtd_with_oracle_cross_check(half3):
    outcome = dispatch(["rtd", "--class", str(half3), "--oracle"])
    assert outcome.code == EXIT_OK
    assert outcome.text == "rtd = 2 (oracle agrees)"


def test_nctd_writes_teacher(half3, tmp_path):
    teacher = tmp_path / "t.nct"
    outcome = dispatch(["nctd", "--class", str(half3), "--emit-teacher", str(teacher)])
    assert outcome.code == EXIT_OK
    assert teacher.read_text(encoding="ascii") == golden("teacher_half3.nct")


def test_nctd_json(half3):
    outcome = dispatch(["nctd", "--class", str(half3), "--json"])
    assert outcome.code == EXIT_OK
    doc = json.loads(outcome.text)
    assert doc["status"] == "exact" and doc["d"] == 1
    assert doc["lower_bound"] == 1
    assert doc["teacher"][0] == {"concept": "000", "set": [1]}


def test_nctd_max_d_exceeded_is_inconclusive(half3):
    outcome = dispatch(["nctd", "--class", str(half3), "--max-d", "0"])
    assert outcome.code == EXIT_BUDGET
    assert "nctd >= 1" in outcome.text


def test_verify_teacher_accepts_golden(half3, tmp_path):
    teacher = tmp_path / "t.nct"
    teacher.write_text(golden("teacher_half3.nct"), encoding="ascii")
    outcome = dispatch(["verify-teacher", "--class", str(half3), "--teacher", str(teacher)])
    assert outcome.code == EXIT_OK
    assert outcome.text == "teacher is admissible (order 1)"


def test_verify_teacher_reports_clash(half3, tmp_path):
    teacher = tmp_path / "clash.nct"
    teacher.write_text(
        "n=3 d=1\n000 : 1\n100 : 1\n110 : 3\n111 : 1\n011 : 2\n001 : 3\n",
        encoding="ascii",
    )
    outcome = dispatch(["verify-teacher", "--class", str(half3), "--teacher", str(teacher)])
    assert outcome.code == EXIT_PROPERTY
    assert outcome.text == "clash: concepts 100 and 110 agree on {1, 3}"


def test_verify_teacher_reports_first_clash_in_pair_order(half3, tmp_path):
    # pairs (0, 3) and (1, 2) both clash; (0, 3) comes first in i < j order
    teacher = tmp_path / "clash.nct"
    teacher.write_text(
        "n=3 d=1\n000 :\n100 : 1\n110 : 1\n111 :\n011 : 1\n001 : 3\n",
        encoding="ascii",
    )
    outcome = dispatch(["verify-teacher", "--class", str(half3), "--teacher", str(teacher),
                        "--json"])
    assert outcome.code == EXIT_PROPERTY
    assert json.loads(outcome.text)["clash"] == ["000", "111"]


def test_verify_teacher_names_the_first_clash_in_class_order(half3, tmp_path):
    # the pairs {000, 100} and {011, 001} clash; the file lists the class in
    # reverse, so in file order {001, 011} would come first
    teacher = tmp_path / "reversed.nct"
    teacher.write_text(
        "n=3 d=1\n001 : 1\n011 : 1\n111 : 3\n110 : 2\n100 :\n000 : 3\n",
        encoding="ascii",
    )
    outcome = dispatch(["verify-teacher", "--class", str(half3), "--teacher", str(teacher)])
    assert outcome.code == EXIT_PROPERTY
    assert outcome.text == "clash: concepts 000 and 100 agree on {3}"


def test_verify_teacher_wrong_class_is_input_error(half3, tmp_path):
    teacher = tmp_path / "t.nct"
    teacher.write_text("n=3 d=1\n000 : 1\n100 : 2\n", encoding="ascii")
    outcome = dispatch(["verify-teacher", "--class", str(half3), "--teacher", str(teacher)])
    assert outcome.code == EXIT_INPUT


def test_tournament_gen_class_recover_pipeline(tmp_path):
    trn = tmp_path / "g.trn"
    cls = tmp_path / "g.cls"
    assert dispatch(["tournament", "gen", "--n", "3", "--linear", "--out", str(trn)]).code == EXIT_OK
    assert trn.read_text(encoding="ascii") == "n=3\n1 2\n1 3\n2 3\n"
    assert dispatch(
        ["tournament", "class", "--mode", "2", "--in", str(trn), "--out", str(cls)]
    ).code == EXIT_OK
    assert cls.read_text(encoding="ascii") == golden("class_lin3.cls")
    outcome = dispatch(["tournament", "recover", "--class", str(cls), "--find-teacher"])
    assert outcome.code == EXIT_OK
    assert outcome.text == trn.read_text(encoding="ascii").rstrip("\n")


def test_tournament_gen_seeded_round_trip(tmp_path):
    a, b = tmp_path / "a.trn", tmp_path / "b.trn"
    assert dispatch(["tournament", "gen", "--n", "6", "--seed", "9", "--out", str(a)]).code == EXIT_OK
    assert dispatch(["tournament", "gen", "--n", "6", "--seed", "9", "--out", str(b)]).code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_tournament_gen_to_a_file_lists_no_edges(tmp_path):
    # the JSON object's edge list is built only under --json: listing the
    # 244,650 edges of n = 700 first peaked at 16x the file
    out = tmp_path / "g.trn"
    tracemalloc.start()
    try:
        assert dispatch(["tournament", "gen", "--n", "700", "--seed", "3",
                         "--out", str(out)]).code == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * out.stat().st_size


def test_tournament_gen_to_stdout_makes_no_string_per_edge():
    # the text goes out as one line: splitting it into its 244,650 edge lines
    # first peaked at 9.7x the text
    tracemalloc.start()
    try:
        outcome = dispatch(["tournament", "gen", "--n", "700", "--seed", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.code == EXIT_OK
    assert peak < 4 * len(outcome.text)


def test_tournament_gen_negative_seed_golden(tmp_path, capsys):
    # recorded by the per-pair generator; pins a negative seed through the lane-parallel one
    want = golden("tournament_n40_s-5.trn")
    assert main(["tournament", "gen", "--n", "40", "--seed", "-5"]) == EXIT_OK
    assert capsys.readouterr().out == want
    out = tmp_path / "g.trn"
    argv = ["tournament", "gen", "--n", "40", "--seed", "-5", "--out", str(out)]
    assert dispatch(argv).code == EXIT_OK
    assert out.read_text(encoding="ascii") == want


def test_tournament_recover_with_explicit_teacher(tmp_path):
    trn, cls, nct = tmp_path / "g.trn", tmp_path / "g.cls", tmp_path / "g.nct"
    dispatch(["tournament", "gen", "--n", "4", "--seed", "5", "--out", str(trn)])
    dispatch(["tournament", "class", "--mode", "2", "--in", str(trn), "--out", str(cls)])
    dispatch(["nctd", "--class", str(cls), "--emit-teacher", str(nct)])
    outcome = dispatch(
        ["tournament", "recover", "--class", str(cls), "--teacher", str(nct)]
    )
    assert outcome.code == EXIT_OK
    assert outcome.text == trn.read_text(encoding="ascii").rstrip("\n")
    # the same teacher with its concepts in reverse is matched to the class by mask
    header, *rows = nct.read_text(encoding="ascii").splitlines()
    reversed_nct = tmp_path / "reversed.nct"
    reversed_nct.write_text("\n".join([header] + rows[::-1]) + "\n", encoding="ascii")
    argv = ["tournament", "recover", "--class", str(cls), "--teacher", str(reversed_nct)]
    assert dispatch(argv) == outcome


def test_tournament_recover_non_tournament_class(tmp_path):
    cls = tmp_path / "not.cls"
    cls.write_text("n=3\n000\n100\n110\n111\n011\n010\n", encoding="ascii")
    outcome = dispatch(["tournament", "recover", "--class", str(cls), "--find-teacher"])
    assert outcome.code == EXIT_PROPERTY
    assert "no order-1 no-clash teacher" in outcome.text


def test_tournament_recover_find_teacher_timeout_is_a_budget_exit(tmp_path, monkeypatch):
    # the greedy fails on this shuffled order, so the order-1 decision reaches
    # its first budget check, where a budget of 0 has expired
    g = random_tournament(16, 0)
    masks = list(class2(g).masks)
    random.Random(0).shuffle(masks)
    cls = tmp_path / "shuffled.cls"
    cls.write_text(serialize_class(ConceptClass.from_masks(masks, 16)), encoding="ascii")
    argv = ["tournament", "recover", "--class", str(cls), "--find-teacher"]
    monkeypatch.setenv(BUDGET_ENV, "0")
    outcome = dispatch(argv)
    assert outcome.code == EXIT_BUDGET
    assert outcome.text == "error: order-1 carrier propagation hit its deadline"
    monkeypatch.delenv(BUDGET_ENV)
    outcome = dispatch(argv)
    assert outcome.code == EXIT_OK
    assert outcome.text == serialize_tournament(g).rstrip("\n")


def test_johnson_hmax_exact_with_witness(tmp_path):
    fam = tmp_path / "fam.txt"
    outcome = dispatch(
        ["johnson", "hmax", "--n", "5", "--k", "2", "--t", "2", "--witness", str(fam)]
    )
    assert outcome.code == EXIT_OK
    assert outcome.text.splitlines()[0] == "H_2(5,2) = 6"
    assert fam.read_text(encoding="ascii") == "1 2\n1 3\n1 4\n2 5\n3 5\n4 5\n"


def test_johnson_hmax_inconclusive_over_limit(capsys):
    outcome = dispatch(["johnson", "hmax", "--n", "12", "--k", "3", "--t", "2",
                        "--timeout", "0"])
    assert outcome.code == EXIT_BUDGET
    assert outcome.text == "inconclusive: 30 <= H_2(12,3) <= 110"
    # the budget is the only limit; the old size option is gone
    with pytest.raises(SystemExit) as exc:
        dispatch(["johnson", "hmax", "--n", "12", "--k", "3", "--t", "2", "--exact-limit", "10"])
    assert exc.value.code == EXIT_INPUT
    assert "--exact-limit" in capsys.readouterr().err


def _long_int(digits: str) -> int:
    # an exact parse in 1,000-digit chunks, each under CPython's 4,300-digit
    # limit on int-string conversion
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_johnson_hmax_prints_a_bound_past_the_int_digit_limit():
    # the set-up of 10,001-subsets of [20000] never ends within the budget, so
    # the search reports no family and the counting bound of about 6,000 digits
    outcome = dispatch(["johnson", "hmax", "--n", "20000", "--k", "10000", "--t", "2",
                        "--timeout", "0.2"])
    assert outcome.code == EXIT_BUDGET
    prefix = "inconclusive: 0 <= H_2(20000,10000) <= "
    assert outcome.text.startswith(prefix)
    digits = outcome.text.removeprefix(prefix)
    assert digits.isdigit() and len(digits) > 4300
    assert _long_int(digits) == min(math.comb(20000, 10000), 2 * math.comb(20000, 10001) // 10000)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_bounds_print_past_the_int_digit_limit(json_flag):
    # at (100000, 50000) ksz = 2^d C(n, d) has 45,152 digits, and gub is an
    # integer of 45,151
    outcome = dispatch(["bounds", "--n", "100000", "--d", "50000"] + json_flag)
    assert outcome.code == EXIT_OK
    if json_flag:
        doc = json.loads(outcome.text, parse_int=_long_int)
        ksz, gub = doc["ksz"], doc["gub"]
    else:
        rows = dict(line.split(" = ") for line in outcome.text.splitlines())
        ksz, gub = _long_int(rows["ksz   "]), rows["gub   "]
    assert ksz == (1 << 50000) * math.comb(100000, 50000)
    assert _long_int(gub) == bound_report(100000, 50000).gub


def test_long_header_is_refused_at_once(tmp_path):
    # the digit limit stays in force while files are read: a header of 5,000
    # digits is an input error, not a domain of 10^5000 instances, and the
    # error repeats only the start of the line, for the class, teacher and
    # tournament readers alike
    digits = "9" * 5000
    cls = tmp_path / "long.cls"
    cls.write_text(f"n={digits}\n0\n", encoding="ascii")
    tch = tmp_path / "long.tch"
    tch.write_text(f"n={digits} d=1\n0 : 1\n", encoding="ascii")
    tour = tmp_path / "long.tour"
    tour.write_text(f"n={digits}\n1 2\n", encoding="ascii")
    good = tmp_path / "good.cls"
    good.write_text("n=1\n0\n", encoding="ascii")
    readers = [(["td", "--class", str(cls)], 5002),
               (["verify-teacher", "--class", str(good), "--teacher", str(tch)], 5006),
               (["tournament", "class", "--mode", "1", "--in", str(tour)], 5002)]
    for argv, width in readers:
        error = f"line 1: malformed header 'n={'9' * 38}' (first 40 of {width} characters)"
        for json_flag in [], ["--json"]:
            start = time.monotonic()
            outcome = dispatch(argv + json_flag)
            assert time.monotonic() - start < 1.0
            assert outcome.code == EXIT_INPUT
            assert len(outcome.text) < 200, outcome.text
            assert outcome.text == (json.dumps({"error": error}) if json_flag else f"error: {error}")


def test_bounds_text_golden(capsys):
    assert main(["bounds", "--n", "10", "--d", "3", "--t", "2"]) == EXIT_OK
    assert capsys.readouterr().out == golden("bounds_10_3_2.txt")


def test_bounds_csv_golden(capsys):
    assert main(["bounds", "--n", "10", "--d", "3", "--t", "2", "--csv"]) == EXIT_OK
    assert capsys.readouterr().out == golden("bounds_10_3_2.csv")


def test_bounds_json_golden(capsys):
    assert main(["bounds", "--n", "10", "--d", "3", "--t", "2", "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == golden("bounds_10_3_2.json")
    doc = json.loads(out)
    assert doc["ksz"] == 960 and doc["gub"] == "800"
    assert doc["factor"] == pytest.approx(0.914213562373)


def test_bounds_reads_the_budget_only_when_it_solves_h(capsys):
    # C(6, 2) = 15 <= 24 runs the H_t search, which reads the budget; C(10, 3)
    # = 120 takes the chain bound, so no budget changes its output
    outcome = dispatch(["bounds", "--n", "6", "--d", "2", "--t", "2", "--timeout", "0"])
    assert outcome.code == EXIT_BUDGET
    assert outcome.text == "error: H_2(6,2) search hit its deadline with 5 <= H_2(6,2) <= 10"
    assert main(["bounds", "--n", "10", "--d", "3", "--t", "2", "--timeout", "0"]) == EXIT_OK
    assert capsys.readouterr().out == golden("bounds_10_3_2.txt")


def test_bounds_csv_d1_leaves_t_empty(capsys):
    assert main(["bounds", "--n", "6", "--d", "1", "--csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "6,1,,12,12,1,1,upper-bound"


@pytest.mark.parametrize("n, d, t", [(3, 1, 9), (3, 1, -4), (5, 3, 9), (5, 3, 1)])
def test_bounds_t_outside_2_to_d_is_an_input_error(n, d, t):
    # at d = 1 no t applies; at d >= 2 the message names d, not h_max's k
    outcome = dispatch(["bounds", "--n", str(n), "--d", str(d), "--t", str(t)])
    assert outcome.code == EXIT_INPUT
    assert outcome.text == f"error: need 2 <= t <= d, got t={t}, d={d}"


def test_experiment_tdmin_csv_golden(capsys):
    code = main(["experiment", "tdmin", "--n", "6", "--trials", "3", "--seed", "42",
                 "--out", "-"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out == golden("tdmin_n6_s42_t3.csv")
    assert out.splitlines()[1] == "0,13679457532755275413,6,2,1"


def test_experiment_tdmin_csv_file_matches_stdout(tmp_path):
    out = tmp_path / "runs.csv"
    code = dispatch(["experiment", "tdmin", "--n", "6", "--trials", "3", "--seed", "42",
                     "--out", str(out)]).code
    assert code == EXIT_OK
    assert out.read_text(encoding="ascii") == golden("tdmin_n6_s42_t3.csv")


def test_experiment_tdmin_n64_csv_golden(tmp_path):
    # the criterion-10 configuration, recorded with the per-concept hitting-set kernel
    out = tmp_path / "runs.csv"
    code = dispatch(["experiment", "tdmin", "--n", "64", "--trials", "200",
                     "--seed", "20260815", "--out", str(out)]).code
    assert code == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "tdmin_n64_s20260815_t200.csv").read_bytes()


def test_experiment_tdmin_csv_to_stdout_refuses_json():
    outcome = dispatch(["experiment", "tdmin", "--n", "6", "--trials", "3", "--seed", "42",
                        "--out", "-", "--json"])
    assert outcome.code == EXIT_INPUT
    assert json.loads(outcome.text) == {
        "error": "--out - prints the CSV; it cannot be combined with --json"}


@pytest.mark.parametrize("raw", ["0", "-1", "two", pytest.param(LONG_VALUE, id="x5000")])
def test_experiment_tdmin_rejects_jobs_below_one(raw, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["experiment", "tdmin", "--n", "6", "--trials", "3", "--seed", "42",
                  "--jobs", raw])
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--jobs" in err
    assert_cut(raw, err)


def test_experiment_tdmin_runs_past_n_128():
    # no size cap: the budget alone bounds the run, and each record holds its class's td_min
    outcome = dispatch(["experiment", "tdmin", "--n", "129", "--trials", "3", "--seed", "0",
                        "--out", "-"])
    assert outcome.code == EXIT_OK
    rows = [line.split(",") for line in outcome.text.splitlines()[1:]]
    assert len(rows) == 3
    for trial, seed, n, td, _ in rows:
        g = random_tournament(int(n), int(seed))
        assert int(td) == teaching_report(class1(g)).td_min, trial


def test_experiment_claim_scan(capsys):
    assert main(["experiment", "claim", "--scan-max", "8192"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "claim n0 = 3072" in out
    # the corollary onset lies beyond this scan range but its columns appear
    assert "corollary n0 = 6144" in out


def test_experiment_claim_not_found_is_property_exit():
    outcome = dispatch(["experiment", "claim", "--scan-max", "2048"])
    assert outcome.code == EXIT_PROPERTY


def test_experiment_tau_json():
    outcome = dispatch(["experiment", "tau", "--n", "5", "--trials", "20", "--seed", "9",
                        "--k", "1", "--json"])
    assert outcome.code == EXIT_OK
    doc = json.loads(outcome.text)
    assert doc["hits"] == 16 and doc["fraction"] == 0.8
    assert doc["ci_low"] < 0.8 < doc["ci_high"]


def test_verify_dim1_command():
    outcome = dispatch(["verify", "dim1", "--n", "2"])
    assert outcome.code == EXIT_OK
    assert "characterization holds" in outcome.text


def test_verify_dim1_over_budget():
    outcome = dispatch(["verify", "dim1", "--n", "5"])
    assert outcome.code == EXIT_BUDGET


def test_verify_dim1_below_1_is_an_input_error():
    outcome = dispatch(["verify", "dim1", "--n", "0"])
    assert outcome.code == EXIT_INPUT
    assert "need n >= 1" in outcome.text


def test_search_maxclass_exact():
    outcome = dispatch(["search", "maxclass", "--n", "3", "--d", "1"])
    assert outcome.code == EXIT_OK
    assert outcome.text.splitlines()[0] == "M_NC(3,1) = 6"


def test_search_maxclass_power_set_exits_ok():
    outcome = dispatch(["search", "maxclass", "--n", "3", "--d", "3"])
    assert outcome.code == EXIT_OK
    assert outcome.text.splitlines()[0] == "M_NC(3,3) = 8"


def test_search_maxclass_inconclusive():
    outcome = dispatch(["search", "maxclass", "--n", "5", "--d", "1"])
    assert outcome.code == EXIT_BUDGET
    assert "M_NC(5,1)" in outcome.text


def test_missing_file_is_input_error():
    outcome = dispatch(["td", "--class", "/nonexistent/x.cls"])
    assert outcome.code == EXIT_INPUT
    assert outcome.text.startswith("error:")


def test_malformed_class_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.cls"
    bad.write_text("n=3\n000\n10\n", encoding="ascii")
    outcome = dispatch(["td", "--class", str(bad)])
    assert outcome.code == EXIT_INPUT
    assert "line 3" in outcome.text


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"])
    assert exc.value.code == 2


def test_budget_env_sets_default_timeout(half3, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "30")
    assert dispatch(["nctd", "--class", str(half3)]).code == EXIT_OK
    monkeypatch.setenv(BUDGET_ENV, "not-a-number")
    outcome = dispatch(["nctd", "--class", str(half3)])
    assert outcome.code == EXIT_INPUT
    assert BUDGET_ENV in outcome.text


@pytest.mark.parametrize("raw", ["nan", "-1", "seconds", pytest.param(LONG_VALUE, id="x5000")])
def test_timeout_flag_rejects_nan_negative_and_text(half3, raw, capsys):
    # NaN would pass every "monotonic() > deadline" check and disable the budget
    with pytest.raises(SystemExit) as exc:
        dispatch(["nctd", "--class", str(half3), "--timeout", raw])
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"argument --timeout: --timeout and {BUDGET_ENV} take a number of seconds >= 0" in err
    assert "_budget_secs" not in err
    assert_cut(raw, err)


@pytest.mark.parametrize("raw", ["nan", "NaN", "-0.5", pytest.param(LONG_VALUE, id="x5000")])
def test_budget_env_rejects_nan_and_negative(half3, monkeypatch, raw):
    monkeypatch.setenv(BUDGET_ENV, raw)
    for argv in (["nctd", "--class", str(half3)],
                 ["tournament", "recover", "--class", str(half3), "--find-teacher"],
                 ["td", "--class", str(half3)],
                 ["bounds", "--n", "4", "--d", "2"]):
        outcome = dispatch(argv)
        assert outcome.code == EXIT_INPUT
        assert BUDGET_ENV in outcome.text
        assert_cut(raw, outcome.text)


# every search subcommand on an input it cannot finish within the budget; a
# search reads it each time 2^20 units of work have passed (a node costs 1,024
# units plus the bits it handles), so a run may overshoot it a little
SLOW_SEARCHES = {
    "td": ["td", "--class", "{c400}"],
    "rtd": ["rtd", "--class", "{c800}"],
    "rtd-oracle": ["rtd", "--class", "{c40}", "--oracle"],
    "nctd": ["nctd", "--class", "{c400}"],
    "recover": ["tournament", "recover", "--class", "{shuffled46}", "--find-teacher"],
    "hmax": ["johnson", "hmax", "--n", "9", "--k", "4", "--t", "3"],
    "tdmin": ["experiment", "tdmin", "--n", "128", "--trials", "1000", "--seed", "1",
              "--jobs", "2"],
    # generating the one 16,000-player tournament alone takes seconds
    "tdmin-gen": ["experiment", "tdmin", "--n", "16000", "--trials", "1", "--seed", "0"],
    "tau": ["experiment", "tau", "--n", "128", "--trials", "100000", "--seed", "1", "--k", "3"],
    "maxclass": ["search", "maxclass", "--n", "6", "--d", "3"],
    "claim": ["experiment", "claim", "--scan-max", str(2 ** 1000)],
}


@pytest.mark.parametrize("name", sorted(SLOW_SEARCHES))
def test_every_search_stops_at_its_timeout(name, tmp_path, capsys):
    budget_s, slack = 0.5, 1.0
    # 400 seeded concepts over [40], and 800 for rtd, which finishes the 400
    # too soon after the budget; 40 over [10], whose rtd is instant and whose
    # oracle walks 2^40 subclasses; the class2 of a 46-vertex tournament in a
    # shuffled order, on which the order-1 greedy fails
    c400, c800, c40 = tmp_path / "c400.cls", tmp_path / "c800.cls", tmp_path / "c40.cls"
    for path, m, n in ((c400, 400, 40), (c800, 800, 40), (c40, 40, 10)):
        path.write_text(serialize_class(ConceptClass.from_masks(
            random.Random(n).sample(range(1 << n), m), n)), encoding="ascii")
    masks = list(class2(random_tournament(46, 0)).masks)
    random.Random(0).shuffle(masks)
    shuffled46 = tmp_path / "shuffled46.cls"
    shuffled46.write_text(serialize_class(ConceptClass.from_masks(masks, 46)), encoding="ascii")
    argv = [arg.format(c400=c400, c800=c800, c40=c40, shuffled46=shuffled46)
            for arg in SLOW_SEARCHES[name]]
    start = time.monotonic()
    assert main(argv + ["--timeout", str(budget_s)]) == EXIT_BUDGET
    assert budget_s <= time.monotonic() - start < budget_s + slack
    out, err = capsys.readouterr()
    # johnson hmax reports its bounds instead of an error
    assert "hit its deadline" in out or "search timed out" in out or (
        name == "hmax" and out.startswith("inconclusive: "))
    if name == "rtd-oracle":
        assert "hitting-set search hit its deadline" in out
    assert "Traceback" not in out + err


def test_import_does_not_load_multiprocessing():
    # a process pool is only needed for experiment tdmin --jobs > 1
    probe = ("import sys, teachlab, teachlab.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
             " if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert r.stdout.strip() == "[]"


def test_handlers_load_on_the_first_command():
    # importing the front end alone compiles no parser or handler
    probe = ("import sys, teachlab.cli; loaded = 'teachlab.commands' in sys.modules; "
             "teachlab.cli.dispatch(['bounds', '--n', '4', '--d', '2']); "
             "print(loaded, 'teachlab.commands' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert r.stdout.split() == ["False", "True"]


def test_console_entry_point_runs():
    r = subprocess.run(
        [sys.executable, "-m", "teachlab.cli", "bounds", "--n", "4", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert "ksz" in r.stdout
