"""Command-line interface: subcommands, formats, exit codes."""

import json

import pytest

from wzmahler.cli import main
from wzmahler.registry import registry_entries


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "lalin-m1-m16" in out and "exact-symbolic" in out


def test_verify_pass(capsys):
    assert main(["verify", "log2-f3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "log2-f3" in out


def test_verify_unknown(capsys):
    assert main(["verify", "no-such-id"]) == 2


def test_verify_json(capsys):
    assert main(["--format", "json", "verify", "wz-pair-1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "wzmahler-report/1"
    assert data["reports"][0]["id"] == "wz-pair-1"
    assert data["reports"][0]["status"] == "PASS"


def test_verify_tol_override_fails(capsys):
    assert main(["--tol", "1e-60", "verify", "log2-f3"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_all_tol_override_fails(capsys, jobs):
    before = {rec.id: rec.tol for rec in registry_entries()}
    argv = ["--tol", "1e-200", "--format", "json", "all", "--jobs", jobs]
    assert main(argv) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    # 1e-200 lies below 2^-288, which 256 bits cannot resolve: every numeric
    # entry is unresolved, none errs, and the exact ones still pass
    assert len(reports) == len(before)
    for rep in reports:
        expected = ("PASS",) if before[rep["id"]] is None \
            else ("UNRESOLVED", "CONJECTURAL-UNRESOLVED")
        assert rep["status"] in expected, rep
    assert {rec.id: rec.tol for rec in registry_entries()} == before


def test_tol_changes_statuses_only(capsys):
    # --tol is the acceptance tolerance alone: the values, differences,
    # term counts and notes follow --bits
    runs = []
    for argv in ([], ["--tol", "1e-45"]):
        main(argv + ["--format", "json", "all"])
        runs.append(json.loads(capsys.readouterr().out)["reports"])
    default, tight = runs
    assert len(default) == len(tight)
    assert any(a["status"] != b["status"] for a, b in zip(default, tight))
    for a, b in zip(default, tight):
        for key in ("status", "elapsed_ms"):
            del a[key], b[key]
        assert a == b


def test_text_status_column_fits_the_longest_status(capsys):
    # at 64 bits zeta3-f2's 1e-30 claim is CONJECTURAL-UNRESOLVED; the ids
    # still start in one column
    assert main(["--bits", "64", "--quiet", "all", "--filter", "zeta3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == \
        ["PASS", "CONJECTURAL-UNRESOLVED", "PASS"]
    assert len({line.index("zeta3-f") for line in lines}) == 1


@pytest.mark.parametrize("argv", [["verify", "bertin-series"],
                                  ["all", "--filter", "bertin-series"],
                                  ["verify", "zeta3-f2"],
                                  ["all", "--filter", "zeta3-f2"]])
def test_exempt_and_conjectural_failures_exit_zero(capsys, argv):
    # bertin-series is exit-exempt and zeta3-f2 conjectural: at 1e-60 both
    # fail, and neither changes the exit code
    assert main(["--tol", "1e-60", "--format", "json"] + argv) == 0
    [report] = json.loads(capsys.readouterr().out)["reports"]
    assert report["status"].endswith("FAIL")


def test_all_filtered(capsys):
    assert main(["--quiet", "all", "--filter", "torsion"]) == 0
    out = capsys.readouterr().out
    assert "torsion-orders" in out


def test_flags_after_subcommand(capsys):
    assert main(["all", "--filter", "torsion", "--quiet"]) == 0
    assert main(["verify", "log2-f3", "--bits", "192"]) == 0


def test_usage_error():
    assert main(["bogus-command"]) == 2


@pytest.mark.parametrize("argv", [["--tol", "abc", "all"],
                                  ["--tol", "-1", "all"],
                                  ["--tol", "inf", "all"],
                                  ["--bits", "32", "all"],
                                  ["--max-terms", "0", "all"],
                                  ["all", "--jobs", "0"],
                                  ["all", "--jobs", "-3"],
                                  ["verify", "log2-f3", "--jobs", "7"],
                                  ["--bits", "32", "--tol", "abc", "list"],
                                  ["--bits", "256", "list"],
                                  ["list", "--tol", "1e-10"],
                                  ["--max-terms", "100", "list"],
                                  ["list", "--format", "json"],
                                  ["--quiet", "list"],
                                  ["list", "--quiet"],
                                  ["--tol", "1e-5", "verify", "wz-pair-1"],
                                  ["verify", "torsion-orders", "--tol", "1e-5"],
                                  ["--tol", "1e-5", "all"],
                                  ["--quiet", "--format", "json", "all"],
                                  ["verify", "wz-pair-1", "--format", "json",
                                   "--quiet"]])
def test_bad_flag_values_are_usage_errors(capsys, argv):
    # a value the run cannot honour is refused with one line on stderr
    # and exit code 2, before any check runs: --tol under 'all' where every
    # matched entry is exact, and --quiet, which only the text output has,
    # with --format json
    assert main(argv + (["--filter", "torsion"] if "all" in argv else [])) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("wzmahler: error:")


def test_all_filter_matching_nothing_is_a_usage_error(capsys):
    # a run that checked nothing must not report success
    assert main(["all", "--filter", "no-such-entry"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "no-such-entry" in err


def test_tol_under_all_skips_exact_entries(capsys):
    # under 'all', --tol applies to the numeric entries and leaves the
    # exact ones alone: "rs" matches rs-param and torsion-orders
    assert main(["--tol", "1e-5", "--format", "json", "all", "--filter", "rs"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [(r["id"], r["status"]) for r in reports] == \
        [("rs-param", "PASS"), ("torsion-orders", "PASS")]


def test_bits_help_does_not_claim_inner_tolerances_follow_it(capsys):
    # the m(alpha), n(alpha) and hypergeometric sides keep fixed inner
    # tolerances whatever --bits is
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "inner tolerances follow" not in text
    assert "series sides keep their fixed inner tolerances" in text
