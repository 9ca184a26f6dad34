import json
import sys

import pytest

from klwb import charpoints, cli
from klwb.cli import RunConfig, ConfigError, main
from klwb.coxeter import UnsupportedType, build_weyl
from klwb.k0model import KModule


def run(capsys, *args):
    rc = main(list(args))
    return rc, capsys.readouterr()


def test_exit_zero_on_pass(capsys):
    rc, out = run(capsys, "verify", "cubic", "--type", "A2", "--den", "2")
    assert rc == 0
    assert "0 fail" in out.out


def test_exit_one_on_assertion_failure(capsys):
    rc, out = run(
        capsys, "verify", "polyconj", "--type", "A1", "--den", "2", "--m", "paper"
    )
    assert rc == 1
    assert "witness" in out.out
    assert "Phi_s^2 does not fix a0" in out.out


def test_exit_two_on_config_errors(capsys):
    assert run(capsys, "specialize", "1")[0] == 2
    assert run(capsys, "verify", "braid", "--type", "Q7")[0] == 2
    assert run(capsys, "verify", "braid", "--den", "0")[0] == 2
    assert run(capsys, "verify", "braid", "--m", "fast")[0] == 2
    assert run(capsys, "verify", "braid", "--threads", "0")[0] == 2


def test_huge_den_fails_before_enumeration(capsys, monkeypatch):
    def enumerate_points(W, N):
        raise AssertionError("point enumeration started")

    monkeypatch.setattr(charpoints, "_points_with_denominator", enumerate_points)
    rc, out = run(capsys, "verify", "braid", "--type", "A3", "--den", "1000")
    assert rc == 2
    assert out.out == ""
    assert out.err.count("\n") == 1 and "den 1000" in out.err


def test_point_budget_admits_every_type_at_the_default_den():
    accepted = []
    for family in "ABCDEFG":
        for n in range(1, 9):
            try:
                build_weyl("%s%d" % (family, n))
            except UnsupportedType:
                continue
            accepted.append("%s%d" % (family, n))
            RunConfig(cartan_type=accepted[-1]).validate()
    assert "A5" in accepted and "F4" in accepted
    # the largest dens the tests and README pass in ranks one to three
    RunConfig(cartan_type="A1", orbit_denominator_bound=8).validate()
    RunConfig(cartan_type="A2", orbit_denominator_bound=8).validate()
    RunConfig(cartan_type="A3", orbit_denominator_bound=8).validate()
    with pytest.raises(ConfigError):
        RunConfig(cartan_type="A5", orbit_denominator_bound=7).validate()


def test_internal_error_is_exit_three(capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("solver\nexploded")

    monkeypatch.setitem(cli.SUITES, "braid", broken)
    rc, out = run(capsys, "verify", "braid", "--type", "A1")
    assert rc == 3
    assert out.out == ""
    assert out.err == "internal error: RuntimeError: solver exploded\n"


def test_usage_error_is_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuchsuite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_json_schema_and_minpoly_finding(capsys):
    rc, out = run(capsys, "verify", "minpoly", "--type", "A1", "--json")
    assert rc == 0
    doc = json.loads(out.out)
    assert set(doc) == {"command", "config", "results"}
    assert doc["command"] == "verify minpoly"
    assert set(doc["config"]) == {
        "cartan_type",
        "orbit_denominator_bound",
        "exponent_bound_m",
        "seed",
    }
    for r in doc["results"]:
        assert r["status"] in ("pass", "finding", "fail")
        assert set(r) >= {"check", "status", "detail"}
    # the rank-one minimal polynomial escapes the narrow exponent range
    byname = {r["check"]: r for r in doc["results"]}
    assert byname["minpoly"]["status"] == "pass"
    assert byname["minpoly_range"]["status"] == "finding"


def test_minpoly_configured_integer_range(capsys):
    rc, out = run(capsys, "verify", "minpoly", "--type", "A1", "--m", "2", "--json")
    assert rc == 0
    doc = json.loads(out.out)
    ranges = [r for r in doc["results"] if r["check"] == "minpoly_range"]
    assert ranges[-1]["status"] == "pass"
    assert "i <= 2" in ranges[-1]["detail"]


def test_text_report_shape(capsys):
    rc, out = run(capsys, "verify", "cells", "--type", "A1")
    assert rc == 0
    lines = out.out.strip().splitlines()
    assert lines[0].startswith("# verify cells")
    assert any(l.startswith("[pass] cells:") for l in lines)
    assert lines[-1].endswith("0 fail")


def test_cells_range_finding(capsys):
    rc, out = run(capsys, "verify", "cells", "--type", "A1", "--json")
    doc = json.loads(out.out)
    rng = [r for r in doc["results"] if r["check"] == "cells_range"][0]
    assert rng["status"] == "finding"
    assert "[0, 4]" in rng["detail"] and "[0, 2]" in rng["detail"]


def test_tilting_convention(capsys):
    rc, out = run(capsys, "verify", "tilting", "--type", "A1", "--json")
    assert rc == 0
    doc = json.loads(out.out)
    byname = {r["check"]: r for r in doc["results"]}
    assert byname["tilting"]["status"] == "pass"
    assert "-v^2 weights" in byname["tilting"]["detail"]
    assert "1 - v^2" in byname["tilting"]["detail"]
    assert byname["tilting_literal"]["status"] == "finding"


def test_w0_suite_counts_blocks(capsys):
    rc, out = run(capsys, "verify", "w0", "--type", "A1", "--json")
    assert rc == 0
    doc = json.loads(out.out)
    rows = [r for r in doc["results"] if r["check"] == "w0_identity"]
    # one block per character point with denominator <= 6
    assert len(rows) == 12
    assert all(r["status"] == "pass" for r in rows)


def test_canonical_and_gluing_counts(capsys):
    rc, out = run(capsys, "verify", "canonical", "--type", "A1", "--den", "2", "--json")
    assert rc == 0
    assert len(json.loads(out.out)["results"]) == 5
    rc, out = run(capsys, "verify", "gluing", "--type", "A1", "--den", "2", "--json")
    assert rc == 0
    assert len(json.loads(out.out)["results"]) == 5


def test_chevalley_findings(capsys):
    rc, out = run(capsys, "verify", "chevalley", "--type", "A2", "--den", "3", "--json")
    assert rc == 0
    doc = json.loads(out.out)
    assert all(
        r["status"] == "pass" for r in doc["results"] if r["check"] == "chevalley"
    )
    # the alternating-sign convention leaves a remainder somewhere in A2
    assert any(r["check"] == "chevalley_sign" for r in doc["results"])


def test_determinism_across_thread_counts(capsys):
    outs = []
    for t in ("1", "2", "8"):
        rc, out = run(
            capsys,
            "verify",
            "gluing",
            "--type",
            "A1",
            "--den",
            "3",
            "--seed",
            "7",
            "--json",
            "--threads",
            t,
        )
        assert rc == 0
        outs.append(out.out)
    assert outs[0] == outs[1] == outs[2]


def test_env_thread_fallback(capsys, monkeypatch):
    rc, base = run(capsys, "verify", "cubic", "--type", "A2", "--den", "2", "--json")
    monkeypatch.setenv("KLWB_THREADS", "4")
    rc2, enved = run(capsys, "verify", "cubic", "--type", "A2", "--den", "2", "--json")
    assert rc == rc2 == 0
    assert base.out == enved.out


def test_bad_env_thread_count_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("KLWB_THREADS", "two")
    rc, out = run(capsys, "verify", "braid", "--type", "A1")
    assert rc == 2
    assert out.out == ""
    assert out.err == "error: KLWB_THREADS must be an integer, got 'two'\n"


def test_gluing_builds_each_solver_once_across_threads(capsys, monkeypatch):
    builds = []
    orig = KModule._build_solver

    def counted(self, oi, s):
        builds.append((oi, s))
        return orig(self, oi, s)

    monkeypatch.setattr(KModule, "_build_solver", counted)
    per_threads = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a race shows
    try:
        for threads in ("1", "2", "4"):
            builds.clear()
            rc, _ = run(
                capsys, "verify", "gluing", "--type", "A2", "--den", "3",
                "--seed", "5", "--threads", threads,
            )
            assert rc == 0
            per_threads[threads] = sorted(builds)
    finally:
        sys.setswitchinterval(interval)
    assert per_threads["1"] == per_threads["2"] == per_threads["4"]
    assert len(set(builds)) == len(builds) > 0


def test_specialize_values(capsys):
    rc, out = run(capsys, "specialize", "4", "--type", "A1", "--m", "paper")
    assert rc == 0
    assert "p(sqrt(q)) = -3 (nonzero)" in out.out
    rc, out = run(capsys, "specialize", "2", "--type", "A1")
    assert rc == 0
    assert "m=2 q=2: p(sqrt(q)) = 3 (nonzero)" in out.out
    rc, out = run(capsys, "specialize", "3", "--type", "A2", "--json")
    assert rc == 0
    assert json.loads(out.out)["results"][0]["status"] == "pass"


def test_dump_cells_word_arrays(capsys):
    rc, out = run(capsys, "dump", "cells", "--type", "A2", "--json")
    assert rc == 0
    details = [r["detail"] for r in json.loads(out.out)["results"]]
    assert len(details) == 3
    assert '["e"]' in details[0]
    assert '["1", "2", "12", "21"]' in details[1]
    assert '["121"]' in details[2]


def test_dump_fulltwist_scalars(capsys):
    rc, out = run(capsys, "dump", "fulltwist_scalars", "--type", "A1")
    assert rc == 0
    assert "cell 0 size 1: std=v^2 ly=v^0 d=0" in out.out
    assert "cell 1 size 1: std=v^-2 ly=v^4 d=4" in out.out


def test_dump_qpoly_includes_origin_row(capsys):
    rc, out = run(capsys, "dump", "qpoly", "--type", "A2", "--den", "6")
    assert rc == 0
    assert "lambda=0,0" in out.out
    assert "q[+v^2]=" in out.out and "q[-v^2]=" in out.out


def test_dump_orbit_table(capsys):
    rc, out = run(capsys, "dump", "orbit_table", "--type", "A1", "--den", "2", "--json")
    assert rc == 0
    details = [r["detail"] for r in json.loads(out.out)["results"]]
    assert len(details) == 2
    assert any("lambda=0 " in d and "stabilizer=A1" in d for d in details)
    assert any("lambda=1/2" in d and "stabilizer=1" in d for d in details)


def test_runconfig_validation():
    cfg = RunConfig(cartan_type="B2", orbit_denominator_bound=2)
    cfg.validate()
    with pytest.raises(ConfigError):
        RunConfig(cartan_type="B2", orbit_denominator_bound=-1).validate()
    with pytest.raises(ConfigError):
        RunConfig(exponent_bound_m=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(cartan_type="E9").validate()
