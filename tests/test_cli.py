import hashlib
import json
import sys
import time

import pytest

from klwb import charpoints, cli, klalgebra
from klwb.cli import RunConfig, ConfigError, main
from klwb.coxeter import UnsupportedType, WeylGroup, build_weyl
from klwb.k0model import IdentityFailure, KModule, OrbitModule
from klwb.linalg import sparse_operator
from klwb.rings import LaurentPoly


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


@pytest.mark.parametrize(
    "argv",
    [
        "specialize 2 --type A1 --m 200",
        "specialize 2 --type A1 --m 2000",
        "specialize 10000 --type F4",
        "verify minpoly --type A1 --m 200",
    ],
)
def test_oversized_m_or_value_fails_fast(capsys, argv):
    # m above 2 l(w0), or a p(sqrt(q)) too long to print, is a config error
    start = time.perf_counter()
    rc, out = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ")


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


def test_minpoly_past_the_degree_bound_is_a_failure(capsys, monkeypatch):
    # a wrong full twist, here the nilpotent shift on every block, has a
    # minimal polynomial x^4 on A1's 4-dim blocks, past x-degree 2 l(w0) + 1
    def shift(cols, dim):
        return sparse_operator([[(j + 1, LaurentPoly.one())] if j + 1 < dim else [] for j in range(dim)], dim)

    monkeypatch.setattr(klalgebra, "sparse_operator", shift)
    rc, out = run(capsys, "verify", "minpoly", "--type", "A1", "--json")
    assert rc == 1 and out.err == ""
    (entry,) = json.loads(out.out)["results"]
    assert entry["check"] == "minpoly" and entry["status"] == "fail"
    assert entry["detail"] == "minimal polynomial passes x-degree 3; it cannot divide prod(x - v^2i, i <= 2)"


def test_block_minpoly_past_the_degree_bound_is_a_failure(capsys, monkeypatch):
    # the nilpotent shift in place of every block's full twist: its minimal
    # polynomial x^dim passes x-degree 2 l(w0) + 1 on A2/2's 18-dim block and
    # on A1's 4-dim blocks, so the block's Krylov runs stop there
    def shift(self):
        return [[(j + 1, LaurentPoly.one())] if j + 1 < self.dim else [] for j in range(self.dim)]

    monkeypatch.setattr(OrbitModule, "_build_twist", shift)
    (blk,) = [b for b in KModule.for_type("A2", 2).blocks if b.dim == 18]
    start = time.perf_counter()
    with pytest.raises(IdentityFailure, match="the minimal polynomial of F passes x-degree 7"):
        blk.minpoly
    assert time.perf_counter() - start < 5
    rc, out = run(capsys, "verify", "polyconj", "--type", "A1", "--json")
    assert rc == 1 and out.err == ""
    results = json.loads(out.out)["results"]
    assert [r["status"] for r in results] == ["fail"] * cli.N_POLYCONJ
    assert all(r["witness"] == "the minimal polynomial of F passes x-degree 3" for r in results)


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
    orig = OrbitModule._build_pairs

    def counted(self, s):
        builds.append((self.alg.orbit.representative.render(), s))
        return orig(self, s)

    monkeypatch.setattr(OrbitModule, "_build_pairs", counted)
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


def test_one_process_builds_each_group_once(capsys, monkeypatch):
    cli._weyl.cache_clear()
    inits, pairs = [], []
    orig_init, orig_pairs = WeylGroup.__init__, OrbitModule._build_pairs

    def counted_init(self, *args, **kwargs):
        inits.append(1)
        orig_init(self, *args, **kwargs)

    def counted_pairs(self, s):
        pairs.append(s)
        return orig_pairs(self, s)

    monkeypatch.setattr(WeylGroup, "__init__", counted_init)
    monkeypatch.setattr(OrbitModule, "_build_pairs", counted_pairs)
    gluing = []
    for argv in (("verify", "braid"), ("verify", "cells"), ("dump", "cells"), ("dump", "qpoly"),
                 ("verify", "gluing"), ("verify", "gluing")):
        pairs.clear()
        assert run(capsys, *argv, "--type", "A2")[0] == 0
        if argv[1] == "gluing":
            gluing.append(sorted(pairs))
    assert len(inits) == 1
    assert cli._weyl.cache_info().misses == 1
    # the modules, and their solver caches, are still built per command
    assert gluing[0] == gluing[1] != []
    # a failed build is not kept: an unsupported type exits 2 every time
    for _ in range(2):
        assert run(capsys, "verify", "braid", "--type", "Q7")[0] == 2
    assert cli._weyl.cache_info().currsize == 1
    # the memo keeps the last type only, so A2's group is built again
    misses = cli._weyl.cache_info().misses
    for t in ("B2", "A2"):
        assert run(capsys, "verify", "braid", "--type", t)[0] == 0
    assert cli._weyl.cache_info().misses == misses + 2


# the A2 and B2 commands of a perfbench cli round at the default seed: every
# verify suite but polyconj, every dump table and specialize 3
ROUND = [
    (kind, what, "--type", t) + fmt
    for t in ("A2", "B2")
    for kind, names in (
        ("verify", [s for s in cli.VERIFY_SUITES if s != "polyconj"]),
        ("dump", cli.DUMP_TABLES),
        ("specialize", ["3"]),
    )
    for what in names
    for fmt in ((), ("--json",))
]


def test_reports_do_not_depend_on_command_order(capsys):
    fresh = {}
    for argv in ROUND:
        cli._weyl.cache_clear()
        fresh[argv] = run(capsys, *argv)
    cli._weyl.cache_clear()
    for argv in ROUND + ROUND[::-1]:
        assert run(capsys, *argv) == fresh[argv], argv


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


# sha256 of "<exit code>\n" + stdout for every verify suite and dump table on
# A1 and A2 at the default den, text and --json, and for the orbit, qpoly,
# chevalley and cell reports on B2, G2 and A3.  A refactor that must keep
# the report bytes re-runs this; a change that alters output on purpose
# re-pins the affected entries and says why.
PINNED_OUTPUT_SHA256 = {
    "verify braid --type A1": "68a404702e13b937bb0809a50a5a6c543379565f08d1c6004b1532f76140cbef",
    "verify braid --type A1 --json": "8182307b760760be42257a02c52e2cb8ff420557f1b0bc300acf5cae7b626dda",
    "verify cubic --type A1": "55f0800c1fdb9948425ef6da0c5dc1d92f562dcf6420fc90c689c593abcf6a00",
    "verify cubic --type A1 --json": "d4522ec25190e5d946f4833b399ef32ee7076595516a316f61350e19042ee612",
    "verify w0 --type A1": "aab911630ea61de84ea7613035850f4f54de62b556ecf09e37ef6bb052d29097",
    "verify w0 --type A1 --json": "5ecf7b9a3b22676afcb163b5aeb8f7f0d2bf2ec1e7792a7d7bb156e28265d34d",
    "verify minpoly --type A1": "e0e9e9612db277e1a2062535e171cfc505298958ab227cd764e32f62b4013f99",
    "verify minpoly --type A1 --json": "c421c14e39901c1ad6fafd097e321b32ea847c0d7613420ee916e00876a9b019",
    "verify canonical --type A1": "deeaf2ad7c1de997b4d7c90e8f062f3955e90e856aadb17f698e8eae7d0945b4",
    "verify canonical --type A1 --json": "57cd944efcf80e946c524a4bf40e80eb1e6600dd958a0ef2738acc9f4286c4e6",
    "verify gluing --type A1": "dc4ed644157248848e50367dca5c406149b1c2f66a8312742858f95be2af1e56",
    "verify gluing --type A1 --json": "c822dfa9601a2bddc45bc98ae61a1df1c6f8ef00da51c035b439ac76e4a50825",
    "verify polyconj --type A1": "3e81a288068461e4a8a99c5359261e86e0b4a60ddcb0b695bb78c46ecafe3af6",
    "verify polyconj --type A1 --json": "356d0df67fd1ad5e76b0ef13f90b35d7d3f374a21b4eb5a47501d9c7556b8913",
    "verify tilting --type A1": "aab857df324e28ba254223b695b19fdd9951c0568a017c1c18e53c779fb4c4bb",
    "verify tilting --type A1 --json": "70365e55c9b0d41af7931040bff6d61c07344e3ccbc319d12182e498dcf262b4",
    "verify chevalley --type A1": "8e63a8633ad7f105397875385777b59f241549c596af50f83aab41d57c9eef64",
    "verify chevalley --type A1 --json": "047145999a118401a2293ff4fe7086f11c6369d32db9c2cec541685c7b519cc4",
    "verify cells --type A1": "66b8fe48279204e9ac7eb4bbcd3d8a79ff28a028eb46c20969f8fea92cb04bfa",
    "verify cells --type A1 --json": "533b26bdd0627c03326696818b1d3498aa414011163bcfbd74c790a5b63c80eb",
    "dump cells --type A1": "dadc2f3c20b8ae7df193612cf717719733a6c26601fd0a4f24653fc1212e48dd",
    "dump cells --type A1 --json": "e03dd72c186f8604363ecad3b1f056300b45884c5745939f41e6b7ed0d8842af",
    "dump fulltwist_scalars --type A1": "1e91a223c7313ae44b53237f368359aa81b7d72089a8c3a90c3177c5fe5a0ac1",
    "dump fulltwist_scalars --type A1 --json": "d747d5a74d9680f35987ffd6ae2624ca4f05a7ea8732527df16cf7c6267dbfd7",
    "dump qpoly --type A1": "c4de2abbb70d7880703e94bfc3e853e58f1e50919a5a8893627c242cf0eccd3c",
    "dump qpoly --type A1 --json": "e8e0267bed00bb916e31d1f45c330e79fa80dae65aa9f9ef9101ef7926b23ad5",
    "dump orbit_table --type A1": "4e55de52c93e8f86c447a31198d5332b04e8119d7d27ef75237785dca7ffaf3a",
    "dump orbit_table --type A1 --json": "aaab964dd380d0b0a518ad4bfe94f909e3176685962594eb73e8036e913fc655",
    "verify braid --type A2": "fbe0728e00d4bc1b4055e01e3ffaf0b7c4a3fa5c03d687aff0e426e8a75694eb",
    "verify braid --type A2 --json": "3fde24ec560e30e1cddcb0a53b3042206c6c380271cf856281f241fce731809b",
    "verify cubic --type A2": "08ceac8750398aacc3fbce482d2ec9b7e9f47227a1da80b70f0ef656aa8cc970",
    "verify cubic --type A2 --json": "7edbed6826a421a8a69651b9655c4b504570fb56107a90a755eb0255651c4ef5",
    "verify w0 --type A2": "7cc0a68f0cec34e10001f32e9d22382e5451debd4fca68be741998bf4d342164",
    "verify w0 --type A2 --json": "b4b30fe29df73a2b691a6ff11c043e271e2cfebeda1401181dccb97b26fd12b0",
    "verify minpoly --type A2": "c861f0e1fe2c64957cb6b3834789af39828480d0f4455ca0cbd6491d2d4820ed",
    "verify minpoly --type A2 --json": "68dfbef0e007b080bbe9f9eb63b445a4ded00c834fbf9e902a36ede8528fa729",
    "verify canonical --type A2": "1b90138210650bb000bfed2f1f386ff8fc1c4c0887501d77f9e04dd934d988a7",
    "verify canonical --type A2 --json": "1671cd81fd8dd5791b8b392c79a33c0e5c5b1a55e4cee591edc254c077049cd7",
    "verify gluing --type A2": "265b8e8977d63d923bae39de1531e42f603d80c7c63ccf37c91dae2a761602ea",
    "verify gluing --type A2 --json": "f318f215498b4ddf4277618cb01ad98e5d1a04d1fbdbf8cb5c8cf91385a9c3a3",
    "verify polyconj --type A2": "17983271d38211e3c70f68daa7283990c5dd7b29e33c0928129424c6c4d80dd3",
    "verify polyconj --type A2 --json": "fe53a38953c71064edd9025eb34c1f48d8b8392e3090dabba02abed64e7490dc",
    "verify tilting --type A2": "dca5b570060c1d1d491ea4ec1863a680dc267b1f41bba17f4d7b798fe35d7930",
    "verify tilting --type A2 --json": "0713eb17f38b499db46146bbf773424df94e5cb1bf745edbd6a7ecb804256822",
    "verify chevalley --type A2": "3a908ddf38827413de4e9d2b073188077fb9dc41decef10beb7d1b78635498df",
    "verify chevalley --type A2 --json": "f93161fbff1e9aaf0a41cfdf819a1398207f9d043db2214747166972a106ef3f",
    "verify cells --type A2": "8d8ff3f57342c9c0d2878a3a1a60e799f6a6469b8d9d13a3b6d4ee60249ee06a",
    "verify cells --type A2 --json": "cfa193d0cac586615a82d091b247a57ffba8bd903a709226b632ffa47c325b46",
    "dump cells --type A2": "7de07a2ad14d315436b49bccf32cbd84503edb5786a1575507449c6ef35151e8",
    "dump cells --type A2 --json": "78f13e7d95ca283b0a7cd2ce371f5a277a3fbb32b287e686829a91a2dbacfdcd",
    "dump fulltwist_scalars --type A2": "c6c6d5a7162e95d45b77474872344e5cb0c01ef88550bfa4cf566c4bb7d222d4",
    "dump fulltwist_scalars --type A2 --json": "d8cd61ccc2bd408a353ff5f988ce4921dece549bb6a4874fc64d07c116f99a16",
    "dump qpoly --type A2": "1c503094866af007d10dde29142dc19e9625044021ce94e23a9761ca897ccfc3",
    "dump qpoly --type A2 --json": "89298f62c08f50a49677f1573aa9e71d8a52981ca85679832e354e072f23bdb9",
    "dump orbit_table --type A2": "57f42a33ead8321390f6bf5e59629285aa97c694ca0aa9be33c0319624be716b",
    "dump orbit_table --type A2 --json": "a0ce0f19da9e9cb0abd24685219433c178780021d91ff8b75d1378426be0d63f",
    "dump orbit_table --type B2": "4e3b9542cbab1bb61dffb31d3dfdda0bed9cff3150aa156508b20efd78667428",
    "dump orbit_table --type B2 --json": "c221cc4c37772823ec327bb69944f4838cefb92abfbbb6f72bc115ae9c0bfb7d",
    "dump qpoly --type B2": "21f01bedc2ec2f11ccee8eb735fdbeba7e31f39388095e1a2bb10fa93078f642",
    "dump qpoly --type B2 --json": "a9b523301328ebd54594ef665fd48574784ff3a2e0073f6a277da41a2b3da64c",
    "verify chevalley --type B2": "cf62614aaf6233544a99efd4a911e76d63065e1e65de78b942c31d2459bb9336",
    "verify chevalley --type B2 --json": "8dcd9cd6d649ecc10289b9a0fb7e9a620ab0fe4f4e84b3b430664e3ec14a8dd9",
    "verify cells --type B2": "1a8c82cca9175c5cdee0d1061c47d51b7b5e1ae7cf6c114c3644f8c6076f1450",
    "verify cells --type B2 --json": "5965fbe0b78bd793b416da668d83379c97b59df4be88fb46aadd1b55644cf891",
    "dump fulltwist_scalars --type B2": "071f5833ce1955bb069dd048bc8d88886526652c3a2a24be95e225615e7c2288",
    "dump fulltwist_scalars --type B2 --json": "6763a567dc9519e61635c785494057a72e0f1422b1e0c75d7ea1c74e5c9dbd98",
    "dump orbit_table --type G2": "2c322a9170df0c0a83e43aa057a1180cae7870da9a80b873e7da0acaa86bed22",
    "dump orbit_table --type G2 --json": "2b92b803087744314eef7b20cee12f51691a33aafa6a0b6173483b2e3733fc13",
    "dump qpoly --type G2": "cf5bfd919024fc37320616fb0427f78914260a9207f91a46e73f3d330f065eb8",
    "dump qpoly --type G2 --json": "1f19f37c05332e871e279a8e038c3137a282a0e92b5a1de08fcd0d68368c6ce4",
    "verify chevalley --type G2": "f3e4900a5d91aef3fbdcb03e277f0185f9b25f944a063c97646c1d8ba22d501a",
    "verify chevalley --type G2 --json": "43bcc94d40f853e26ae3c9847c63651860f33dc4b866a56f1b656f43dcc104db",
    "verify cells --type G2": "d706acc93de94bde74c769a3f2556037f487270d01390bbf8dd98cc3fa152e4e",
    "verify cells --type G2 --json": "86d9cfff79848f8a2a7f78495485f4f3fbdfaeeb7eeb28889756396a65e3b423",
    "dump fulltwist_scalars --type G2": "414317b6d4d8149550be5998a5cf0ccb52b9f7d9c6e468a2b0812af75534a1df",
    "dump fulltwist_scalars --type G2 --json": "f8f7e02ba23f828fe581df39690cb06802d1ce449f1d10abd2dcd1b5253613ad",
    "dump orbit_table --type A3": "8c811fcf30d8e92b5f140f4659830419f081eb7f7f249281aab5b939105dd229",
    "dump orbit_table --type A3 --json": "3641536f4177fc6f12010ec762a8be942b3847d885528dbb56774f3d4a4e986c",
    "dump qpoly --type A3": "f05015260ab30c2d8493df80ebaa954286a97a2e174e0e92b0465cf5ba98b2ac",
    "dump qpoly --type A3 --json": "e375e81a6bdfb4b020d71194f451543b3534c284bf7c6c0b62c4ccd1b21a36eb",
    "verify chevalley --type A3": "0cb209f201e7cdb4f76f2ea91cd52baf388e2ede1bd728b7c894e4b6e28613ac",
    "verify chevalley --type A3 --json": "f694cb24b56ea045b453dfa0ad29d6ca3f33d4e22db3b8541054445f76486143",
    "verify cells --type A3": "51fa5912a308030438b721e24f570a208b5b0749f068953fbb9bb282fa569079",
    "verify cells --type A3 --json": "9ba40112cf16f3cbd4f5ffc0a0d35dcdccdb1ee8ceb3e9f754c2c352be4746d4",
    "dump fulltwist_scalars --type A3": "ade99b57b273967aa469967990f4261ac70bae750284f1d92b78b9b98d66701f",
    "dump fulltwist_scalars --type A3 --json": "cf4d9f5c1ea6c3dabcbcbfdf9805215bbaf045f0d1d95d77c29c10ed7a4ef282",
    "dump cells --type B2": "2b06513f9b1213a762e5db6abf0bc90c1cbe1075c4afce0ffe60a0ba4bd2f00e",
    "dump cells --type B2 --json": "ee886e91a20ad7eff794c48471311eb36c26c405ec18a4a144a70d32f64e2855",
    "dump cells --type G2": "cc1ced7fe376034745fafca3217e032801fc268e0578331bc3e468a0737bc4e7",
    "dump cells --type G2 --json": "ced85cddc9dac598f0445e1a33a6e8ec92aec0d3d446359689ff41b984b58f7a",
    "dump cells --type A3": "bce8cdfeb87762d58551202d8dd659872e6ca54f2042f7579ca0e45b15f0dcfb",
    "dump cells --type A3 --json": "aff542aa3edeead947295b820f88c169df770e8227a098484fddf33b7c84cf0f",
    "dump cells --type B3": "0a43bbd5ef00b72541b81c3955a1ecf9ae603c607bd203df1d114b83e415bb4d",
    "dump cells --type B3 --json": "67a3883d28cbc838a18c9d864c3f220c5a120b39322352a29905a119a5b2e670",
    "verify gluing --type B2": "e4e7789c9af2792e82a66754e1ff9d3e6cd09eb09788daa1a91e79915f25d26b",
    "verify gluing --type B2 --json": "0c258b3a42efebc94970ab1d5b77f5f7f9732fdced37ff8cef1cdf923322282b",
    "verify minpoly --type B2": "60e9cf7cccb6793805715acf34f2c817a14f46a9f0629879168891f358c6e967",
    "verify minpoly --type B2 --json": "23abf7f21303f7c44927dd7f1b86e4525d37d820309fc4bf954f879c43ea5338",
    "verify gluing --type G2": "0ca29165abeea9cf66ad512e13dfa444834675ea5348da19c4551510a48d78e9",
    "verify gluing --type G2 --json": "5e4e35f0097289dec4468b2144e15f8388e09797837bf1a249ef6580c2957578",
    "verify minpoly --type G2": "d96610aa6eb49dc2950cba0c44835d7b90bc350ff501a165c1f504825543523a",
    "verify minpoly --type G2 --json": "c0d1ec537f23811e90b07ff5fad2455c19b4e17a8b789db394f3548d5cdf8514",
    "verify polyconj --type B2 --den 2": "7022953223ff9115a7d5fba9b09b3abda7e7f42dba138879006068f41fe4bb33",
    "verify polyconj --type B2 --den 2 --json": "eee85451ff2410356fefbaa5d62cbf3fce5e336779681f48cb90938b5c84a957",
    "verify polyconj --type G2 --den 2": "399b00cb1c146e75af5c6d77fabb5bde4c40848953e55f9508a98787ca6b7c93",
    "verify polyconj --type G2 --den 2 --json": "98cde835d98957a1065292531695d28d83addee3471d2e365d3e0fcccb99b8bb",
    "verify minpoly --type A3 --den 2": "0685204089ffd08d9ef5040d5145efc5aac919a15b1f4b37127bbf08edb1fa83",
    "verify minpoly --type A3 --den 2 --json": "b97bf56de0dc264df58a6c62720069ce247ee01e50ac6b7ced403d191587561d",
    "verify minpoly --type B2 --m 3": "f2003c8a41961008d2ae04c75a26f9e1908b2a8385cc0fb1d6015ee3b699c437",
    "verify minpoly --type B2 --m 3 --json": "3c00677bbddf30f7c85b8ba95b05adfe732f8382d24c9b2348fb840c93ced105",
    "verify braid --type B2": "3ca02d91956bedc00b0ae0445c68eb0a7f2ea596b995e98b444139820599f869",
    "verify braid --type B2 --json": "306614203367c549f44b0d5a91585b9c75f6992d9cfe7fb763c6b593f72cbab4",
    "verify braid --type G2": "d587e006bf4895511c4d06c4226a6ab2f3a8cd21268a166e26a3d4454608e29c",
    "verify braid --type G2 --json": "fc619777edb0e31b7c87e2eb15c9bdd56b288a9996503022af86868d194b1751",
    "verify braid --type A3": "376f76ce79d2c97f2e5e361be9bf349fd91d16d9d1cc2ecfe942109690035a28",
    "verify braid --type A3 --json": "ce3e0af37cf122c1c7f14c9624753aa9b1746a25e64a5a01c29da60919afbd9a",
    "verify cubic --type B2": "6ad1786d9429f4719bd474abd3ed015e163a0878af459af9f5937cd591f7675a",
    "verify cubic --type B2 --json": "dae38ae099353163a7f3ef84345a93d4246a3aff005c103242b08d9ae1749608",
    "verify cubic --type G2": "feda6bd9eaafe8fef5c3043e4e5df335ba49a0b17ae0ef55d33fb7ba1345d3dd",
    "verify cubic --type G2 --json": "8d4a8fadcfa27c42e8bc433a1615b5b323fc0fd318f6fc883daf70851bb97847",
    "verify cubic --type A3": "966338811cba4ea1aa350a89f992d41f61aab0ebeca01b501247d584712bff89",
    "verify cubic --type A3 --json": "1c2211a4b4933da9bfed936973d4adb373b36611e62766bda60607796b383570",
    "verify w0 --type B2": "1c9d0c397b05511e659afd8633be866a469efe6ee1e873e4f8841fecd1da62f4",
    "verify w0 --type B2 --json": "2aeb9e3d5867c3e4d83563e3f82e53e04901a3ff391a032093ce8a09ed032571",
    "verify w0 --type G2": "27db2b46087782af4dfa9b6a16c091746d724436d1820a6ad94a591459768bcb",
    "verify w0 --type G2 --json": "8401fff83e202e473fcd201d6c2b3797e5de80748ed306ca7aac1f02647c75a7",
    "verify w0 --type A3": "ff224884bc556e7a8a16a62cc4a82fe0060657cd2cb3f3ed6bad1b41ef0b1913",
    "verify w0 --type A3 --json": "7db687e2579a5c6d95d49ecd55ff02e0d5832d7690a6faaeb77e01a130139b35",
}


def test_default_outputs_pinned(capsys):
    got = {}
    for key in PINNED_OUTPUT_SHA256:
        rc, out = run(capsys, *key.split())
        got[key] = hashlib.sha256(("%d\n" % rc + out.out).encode()).hexdigest()
    assert got == PINNED_OUTPUT_SHA256
