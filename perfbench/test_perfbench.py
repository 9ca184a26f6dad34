"""Quick self-check of the benchmark harness on A1-sized inputs.

    PYTHONPATH=src python3 -m pytest perfbench -q

Every workload runs one round on small types and passes its checks; every
checker rejects a deliberately corrupted result; the traced run reports
every per-layer metric with counts that repeat exactly; BENCHMARK.json
names the metrics and workloads the harness reports; and the benchmark
refuses to run where the klwb sources are missing.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from klwb.k0model import KModule  # noqa: E402
from klwb.rings import LaurentPoly, Qv  # noqa: E402

SMALL = {
    "euler": lambda: workloads.Euler((("A1", 2), ("A2", 1))),
    "split": lambda: workloads.Split((("A1", 2), ("A2", 1))),
    "cli": lambda: workloads.Cli(full=("A1",), cheap=("A1",)),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_round_passes_its_checks(name):
    record = run.measure(SMALL[name](), seed=5, seconds=0)
    assert record["errors"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] == len(record["rounds"][0]["ops"]) > 0
    line = run.result_line(record, traced=False)
    assert set(line["metrics"]) == {"setup_s", "run_s", "cpu_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def _ops(workload, seed=5):
    state, _ = workload.setup()
    return state, workload.ops(state, random.Random(seed))


def _rejects(check, result):
    with pytest.raises(CheckFailed):
        check(result)


def test_euler_checker_rejects_corruption():
    modules, (op_a1, op_a2) = _ops(SMALL["euler"]())
    reports = op_a2.call()
    op_a2.check(reports)
    flipped = [dict(r) for r in reports]
    flipped[1]["status"] = "fail"
    _rejects(op_a2.check, flipped)
    _rejects(op_a2.check, reports[:-1])
    # a module action that breaks the relations breaks the recomputed identity
    M = modules[1]
    k = M.random_vector(random.Random(3))
    reports = M.canonical_identity(k)
    orig = M.apply_generator
    M.apply_generator = lambda s, vec, zero=None: [x * 2 for x in orig(s, vec)] if s == 0 else orig(s, vec)
    with pytest.raises(CheckFailed):
        checks.check_euler(M, k, reports, range(M.group.size))


def test_split_checker_rejects_corruption():
    modules, ops = _ops(SMALL["split"]())
    ops[1].check(ops[1].call())
    M = modules[1]
    m = 2 * M.group.lengths[M.group.longest_id]
    a = M.random_free_combination(random.Random(2), terms=2)
    a0, a1, cert = M.polyconj_split(a)
    ws = range(M.group.size)
    checks.check_split(M, a, (a0, a1, cert), m, ws)
    with pytest.raises(CheckFailed, match="certificate"):
        checks.check_split(M, a, (a0, a1, dict(cert, free="fail")), m, ws)
    bump = M.tuple_from({0: [Qv(1)] + [Qv(0)] * (M.dim - 1)})
    with pytest.raises(CheckFailed, match="a0 \\+ a1"):
        checks.check_split(M, a, (a0 + bump, a1, cert), m, ws)
    # moving a vector between the parts keeps the sum but not a0's freeness
    with pytest.raises(CheckFailed, match="Phi_s"):
        checks.check_split(M, a, (a0 + bump, a1 - bump, cert), m, ws)


def test_split_annihilation_check_has_teeth():
    # in rank one F = Phi_s^2 fixes a0, so moving a0 into a1 keeps the sum
    # and a0's freeness, and only Ptilde(F) a1 = 0 can fail
    M = KModule.for_type("A1", 2)
    a = M.random_free_combination(random.Random(1), terms=2)
    a0, a1, cert = M.polyconj_split(a)
    assert not a0.is_zero
    ws = range(M.group.size)
    checks.check_split(M, a, (a0, a1, cert), 2, ws)
    with pytest.raises(CheckFailed, match="Ptilde"):
        checks.check_split(M, a, (a0 + a0, a1 - a0, cert), 2, ws)


def test_free_span_checker_rejects_corruption():
    _, ops = _ops(SMALL["split"]())
    free_op = ops[-1]
    out = free_op.call()
    free_op.check(out)
    _rejects(free_op.check, dict(out, admissible=False))
    _rejects(free_op.check, None)
    coeffs = out["coefficients"]
    key = sorted(coeffs)[0]
    for wrong in ("(%s) / (1 - v^2)" % coeffs[key], coeffs[key] + " + v^9"):
        _rejects(free_op.check, dict(out, coefficients=dict(coeffs, **{key: wrong}), max_power=1))
    wrong = "(%s) / (1 - v^%d)" % (coeffs[key], 2 * out["m"] + 2)
    _rejects(free_op.check, dict(out, coefficients=dict(coeffs, **{key: wrong}), max_power=1))


def test_cli_checkers_reject_corruption():
    _, ops = _ops(SMALL["cli"]())
    by_name = {op.name.split(" --seed")[0]: op for op in ops}
    cases = {
        "dump orbit_table --type A1": ("size=2", "size=3"),
        "verify cells --type A1": ("size 1", "size 2"),
        "dump cells --type A1": ("size 1", "size 2"),
        "dump fulltwist_scalars --type A1": ("size 1", "size 2"),
        "verify minpoly --type A1": ("v^4", "v^6"),
        "verify braid --type A1": (" 0 fail", " 1 fail"),
    }
    for name, (old, new) in cases.items():
        op = by_name[name]
        text = op.call()
        op.check(text)
        assert old in text, name
        _rejects(op.check, text.replace(old, new, 1))
    spec = [op for op in ops if op.name.startswith("specialize")][0]
    text = spec.call()
    spec.check(text)
    value = re.search(r"= (-?\d+) ", text).group(1)
    _rejects(spec.check, text.replace("= %s " % value, "= %d " % (int(value) + 1)))
    op = by_name["verify cells --type A1"]
    same = workloads.Cli._same_bytes(tuple(op.name.split()) + ("--threads", "1"), lambda t: None)
    text = op.call()
    same(text)
    _rejects(same, text + "\n")


def test_orbit_and_cell_formulas():
    assert [checks.jordan_totient(2, n) for n in range(1, 7)] == [1, 3, 8, 12, 24, 24]
    assert checks.expected_cell_sizes("A3") == [1, 1, 4, 9, 9]
    assert checks.expected_cell_sizes("G2") == [1, 1, 10]
    assert checks.parse_laurent("-2*v^-3 + 1 - v + v^4") == {-3: -2, 0: 1, 1: -1, 4: 1}
    assert checks.parse_laurent(LaurentPoly({-1: 3, 2: -1}).render()) == {-1: 3, 2: -1}
    assert checks.parse_localized("(1 + v^2) / (1 - v^2)^2 (1 - v^6)") == ({0: 1, 2: 1}, {1: 2, 3: 1})


def test_trace_reports_every_layer_and_counts_repeat():
    orig_mul = LaurentPoly.__mul__
    snaps = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for workload in (
                SMALL["euler"](), SMALL["split"](), workloads.Cli(("A1",), ("A1",), threads=1)
            ):
                run.measure(workload, seed=9, seconds=0, tracer=tracer)
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
    assert LaurentPoly.__mul__ is orig_mul
    names = [n for n, _ in tracing.PER_LAYER]
    assert list(snaps[0]) == names
    counts = [n for n, unit in tracing.PER_LAYER if unit == "count"]
    assert [snaps[0][n] for n in counts] == [snaps[1][n] for n in counts]
    assert all(snaps[0][n] > 0 for n in counts), snaps[0]
    assert snaps[0]["cli.verify.cells_s"] > 0 and snaps[0]["k0model.polyconj_split_s"] > 0


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "cpu_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "euler", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0 and got.stdout == ""
