"""The three benchmark workloads: euler, split and cli.

A workload has a set-up, timed on its own, and a round: a fixed list of
operations drawn from a seeded random source.  Every operation carries the
check that its result must pass.  The program sees only the generated
inputs, never the seed.  The harness in run.py times each operation, and
runs the checks after the round's operations, outside the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List

from klwb.cli import DUMP_TABLES, VERIFY_SUITES, main as klwb_main
from klwb.k0model import KModule
from klwb.rings import p_poly

import checks

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


class OpFailed(Exception):
    """The program reported a failure (a nonzero exit code)."""


def _timed_build(specs):
    t0 = time.perf_counter()
    modules = [KModule.for_type(t, den) for t, den in specs]
    return modules, time.perf_counter() - t0


def _top_m(M) -> int:
    g = M.group
    return 2 * g.lengths[g.longest_id]


class Euler:
    """canonical_identity on c07's Q(v) vectors (random_vector), G2/6 and A3/2."""

    name = "euler"

    def __init__(self, specs=(("G2", 6), ("A3", 2))):
        self.specs = specs

    def setup(self):
        return _timed_build(self.specs)

    def ops(self, modules, rng) -> List[Op]:
        out = []
        for (t, den), M in zip(self.specs, modules):
            k = M.random_vector(rng)
            ys = [rng.randrange(M.group.size)]
            out.append(
                Op(
                    "canonical_identity %s/%d" % (t, den),
                    lambda M=M, k=k: M.canonical_identity(k),
                    lambda rep, M=M, k=k, ys=ys: checks.check_euler(M, k, rep, ys),
                )
            )
        return out


class Split:
    """polyconj_split on 2-term free combinations (A2/3, B2/2), then
    express_in_free_span on the A2/3 tuple scaled by p(v)^k, k = 1, 2, 3."""

    name = "split"
    POWERS = (1, 2, 3)  # as in acceptance test c08

    def __init__(self, specs=(("A2", 3), ("B2", 2))):
        self.specs = specs

    def setup(self):
        return _timed_build(self.specs)

    def ops(self, modules, rng) -> List[Op]:
        out = []
        tuples = []
        for (t, den), M in zip(self.specs, modules):
            a = M.random_free_combination(rng, terms=2)
            tuples.append(a)
            m = _top_m(M)
            ws = [rng.randrange(M.group.size)]
            out.append(
                Op(
                    "polyconj_split %s/%d" % (t, den),
                    lambda M=M, a=a: M.polyconj_split(a),
                    lambda res, M=M, a=a, m=m, ws=ws: checks.check_split(M, a, res, m, ws),
                )
            )
        M, scaled = modules[0], tuples[0]
        m = _top_m(M)
        p = p_poly(m)
        for k in self.POWERS:
            scaled = scaled.scale(p)
            ys = [rng.randrange(M.group.size)]
            out.append(
                Op(
                    "express_in_free_span %s/%d k=%d" % (self.specs[0] + (k,)),
                    lambda M=M, s=scaled: M.express_in_free_span(s),
                    lambda res, M=M, s=scaled, m=m, ys=ys: checks.check_free_span(M, s, res, m, ys),
                )
            )
        return out


def run_cli(argv) -> str:
    """klwb's main() in this process; its stdout, or OpFailed on a nonzero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = klwb_main(list(argv))
    if code != 0:
        raise OpFailed("exit %d: klwb %s" % (code, " ".join(argv)))
    return buf.getvalue()


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import klwb.cli; "
    "print(time.perf_counter() - t)"
)


class Cli:
    """The suites and tables as a user runs them, through klwb.cli.main.

    The benchmark runs them at --threads 2, the cores this workload was sized
    for.  The traced run uses --threads 1: the thread pool's tasks race to fill
    KModule's solver cache, so at 2 threads the work done, and every count,
    changes from run to run.
    """

    name = "cli"
    SUITES = tuple(s for s in VERIFY_SUITES if s != "polyconj")
    CHEAP_SUITES = ("braid", "cubic", "w0", "tilting", "chevalley", "cells")
    DEN = 6  # the cli default, used by the orbit-table check
    SAMPLED = 3  # commands re-run at another thread count, for byte identity

    def __init__(self, full=("A1", "A2", "B2"), cheap=("G2", "A3"), threads: int = 2):
        self.full = full  # types that run every suite but polyconj
        self.cheap = cheap  # types that run CHEAP_SUITES only
        self.threads = threads

    def setup(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        return None, float(out.stdout)

    def commands(self, rng):
        """(argv, check) for every command of one round."""
        seed = str(rng.randrange(1 << 30))
        q = rng.randrange(2, 10)
        out = []
        for t in self.full + self.cheap:
            suites = self.SUITES if t in self.full else self.CHEAP_SUITES
            for suite in suites:
                out.append((("verify", suite, "--type", t, "--seed", seed), self._check("verify", suite, t)))
            for table in DUMP_TABLES:
                out.append((("dump", table, "--type", t, "--seed", seed), self._check("dump", table, t)))
            if t in self.full:
                out.append((("specialize", str(q), "--type", t), self._check("specialize", q, t)))
        return out

    def _check(self, command, what, t):
        def check(text):
            checks.check_report(text)
            if command == "specialize":
                checks.check_specialize(text, t, what)
            elif what == "orbit_table":
                checks.check_orbit_table(text, t, self.DEN)
            elif what in ("cells", "fulltwist_scalars"):
                checks.check_cell_sizes(text, t)
            elif what == "minpoly" and t == "A1":
                checks.check_a1_minpoly(text)

        return check

    def ops(self, _state, rng) -> List[Op]:
        cmds = self.commands(rng)
        sampled = set(rng.sample(range(len(cmds)), self.SAMPLED))
        threads = ("--threads", str(self.threads))
        other = ("--threads", "1" if self.threads != 1 else "2")
        out = []
        for i, (argv, check) in enumerate(cmds):
            if i in sampled:
                check = self._same_bytes(argv + other, check)
            out.append(Op(" ".join(argv), lambda argv=argv: run_cli(argv + threads), check))
        return out

    @staticmethod
    def _same_bytes(argv, check):
        """check, and the same report bytes from argv (another thread count)."""

        def both(text):
            check(text)
            if run_cli(argv) != text:
                raise checks.CheckFailed("klwb %s prints other bytes" % " ".join(argv))

        return both


WORKLOADS = {w.name: w for w in (Euler, Split, Cli)}


def make(name: str, traced: bool):
    """The workload as benchmarked, or as traced (see Cli)."""
    if name == "cli" and traced:
        return Cli(threads=1)
    return WORKLOADS[name]()
