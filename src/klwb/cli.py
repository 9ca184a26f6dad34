"""Command-line front end: verification suites, data dumps, specialization.

Every command prints a deterministic report (text or JSON) built from
result entries {check, status, detail, witness?} with status one of
pass, finding, fail.  A "finding" records a measured discrepancy against
a documented expectation and does not affect the exit code.  Exit codes:
0 every check passed (findings allowed); 1 at least one check failed (its
witness is in the report); 2 usage or configuration error; 3 internal error,
an unexpected exception, reported on stderr as "internal error: <type>:
<message>" on one line.  ``--threads`` (or KLWB_THREADS) is accepted and
validated, but every command runs serially: CPU-bound pure Python on a
thread pool gained nothing, so the bytes emitted cannot depend on it.

Consecutive commands on one Cartan type share its group layer: every
command takes its Weyl group from ``_weyl``, a memo of the last type's
group, so the caches the library keeps on a group (the std/ly Hecke
algebras with their step tables, cells and full twists; the orbit data,
stabilizer subsystems and their T_w0^2) serve the next command on that
type.  That pays where one process runs several commands through
``main``, as the test suite and ``perfbench``'s ``cli`` workload do.  A
``klwb`` shell call runs one command, and there the memo only spares
``RunConfig.validate`` its own group, which no timing shows.  The memo
keeps one type: keeping every type held all their caches for the whole
process, +0.9 MB (+3%) of peak RSS on a ``cli`` run with no faster round,
and memoizing ``KLAlgebra`` or ``KModule`` as well cost +2.8 MB or +4 MB
for few calls saved.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Dict, List

from .charpoints import (
    NEGATIVE_V2,
    POSITIVE_V2,
    chevalley_divisibility,
    orbit_set,
    poincare_of_subsystem,
)
from .coxeter import build_weyl
from .hecke import LY, STD, hecke_algebra
from .k0model import GluingViolation, IdentityFailure, KModule, resolve_m
from .klalgebra import KLAlgebra
from .linalg import DegreeBoundExceeded, bivar_divides
from .rings import LaurentPoly, annihilator_family, p_poly

VERIFY_SUITES = (
    "braid",
    "cubic",
    "w0",
    "minpoly",
    "canonical",
    "gluing",
    "polyconj",
    "tilting",
    "chevalley",
    "cells",
)
DUMP_TABLES = ("cells", "fulltwist_scalars", "qpoly", "orbit_table")

# randomized suites draw this many samples per run
N_CANONICAL = 5
N_GLUING = 5
N_POLYCONJ = 3

# points enumerated before orbit reduction, sum_{N <= den} N^rank; A5/6 has 12,201
MAX_POINTS = 20_000


class ConfigError(ValueError):
    """Bad command configuration; maps to exit code 2."""


@functools.lru_cache(maxsize=1)
def _weyl(cartan_type: str):
    """The Weyl group of the type, shared with the last command when that
    ran on the same type (module docstring).  A type that fails to build
    raises every time: lru_cache keeps no exception."""
    return build_weyl(cartan_type)


@dataclass
class RunConfig:
    cartan_type: str = "A2"
    orbit_denominator_bound: int = 6
    exponent_bound_m: object = "safe"
    seed: int = 0
    output: str = "text"
    threads: int = 1

    def validate(self) -> None:
        if self.orbit_denominator_bound < 1:
            raise ConfigError("orbit denominator bound must be positive")
        if self.threads < 1:
            raise ConfigError("thread count must be positive")
        try:
            W = _weyl(self.cartan_type)
        except Exception as e:
            raise ConfigError("unsupported type %r: %s" % (self.cartan_type, e))
        try:
            resolve_m(self.exponent_bound_m, W)
        except ValueError as e:
            raise ConfigError(str(e))
        rank = W.rank
        den = self.orbit_denominator_bound
        # the first MAX_POINTS terms alone exceed MAX_POINTS
        if sum(n**rank for n in range(1, min(den, MAX_POINTS) + 1)) > MAX_POINTS:
            msg = "den %d enumerates more than %d character points in rank %d"
            raise ConfigError(msg % (den, MAX_POINTS, rank))

    def to_json(self) -> dict:
        # threads and output mode do not change content; leaving them
        # out keeps reports byte-identical across thread counts
        return {
            "cartan_type": self.cartan_type,
            "orbit_denominator_bound": self.orbit_denominator_bound,
            "exponent_bound_m": self.exponent_bound_m,
            "seed": self.seed,
        }


def _entry(check: str, status: str, detail: str, witness=None) -> dict:
    out = {"check": check, "status": status, "detail": detail}
    if witness is not None:
        out["witness"] = witness
    return out


def _from_module_report(rep: dict) -> dict:
    detail = "type=%s orbit=%s" % (rep["type"], rep["orbit"])
    if rep.get("detail"):
        detail += " " + rep["detail"]
    return _entry(rep["check"], rep["status"], detail, rep.get("witness"))


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_braid(cfg: RunConfig) -> List[dict]:
    kl = KLAlgebra.for_type(_weyl(cfg.cartan_type), cfg.orbit_denominator_bound)
    return [_from_module_report(r) for r in kl.check_braid()]


def _suite_cubic(cfg: RunConfig) -> List[dict]:
    kl = KLAlgebra.for_type(_weyl(cfg.cartan_type), cfg.orbit_denominator_bound)

    def one(s):
        out = []
        for rep in kl.verify_cubic(s) + kl.operator_square_identity(s):
            e = _from_module_report(rep)
            e["detail"] = "s=%d %s" % (s + 1, e["detail"])
            out.append(e)
        return out

    return [e for s in range(kl.group.rank) for e in one(s)]


def _suite_w0(cfg: RunConfig) -> List[dict]:
    kl = KLAlgebra.for_type(_weyl(cfg.cartan_type), cfg.orbit_denominator_bound)
    return [_from_module_report(r) for r in kl.check_w0_identity()]


def _suite_minpoly(cfg: RunConfig) -> List[dict]:
    kl = KLAlgebra.for_type(_weyl(cfg.cartan_type), cfg.orbit_denominator_bound)
    lw0 = kl.group.lengths[kl.group.longest_id]
    try:
        mp, verdicts = kl.fulltwist_minpoly()
    except DegreeBoundExceeded as e:
        return [_entry("minpoly", "fail", "%s; it cannot divide prod(x - v^2i, i <= %d)" % (e, 2 * lw0))]
    out = [
        _entry(
            "minpoly",
            "pass" if verdicts["safe"] else "fail",
            "minimal polynomial %s; divides prod(x - v^2i, i <= %d): %s"
            % (mp.render(), 2 * lw0, "yes" if verdicts["safe"] else "no"),
        ),
        _entry(
            "minpoly_range",
            "pass" if verdicts["paper"] else "finding",
            "range i <= %d: %s prod(x - v^2i)"
            % (lw0, "divides" if verdicts["paper"] else "does not divide"),
        ),
    ]
    if isinstance(cfg.exponent_bound_m, int):
        mm = cfg.exponent_bound_m
        ok = bivar_divides(mp, annihilator_family(mm))
        out.append(
            _entry(
                "minpoly_range",
                "pass" if ok else "finding",
                "configured range i <= %d: %s"
                % (mm, "divides" if ok else "does not divide"),
            )
        )
    return out


def _suite_canonical(cfg: RunConfig) -> List[dict]:
    M = KModule.for_type(_weyl(cfg.cartan_type), cfg.orbit_denominator_bound)
    rng = random.Random(cfg.seed)
    vecs = [M.random_poly_vector(rng, 0.4) for _ in range(N_CANONICAL)]
    out = []
    for i, v in enumerate(vecs):
        reports = M.canonical_identity(v)
        bad = [r for r in reports if r["status"] != "pass"]
        if not bad:
            out.append(
                _entry(
                    "canonical",
                    "pass",
                    "vector %d: identity holds for all %d group elements"
                    % (i, len(reports)),
                )
            )
        else:
            for r in bad:
                out.append(
                    _entry(
                        "canonical",
                        "fail",
                        "vector %d: identity fails at y=%s" % (i, r["y"]),
                        r.get("witness"),
                    )
                )
    return out


def _suite_gluing(cfg: RunConfig) -> List[dict]:
    M = KModule.for_type(_weyl(cfg.cartan_type), cfg.orbit_denominator_bound)
    rng = random.Random(cfg.seed)
    tuples = [M.random_free_combination(rng, 3) for _ in range(N_GLUING)]
    out = []
    for i, t in enumerate(tuples):
        reports = M.check_gluing(t)
        bad = [r for r in reports if r["status"] != "pass"]
        if not bad:
            out.append(
                _entry(
                    "gluing",
                    "pass",
                    "tuple %d: membership holds at all %d (s, w) pairs"
                    % (i, len(reports)),
                )
            )
        else:
            for r in bad:
                out.append(
                    _entry(
                        "gluing",
                        "fail",
                        "tuple %d: no witness at s=%s, w=%s"
                        % (i, r["s"], r["w"]),
                    )
                )
    return out


def _suite_polyconj(cfg: RunConfig) -> List[dict]:
    M = KModule.for_type(_weyl(cfg.cartan_type), cfg.orbit_denominator_bound)
    rng = random.Random(cfg.seed)
    tuples = [M.random_free_combination(rng, 3) for _ in range(N_POLYCONJ)]
    out = []
    for i, a in enumerate(tuples):
        try:
            _, _, cert = M.polyconj_split(a, cfg.exponent_bound_m)
            out.append(
                _entry(
                    "polyconj",
                    "pass",
                    "tuple %d: contracts hold (m=%d, p=%s)"
                    % (i, cert["m"], cert["p"]),
                )
            )
        except (GluingViolation, IdentityFailure) as e:
            out.append(_entry("polyconj", "fail", "tuple %d" % i, str(e)))
    return out


def _suite_tilting(cfg: RunConfig) -> List[dict]:
    W = _weyl(cfg.cartan_type)
    H = hecke_algebra(W, STD)
    neg = H.ic_e_coefficient(hecke_algebra(W, LY).tilting_class(negative_v2=True))
    pos = H.ic_e_coefficient(H.tilting_class(negative_v2=False))
    pneg: Dict[int, int] = {}
    ppos: Dict[int, int] = {}
    for l in W.lengths:
        pneg[2 * l] = pneg.get(2 * l, 0) + (-1) ** l
        ppos[2 * l] = ppos.get(2 * l, 0) + 1
    match_neg = neg == LaurentPoly(pneg)
    match_pos = pos == LaurentPoly(ppos)
    out = []
    if match_neg and not match_pos:
        out.append(
            _entry(
                "tilting",
                "pass",
                "type=%s matching convention: -v^2 weights; coefficient %s"
                % (cfg.cartan_type, neg.render()),
            )
        )
        out.append(
            _entry(
                "tilting_literal",
                "finding",
                "literal v weights give C_e-coefficient %s, not the length "
                "generating function" % pos.render(),
            )
        )
    elif match_pos and not match_neg:
        out.append(
            _entry(
                "tilting",
                "pass",
                "type=%s matching convention: +v weights; coefficient %s"
                % (cfg.cartan_type, pos.render()),
            )
        )
    else:
        out.append(
            _entry(
                "tilting",
                "fail",
                "type=%s: %d conventions match, expected exactly one"
                % (cfg.cartan_type, int(match_neg) + int(match_pos)),
                "neg=%s pos=%s" % (neg.render(), pos.render()),
            )
        )
    return out


def _suite_chevalley(cfg: RunConfig) -> List[dict]:
    W = _weyl(cfg.cartan_type)
    lw0 = W.lengths[W.longest_id]
    orbits = orbit_set(W, cfg.orbit_denominator_bound)
    def one(orb):
        lam = orb.representative
        rows = []
        qpos = poincare_of_subsystem(orb.stabilizers[lam], POSITIVE_V2)
        safe = chevalley_divisibility(qpos, 2 * lw0)
        ivals = sorted(i for _, i, mult in safe.factors for _ in range(mult))
        rows.append(
            _entry(
                "chevalley",
                "pass" if safe.success else "fail",
                "lambda=%s q=%s i-values=%s (i <= %d)"
                % (lam.render(), qpos.render(), ivals, 2 * lw0),
                None if safe.success else safe.remainder.render(),
            )
        )
        paper = chevalley_divisibility(qpos, lw0)
        if not paper.success:
            rows.append(
                _entry(
                    "chevalley_range",
                    "finding",
                    "lambda=%s: q does not factor within i <= %d; remainder %s"
                    % (lam.render(), lw0, paper.remainder.render()),
                )
            )
        qneg = poincare_of_subsystem(orb.stabilizers[lam], NEGATIVE_V2)
        alt = chevalley_divisibility(qneg, lw0)
        if not alt.success:
            rows.append(
                _entry(
                    "chevalley_sign",
                    "finding",
                    "lambda=%s: -v^2 convention within i <= %d leaves remainder %s"
                    % (lam.render(), lw0, alt.remainder.render()),
                )
            )
        return rows

    return [r for o in orbits for r in one(o)]


def _scalar_str(sc) -> str:
    if sc is None:
        return "none"
    sign, exp = sc
    return "%sv^%d" % ("-" if sign < 0 else "", exp)


def _cell_scalars(W):
    """Yield (index, cell, std, ly): the full twist's scalar on each
    two-sided cell in the std and ly conventions."""
    H = hecke_algebra(W, STD)
    Hly = hecke_algebra(W, LY)
    dec = H.cells()
    ft = H.full_twist()
    ftly = Hly.full_twist()
    for ci, cell in enumerate(dec.two_sided):
        yield ci, cell, H.cell_scalar(ft, ci), Hly.cell_scalar(ftly, ci)


def _suite_cells(cfg: RunConfig) -> List[dict]:
    W = _weyl(cfg.cartan_type)
    lw0 = W.lengths[W.longest_id]
    out = []
    dvals = []
    for ci, cell, std, ly in _cell_scalars(W):
        ok = std is not None and ly is not None
        if ly is not None:
            dvals.append(ly[1])
        out.append(
            _entry(
                "cells",
                "pass" if ok else "fail",
                "cell %d size %d: std=%s ly=%s"
                % (ci, len(cell), _scalar_str(std), _scalar_str(ly)),
            )
        )
    within = all(0 <= d <= 2 * lw0 for d in dvals)
    out.append(
        _entry(
            "cells_range",
            "pass" if within else "finding",
            "observed d-values %s vs documented range [0, %d]"
            % (sorted(set(dvals)), 2 * lw0),
        )
    )
    return out


SUITES = {
    "braid": _suite_braid,
    "cubic": _suite_cubic,
    "w0": _suite_w0,
    "minpoly": _suite_minpoly,
    "canonical": _suite_canonical,
    "gluing": _suite_gluing,
    "polyconj": _suite_polyconj,
    "tilting": _suite_tilting,
    "chevalley": _suite_chevalley,
    "cells": _suite_cells,
}


# ---------------------------------------------------------------------------
# dump tables
# ---------------------------------------------------------------------------

def _dump_cells(cfg: RunConfig) -> List[dict]:
    dec = hecke_algebra(_weyl(cfg.cartan_type), STD).cells()
    out = []
    for ci, words in enumerate(dec.to_json()):
        out.append(
            _entry(
                "cells",
                "pass",
                "cell %d (size %d): %s" % (ci, len(words), json.dumps(words)),
            )
        )
    return out


def _dump_fulltwist_scalars(cfg: RunConfig) -> List[dict]:
    out = []
    for ci, cell, std, ly in _cell_scalars(_weyl(cfg.cartan_type)):
        out.append(
            _entry(
                "fulltwist_scalars",
                "pass",
                "cell %d size %d: std=%s ly=%s d=%s"
                % (
                    ci,
                    len(cell),
                    _scalar_str(std),
                    _scalar_str(ly),
                    "none" if ly is None else ly[1],
                ),
            )
        )
    return out


def _dump_qpoly(cfg: RunConfig) -> List[dict]:
    W = _weyl(cfg.cartan_type)
    out = []
    for orb in orbit_set(W, cfg.orbit_denominator_bound):
        lam = orb.representative
        sub = orb.stabilizers[lam]
        out.append(
            _entry(
                "qpoly",
                "pass",
                "lambda=%s stabilizer=%s q[+v^2]=%s q[-v^2]=%s"
                % (
                    lam.render(),
                    sub.cartan_type,
                    poincare_of_subsystem(sub, POSITIVE_V2).render(),
                    poincare_of_subsystem(sub, NEGATIVE_V2).render(),
                ),
            )
        )
    return out


def _dump_orbit_table(cfg: RunConfig) -> List[dict]:
    W = _weyl(cfg.cartan_type)
    out = []
    for orb in orbit_set(W, cfg.orbit_denominator_bound):
        lam = orb.representative
        out.append(
            _entry(
                "orbit_table",
                "pass",
                "lambda=%s size=%d stabilizer=%s order=%d w0L_length=%d"
                % (
                    lam.render(),
                    orb.size,
                    orb.stabilizers[lam].cartan_type,
                    orb.stabilizer_order,
                    W.lengths[W.id_of(orb.w0L[lam])],
                ),
            )
        )
    return out


TABLES = {
    "cells": _dump_cells,
    "fulltwist_scalars": _dump_fulltwist_scalars,
    "qpoly": _dump_qpoly,
    "orbit_table": _dump_orbit_table,
}


def _cmd_specialize(cfg: RunConfig, q: int) -> List[dict]:
    if q < 2:
        raise ConfigError("q must be an integer >= 2")
    W = _weyl(cfg.cartan_type)
    mm = resolve_m(cfg.exponent_bound_m, W)
    val = p_poly(mm).specialize_sqrt_q(q)
    return [
        _entry(
            "specialize",
            "pass" if val.nonzero else "fail",
            "type=%s m=%d q=%d: p(sqrt(q)) = %s (%s)"
            % (
                cfg.cartan_type,
                mm,
                q,
                val,
                "nonzero" if val.nonzero else "zero",
            ),
        )
    ]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _emit(cfg: RunConfig, command: str, results: List[dict]) -> int:
    if cfg.output == "json":
        print(
            json.dumps(
                {
                    "command": command,
                    "config": cfg.to_json(),
                    "results": results,
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        print("# %s  %s" % (command, json.dumps(cfg.to_json(), sort_keys=True)))
        for r in results:
            print("[%s] %s: %s" % (r["status"], r["check"], r["detail"]))
            if r.get("witness"):
                print("    witness: %s" % r["witness"])
        counts = {"pass": 0, "finding": 0, "fail": 0}
        for r in results:
            counts[r["status"]] = counts.get(r["status"], 0) + 1
        print(
            "%d results: %d pass, %d finding, %d fail"
            % (len(results), counts["pass"], counts["finding"], counts["fail"])
        )
    return 1 if any(r["status"] == "fail" for r in results) else 0


def _parse_m(text: str):
    if text in ("paper", "safe"):
        return text
    try:
        return int(text)
    except ValueError:
        raise ConfigError("invalid m %r" % text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="klwb",
        description="exact verification workbench for the glued K-group model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("verify", "run a verification suite"),
        ("dump", "print a data table"),
        ("specialize", "evaluate p(v) at v = sqrt(q)"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("suite", choices=VERIFY_SUITES)
        elif name == "dump":
            p.add_argument("table", choices=DUMP_TABLES)
        else:
            p.add_argument("q", type=int)
        p.add_argument("--type", default="A2", dest="cartan_type")
        p.add_argument("--den", type=int, default=6)
        p.add_argument("--m", default="safe")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")
        p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        threads = args.threads
        if threads is None:
            env = os.environ.get("KLWB_THREADS", "1")
            try:
                threads = int(env)
            except ValueError:
                raise ConfigError("KLWB_THREADS must be an integer, got %r" % env)
        cfg = RunConfig(
            cartan_type=args.cartan_type,
            orbit_denominator_bound=args.den,
            exponent_bound_m=_parse_m(args.m),
            seed=args.seed,
            output="json" if args.json else "text",
            threads=threads,
        )
        cfg.validate()
        if args.command == "verify":
            results = SUITES[args.suite](cfg)
            return _emit(cfg, "verify %s" % args.suite, results)
        if args.command == "dump":
            results = TABLES[args.table](cfg)
            return _emit(cfg, "dump %s" % args.table, results)
        results = _cmd_specialize(cfg, args.q)
        return _emit(cfg, "specialize %d" % args.q, results)
    except ConfigError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        msg = " ".join(str(e).split())
        print("internal error: %s: %s" % (type(e).__name__, msg), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
