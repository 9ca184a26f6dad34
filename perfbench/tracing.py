"""Per-layer counters and timers, installed around klwb from outside.

A Tracer wraps the public callables of each klwb module where callers look
them up: module globals (in every klwb module that imported the function by
name), class attributes, and the cli's SUITES / TABLES dispatch tables.
Nothing in the program changes; uninstall() puts every original back.

Times are inclusive wall seconds spent inside the wrapped calls, summed over
threads; a call nested inside another call of the same layer metric is not
counted twice.  Counts are per-thread tallies summed at the end, so no
increment is lost when the cli runs tasks on its thread pool.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from functools import wraps
from time import perf_counter

from klwb.cli import DUMP_TABLES
from workloads import Cli

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    [
        ("coxeter.build_weyl_s", "s"),
        ("coxeter.mul_id_calls", "count"),
        ("charpoints.orbit_set_s", "s"),
        ("charpoints.orbits", "count"),
        ("rings.qv_new", "count"),
        ("rings.gcd_laurent_calls", "count"),
        ("rings.gcd_laurent_s", "s"),
        ("rings.laurent_mul_calls", "count"),
        ("rings.laurent_mul_term_pairs", "count"),
        ("rings.laurent_mul_s", "s"),
        ("hecke.cells_s", "s"),
        ("hecke.full_twist_s", "s"),
        ("klalgebra.build_s", "s"),
        ("klalgebra.checks_s", "s"),
        ("klalgebra.fulltwist_minpoly_s", "s"),
        ("linalg.solve_linear_calls", "count"),
        ("linalg.solve_linear_s", "s"),
        ("linalg.minpoly_operator_s", "s"),
        ("k0model.build_s", "s"),
        ("k0model.dim", "count"),
        ("k0model.canonical_identity_s", "s"),
        ("k0model.check_gluing_s", "s"),
        ("k0model.polyconj_split_s", "s"),
        ("k0model.express_in_free_span_s", "s"),
        ("k0model.apply_generator_calls", "count"),
        ("k0model.apply_fulltwist_calls", "count"),
    ]
    + [("cli.verify.%s_s" % s, "s") for s in Cli.SUITES]
    + [("cli.dump.%s_s" % t, "s") for t in DUMP_TABLES]
)


class Tracer:
    """Counters and inclusive timers; record only while `on` is true."""

    def __init__(self):
        self.on = False
        self._local = threading.local()
        self._tallies = []
        self._lock = threading.Lock()
        self._undo = []

    def _tally(self):
        try:
            return self._local.tally
        except AttributeError:
            t = (defaultdict(int), defaultdict(float), defaultdict(int))
            with self._lock:
                self._tallies.append(t)
            self._local.tally = t
            return t

    def snapshot(self) -> dict:
        """Every per-layer metric as {name: value}, summed over threads."""
        counts = defaultdict(int)
        times = defaultdict(float)
        with self._lock:
            for n, t, _ in self._tallies:
                for k, x in n.items():
                    counts[k] += x
                for k, x in t.items():
                    times[k] += x
        out = {}
        for name, unit in PER_LAYER:
            out[name] = times[name] if unit == "s" else counts[name]
        return out

    # -- wrappers ------------------------------------------------------------

    def timed(self, fn, key, count=None, after=None):
        """Wrap fn: add its inclusive time to key, optionally count calls."""
        tr = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            n, t, depth = tr._tally()
            if count:
                n[count] += 1
            if depth[key]:
                out = fn(*args, **kwargs)
            else:
                depth[key] += 1
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t[key] += perf_counter() - t0
                    depth[key] -= 1
            if after is not None:
                after(n, args, out)
            return out

        return wrapper

    def counted(self, fn, key):
        tr = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.on:
                tr._tally()[0][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _laurent_mul(self, fn):
        tr = self

        @wraps(fn)
        def wrapper(a, b):
            if not tr.on:
                return fn(a, b)
            n, t, _ = tr._tally()
            n["rings.laurent_mul_calls"] += 1
            n["rings.laurent_mul_term_pairs"] += len(a._c) * (
                len(b._c) if hasattr(b, "_c") else 1
            )
            t0 = perf_counter()
            out = fn(a, b)
            t["rings.laurent_mul_s"] += perf_counter() - t0
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _patch_function(self, module, name, wrapper_of):
        """Replace a module function in every klwb module that holds it."""
        orig = getattr(module, name)
        wrapped = wrapper_of(orig)
        for modname, mod in list(sys.modules.items()):
            if modname == "klwb" or modname.startswith("klwb."):
                if getattr(mod, name, None) is orig:
                    self._set(mod, name, wrapped)

    def _patch_method(self, cls, name, wrapper_of):
        self._set(cls, name, wrapper_of(cls.__dict__[name]))

    def install(self):
        from klwb import charpoints, cli, coxeter, hecke, k0model, klalgebra, linalg, rings

        self._patch_function(
            coxeter, "build_weyl", lambda f: self.timed(f, "coxeter.build_weyl_s")
        )
        self._patch_method(
            coxeter.WeylGroup, "mul_id",
            lambda f: self.counted(f, "coxeter.mul_id_calls"),
        )
        self._patch_function(
            charpoints, "orbit_set",
            lambda f: self.timed(f, "charpoints.orbit_set_s"),
        )
        self._patch_method(
            charpoints.OrbitData, "__init__",
            lambda f: self.counted(f, "charpoints.orbits"),
        )
        self._patch_method(rings.Qv, "__init__", lambda f: self.counted(f, "rings.qv_new"))
        self._patch_function(
            rings, "gcd_laurent",
            lambda f: self.timed(f, "rings.gcd_laurent_s", count="rings.gcd_laurent_calls"),
        )
        self._patch_method(rings.LaurentPoly, "__mul__", self._laurent_mul)
        self._patch_method(rings.LaurentPoly, "__rmul__", self._laurent_mul)
        self._patch_method(
            hecke.HeckeAlgebra, "cells", lambda f: self.timed(f, "hecke.cells_s")
        )
        self._patch_method(
            hecke.HeckeAlgebra, "full_twist",
            lambda f: self.timed(f, "hecke.full_twist_s"),
        )
        self._patch_method(
            klalgebra.KLAlgebra, "__init__", lambda f: self.timed(f, "klalgebra.build_s")
        )
        for name in (
            "check_braid", "verify_cubic", "operator_square_identity", "check_w0_identity",
        ):
            self._patch_method(
                klalgebra.KLAlgebra, name, lambda f: self.timed(f, "klalgebra.checks_s")
            )
        self._patch_method(
            klalgebra.KLAlgebra, "fulltwist_minpoly",
            lambda f: self.timed(f, "klalgebra.fulltwist_minpoly_s"),
        )
        self._patch_function(
            linalg, "solve_linear",
            lambda f: self.timed(f, "linalg.solve_linear_s", count="linalg.solve_linear_calls"),
        )
        self._patch_function(
            linalg, "minpoly_operator",
            lambda f: self.timed(f, "linalg.minpoly_operator_s"),
        )

        def add_dim(n, args, _):
            n["k0model.dim"] += args[0].dim

        self._patch_method(
            k0model.KModule, "__init__",
            lambda f: self.timed(f, "k0model.build_s", after=add_dim),
        )
        for name in (
            "canonical_identity", "check_gluing", "polyconj_split", "express_in_free_span",
        ):
            self._patch_method(
                k0model.KModule, name,
                lambda f, name=name: self.timed(f, "k0model.%s_s" % name),
            )
        self._patch_method(
            k0model.KModule, "apply_generator",
            lambda f: self.counted(f, "k0model.apply_generator_calls"),
        )
        self._patch_method(
            k0model.KModule, "apply_fulltwist",
            lambda f: self.counted(f, "k0model.apply_fulltwist_calls"),
        )
        for suite in Cli.SUITES:
            self._set_item(cli.SUITES, suite, "cli.verify.%s_s" % suite)
        for table in DUMP_TABLES:
            self._set_item(cli.TABLES, table, "cli.dump.%s_s" % table)

    def _set_item(self, table, name, key):
        orig = table[name]
        self._undo.append((table, name, orig))
        table[name] = self.timed(orig, key)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
