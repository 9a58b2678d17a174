"""Per-layer spans recorded from outside the engine.

``Tracer.install`` replaces the public functions named in ``LAYERS`` by
timing wrappers in every ``mkdv_a22`` module namespace that holds them
(``from .exact import poly_gcd`` binds a separate name in ``flows``,
``generation``, ... and each binding is swapped).  Both ways of making a
``RatFunc`` are wrapped on the class as ``exact.ratfunc_new``: the
normalizing ``__init__`` and ``_raw``, which skips normalization (negation,
scalar multiples).  Untraced passes never construct a Tracer, so they run
the engine untouched.

Each call records one span (name, start, end, parent) in flat arrays kept in
memory; ``summary`` derives calls and self times from them and ``write``
dumps them when the pass ends.  Self time is a span's duration minus the
time covered by its child spans.  A child covers its own interval plus the
counting hook run right after it (e.g. coefficient bit lengths); that cover
is stored per span as ``charge``, so hook work inflates no layer's self time
and shows only in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

# layer name -> (module, attribute); "RatFunc" stands for its __init__ and _raw
LAYERS = {
    "exact.poly_gcd": ("mkdv_a22.exact", "poly_gcd"),
    "exact.solve_linear": ("mkdv_a22.exact", "solve_linear"),
    "exact.ratfunc_new": ("mkdv_a22.exact", "RatFunc"),
    "loop.conjugate": ("mkdv_a22.loop", "conjugate"),
    "loop.grade_project": ("mkdv_a22.loop", "grade_project"),
    "loop.lambda_power": ("mkdv_a22.loop", "lambda_power"),
    "generation.generate_multistep": ("mkdv_a22.generation", "generate_multistep"),
    "generation.wronskian_solve": ("mkdv_a22.generation", "wronskian_solve"),
    "miura.miura_from_trace": ("mkdv_a22.miura", "miura_from_trace"),
    "miura.miura_map": ("mkdv_a22.miura", "miura_map"),
    "miura.d_miura_map_a1": ("mkdv_a22.miura", "d_miura_map_a1"),
    "flows.dressing_product": ("mkdv_a22.flows", "dressing_product"),
    "flows.mkdv_field": ("mkdv_a22.flows", "mkdv_field"),
    "flows.family_tangents": ("mkdv_a22.flows", "family_tangents"),
    "flows.decompose_flow": ("mkdv_a22.flows", "decompose_flow"),
    "psdo.psdo_mul": ("mkdv_a22.psdo", "psdo_mul"),
    "psdo.cube_root": ("mkdv_a22.psdo", "cube_root"),
    "psdo.frac_power_plus": ("mkdv_a22.psdo", "frac_power_plus"),
    "psdo.kdv_field": ("mkdv_a22.psdo", "kdv_field"),
    "cli.main": ("mkdv_a22.cli", "main"),
}


def _bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    # dual numbers carry a value and a derivative part
    return max(_bits(c.re), _bits(c.eps))


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = list(LAYERS)
        self.start = array("d")
        self.end = array("d")
        self.charge = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.counters: Dict[str, int] = {
            "loop.grade_project.terms_in": 0,
            "loop.grade_project.terms_kept": 0,
            "exact.poly_gcd.useful": 0,
            "psdo.cube_root.max_depth": 0,
            "exact.max_coeff_bits": 0,
        }
        self._open: List[int] = []  # indices of open spans, innermost last

    def wrap(self, layer: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        nid = self.names.index(layer)
        start, end, charge = self.start, self.end, self.charge
        name, parent = self.name, self.parent
        open_ = self._open

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            charge.append(0.0)
            name.append(nid)
            parent.append(open_[-1] if open_ else -1)
            open_.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_.pop()
                start[idx] = t0
                end[idx] = t1
                charge[idx] = t1 - t0
            if hook is not None:
                hook(args, kwargs, result)
                charge[idx] = perf_counter() - t0
            return result

        return functools.update_wrapper(traced, fn)

    # counting hooks: they run outside the span they annotate
    def _grade_project(self, args, kwargs, result) -> None:
        self.counters["loop.grade_project.terms_in"] += len(args[0].terms)
        self.counters["loop.grade_project.terms_kept"] += len(result.terms)

    def _poly_gcd(self, args, kwargs, result) -> None:
        if result.degree() > 0:
            self.counters["exact.poly_gcd.useful"] += 1

    def _cube_root(self, args, kwargs, result) -> None:
        depth = args[1] if len(args) > 1 else kwargs["depth"]
        c = self.counters
        c["psdo.cube_root.max_depth"] = max(c["psdo.cube_root.max_depth"], depth)

    def _init_bits(self, args, kwargs, result) -> None:
        self._coeff_bits(args[0])

    def _raw_bits(self, args, kwargs, result) -> None:
        self._coeff_bits(result)

    def _coeff_bits(self, rf) -> None:
        top = max((_bits(c) for p in (rf.num, rf.den) for c in p.coeffs), default=0)
        c = self.counters
        if top > c["exact.max_coeff_bits"]:
            c["exact.max_coeff_bits"] = top

    def install(self) -> None:
        """Swap every binding of every layer function for its wrapper.

        The engine must already be imported; only names that are bound to
        the original function object are replaced.
        """
        hooks = {
            "loop.grade_project": self._grade_project,
            "exact.poly_gcd": self._poly_gcd,
            "psdo.cube_root": self._cube_root,
        }
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mkdv_a22"]
        for layer, (modname, attr) in LAYERS.items():
            home = sys.modules[modname]
            if attr == "RatFunc":
                cls = home.RatFunc
                cls.__init__ = self.wrap(layer, cls.__init__, self._init_bits)
                cls._raw = staticmethod(self.wrap(layer, cls._raw, self._raw_bits))
                continue
            original = getattr(home, attr)
            traced = self.wrap(layer, original, hooks.get(layer))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, traced)

    def summary(self) -> Dict[str, float]:
        """Per-layer calls and self times plus the counters, for one pass."""
        calls = [0] * len(self.names)
        for nid in self.name:
            calls[nid] += 1
        out: Dict[str, float] = {}
        for nid, (layer, self_s) in enumerate(zip(self.names, self.self_times())):
            out[f"{layer}.calls"] = calls[nid]
            out[f"{layer}.self_s"] = self_s
        out.update(self.counters)
        return out

    def self_times(self) -> List[float]:
        """Self time per layer: each span's duration minus its children's charges."""
        start, end, charge, name, parent = self.start, self.end, self.charge, self.name, self.parent
        covered = [0.0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                covered[p] += charge[i]
        out = [0.0] * len(self.names)
        for i in range(len(start)):
            out[name[i]] += end[i] - start[i] - covered[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as five flat arrays (native byte order) plus a JSON index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.start, self.end, self.charge, self.name, self.parent):
                arr.tofile(fh)
        index = {
            "spans": len(self.start),
            "arrays": ["start:f64", "end:f64", "charge:f64", "name:i32", "parent:i32"],
            "byteorder": sys.byteorder,
            "names": self.names,
        }
        path.with_suffix(".json").write_text(json.dumps(index) + "\n")

