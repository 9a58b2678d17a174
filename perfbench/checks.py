"""Correctness checks on the printed output of each case.

They run in the parent process after the measured passes, so none of this is
timed.  ``check_outputs`` returns a short reason for every output that fails.  The population checks are independent of the engine: they
re-derive every identity with sympy from the printed polynomials.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

ZERO_RATFUNC = {"num": [], "den": ["1"]}


def _parse_argv(key: str) -> dict:
    parts = key.split()
    out = {"cmd": parts[0], "J": tuple(int(j) for j in parts[1].split(",")), "r": None, "i": None}
    for k, tok in enumerate(parts):
        if tok in ("--r", "--i"):
            out[tok[2:]] = int(parts[k + 1])
    return out


def flow_vanishes(js, r: int) -> bool:
    """Vanishing threshold for the r-th flow on the family of word js: the
    dressing factors lower the principal degree by at most one (direction 0)
    or two (direction 1) per step, so large r cannot reach degree zero."""
    m = len(js)
    if m % 2 == 0:
        return r > 3 * m
    return r > (3 * m - 2 if js[0] == 0 else 3 * m + 1)


def check_flow(case: dict, data: dict) -> Optional[str]:
    if data.get("residual_zero") is not True:
        return "residual_zero is not true"
    if len(data["gamma"]) != len(case["J"]) or data["r"] != case["r"]:
        return "gamma or r does not match the command line"
    if flow_vanishes(case["J"], case["r"]):
        if data["field"] != ZERO_RATFUNC or any(g != "0" for g in data["gamma"]):
            return "flow above the vanishing threshold is not zero"
    return None


def check_kdv(case: dict, data: dict) -> Optional[str]:
    key = str(case["i"])
    if data.get("consistent") != {key: True}:
        return f"scalar map {key} is not consistent"
    if key not in data.get("scalar_operators", {}) or data["r"] != case["r"]:
        return "scalar operator or r missing from the output"
    return None


class _Sym:
    """sympy helpers, imported only when a population run needs them."""

    def __init__(self) -> None:
        import sympy

        self.sp = sympy
        self.x = sympy.Symbol("x")

    def poly(self, coeffs: List[str]):
        sp = self.sp
        cs = [sp.Rational(c) for c in reversed(coeffs)] or [sp.Integer(0)]
        return sp.Poly(cs, self.x, domain=sp.QQ)


def check_generate(sym: _Sym, case: dict, data: dict) -> Optional[str]:
    """Monic pairs, Wronskian identities and gauge data of one trace."""
    js = case["J"]
    if tuple(data["J"]) != js or len(data["pairs"]) != len(js) + 1:
        return "trace does not match the command line"
    pairs = [(sym.poly(y0), sym.poly(y1)) for y0, y1 in data["pairs"]]
    for y0, y1 in pairs:
        if y0.LC() != 1 or y1.LC() != 1:
            return "pair is not monic"
    for step, j in enumerate(js):
        old, new = pairs[step], pairs[step + 1]
        if old[1 - j] != new[1 - j]:
            return f"step {step + 1} changed the other component"
        a, b = old[j], new[j]
        wr = a * b.diff() - a.diff() * b
        rhs = old[1] ** 4 if j == 0 else old[0]
        # Wr(old, new) must be a nonzero constant times rhs
        if wr.is_zero or wr.degree() != rhs.degree() or wr * rhs.LC() != rhs * wr.LC():
            return f"step {step + 1} Wronskian is not a constant multiple of the rhs"
        g = data["gs"][step]
        gnum, gden = sym.poly(g["num"]), sym.poly(g["den"])
        # g = b'/b - a'/a, cross-multiplied
        if gnum * a * b != gden * (b.diff() * a - a.diff() * b):
            return f"step {step + 1} gauge entry is not the log-derivative difference"
    return None


def check_miura(sym: _Sym, data: dict, final_pair) -> Optional[str]:
    """v = 2 y1'/y1 - y0'/y0 on the final pair printed by ``generate``."""
    y0, y1 = (sym.poly(p) for p in final_pair)
    vnum, vden = sym.poly(data["v"]["num"]), sym.poly(data["v"]["den"])
    if vnum * y0 * y1 != vden * (2 * y1.diff() * y0 - y0.diff() * y1):
        return "v is not 2(ln y1)' - (ln y0)' of the generated pair"
    return None


def check_outputs(outputs: Dict[str, str]) -> Dict[str, str]:
    """Check every printed case output; returns key -> reason for failures.

    ``outputs`` maps case keys to the stdout of cases that did not raise and
    exited 0 (or 1, the exit code of an inconsistent ``kdv-check``).
    """
    bad: Dict[str, str] = {}
    parsed = {}
    for key, text in outputs.items():
        try:
            parsed[key] = (_parse_argv(key), json.loads(text))
        except ValueError:
            bad[key] = "output is not JSON"
    sym = _Sym() if any(c["cmd"] in ("generate", "miura") for c, _ in parsed.values()) else None
    for key, (case, data) in parsed.items():
        try:
            reason = _check_one(parsed, key, case, data, sym)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"output has an unexpected shape: {type(exc).__name__}: {exc}"
        if reason:
            bad[key] = reason
    return bad


def _check_one(parsed: dict, key: str, case: dict, data: dict, sym) -> Optional[str]:
    if case["cmd"] == "flow":
        return check_flow(case, data)
    if case["cmd"] == "kdv-check":
        return check_kdv(case, data)
    if case["cmd"] == "generate":
        return check_generate(sym, case, data)
    if case["cmd"] == "miura":
        gen = parsed.get(key.replace("miura", "generate", 1))
        if gen is None:
            return "no generate output for the same word and parameters"
        return check_miura(sym, data, gen[1]["pairs"][-1])
    return f"no check for command {case['cmd']!r}"
