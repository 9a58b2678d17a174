"""Seeded case lists for the three benchmark workloads.

Every case is a real ``mkdv-a22`` command line.  Parameters are drawn from
the workload seed over the same range as ``generation.sample_rational``
(numerators -9..9 over denominators 1..4) and are deliberately *not*
filtered for genericity, so non-generic draws reach the engine as they would
from a user.  Parameters are passed as ``--c=<list>`` because argparse reads
``--c -3,2`` as a missing argument followed by an option.

This module does not import the engine, so the case list of a seed is fixed
by this file alone.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, List, Tuple

WORKLOADS = ("mkdv-flows", "kdv-check", "population")

FLOW_RS = (1, 5, 7, 11, 13)
# Parameter draws per (word, r) by word length.  Short words are cheap, so
# they get two draws; that also puts the median case inside the length-2
# group instead of on the edge between lengths 2 and 3.
FLOW_DRAWS = {1: 2, 2: 2, 3: 1, 4: 1}
# The far-above-threshold flow (all the work goes into powers of the cyclic
# generator) and the known non-generic point y1 = x**2, which ends in a
# DualDivisionError at this commit.
FLOW_FIXED = (
    ["flow", "0,1", "--c=2,5", "--r", "30001"],
    ["flow", "0,1", "--c=0,0", "--r", "1"],
)
# kdv-check flow indices by word length; r = 5 on length 3 and r = 7 on
# length 2 cost 1-8 s per scalar map, too much for one measured run.
KDV_RS = {1: (1, 5, 7), 2: (1, 5), 3: (1,)}
POPULATION_MAX_LEN = 7
POPULATION_DRAWS = 2


def basic_words(max_len: int) -> Iterator[Tuple[int, ...]]:
    """The two alternating words of each length 1..max_len, 0-first then 1-first."""
    for n in range(1, max_len + 1):
        for first in (0, 1):
            yield tuple((first + k) % 2 for k in range(n))


class Draws:
    """Parameters over the range of ``generation.sample_rational``, stratified.

    Numerators -9..9 and denominators 1..4 are dealt from reshuffled decks,
    one pair of decks per group of similar cases, so every value of the range
    comes up about equally often within a group.  Each parameter is still
    uniform over the range and nothing is filtered; seeds differ in which
    cases get the large parameters, not in how many there are, which keeps
    the cost of a case list steady from seed to seed.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.decks: dict = {}

    def _deal(self, key, values) -> int:
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(values)
            self.rng.shuffle(deck)
        return deck.pop()

    def c(self, group, n: int) -> str:
        values = (
            Fraction(self._deal((group, "num"), range(-9, 10)), self._deal((group, "den"), range(1, 5)))
            for _ in range(n)
        )
        return "--c=" + ",".join(str(v) for v in values)


def _word(js: Tuple[int, ...]) -> str:
    return ",".join(str(j) for j in js)


def case_list(workload: str, seed: int) -> List[List[str]]:
    """The argv lists of one workload; the same seed gives the same list."""
    draws = Draws(random.Random(f"{workload}/{seed}"))
    cases: List[List[str]] = []
    if workload == "mkdv-flows":
        for js in basic_words(4):
            for r in FLOW_RS:
                for _ in range(FLOW_DRAWS[len(js)]):
                    cases.append(["flow", _word(js), draws.c((len(js), r), len(js)), "--r", str(r)])
        cases.extend(list(c) for c in FLOW_FIXED)
    elif workload == "kdv-check":
        for js in basic_words(max(KDV_RS)):
            for r in KDV_RS[len(js)]:
                for i in (0, 1, 2):
                    cases.append(
                        ["kdv-check", _word(js), draws.c((len(js), r), len(js)), "--r", str(r), "--i", str(i)]
                    )
    elif workload == "population":
        for js in basic_words(POPULATION_MAX_LEN):
            for _ in range(POPULATION_DRAWS):
                c = draws.c(len(js), len(js))
                cases.append(["generate", _word(js), c])
                cases.append(["miura", _word(js), c])
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return cases


def case_key(argv: List[str]) -> str:
    return " ".join(argv)
