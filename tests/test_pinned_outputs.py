"""Stdout of the demos and of the verify suites against recorded sha256 hashes.

Each demo is run in-process as ``__main__``; each verify suite is run
through ``cli.main`` with a fixed seed and one sample (``kdv`` is the one
command line that runs ``cube_root`` and ``frac_power_plus`` on random
operators), and so are ``generate`` and ``miura`` on alternating words of
length 11 and 13, past the length-7 words of the benchmark case lists, and
``flow --r 13`` on both alternating words of length 8, past the length-4
words of the flow workload.  Any change to what these print, down to one
byte, fails here.
"""

import hashlib
import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mkdv_a22 import cli

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_HASHES = {
    "degree_tables.py": "79e64a8b9b1c1114daebbf23e13f166230f751bd3c8bb59b6d303d660cacef72",
    "flow_matching.py": "0a84bda81659bd9e4fe5d6f8b540229d1cdb8d66a1e84cd27da3553bd472f49b",
    "kdv_crosscheck.py": "92a75cde0a3ce36cfe4dbc515b9d0296415ad0d9d2b91c3a5ddab7cba10be870",
    "population_walk.py": "cb9861bab54f31b9c3a288d0e90d8d5b57469cde50ef91289378c15433a6bc24",
}

VERIFY_HASHES = {
    "degrees": "add8a7c9eaaba0bc6241cdd524f19b1c8e8a535d38908a238459ec45777fdd27",
    "loop": "72f0489275b3bad94e1deb6650f589517f7a2004aadeb389b18e1a939355ad57",
    "generation": "00225b14cecd244a2aa0176b4a28b1acdbc6ad47fe4a49edef6826dd36de7e5b",
    "miura": "57ed42bfb7fddb69eb5d19a8554d9a119c0389e2b30ad59fedd8d998e7c4dae7",
    "flows": "4328973f54a9382ea9ee9f1db097e9a42a4b1330a3f40132e87193d8c11319b5",
    "gamma-polynomial": "53bf6142a99c06664bc1b26659e37543a182025947dcc5b743d963d0eef29c53",
    "kdv": "ed9209fbac81796160dc92bf8ddb4a0aa429ee154a301b0e581cb3b57e1b0ce2",
    "bethe": "f5a887697fc011db99922cd106e21d690c9ff06034e8c238632c765cb930e71f",
}


# generate and miura on alternating words longer than any case list reaches,
# c a prefix of LONG_C
LONG_C = "3,-1/2,2,1/3,-2,5/4,1,7,2,-7/3,9/4,5,-3".split(",")
LONG_WORD_HASHES = {
    ("generate", 11): "67ad0852b9c73ddeeda14398fb26213e9f04264557ad08e042b78a1382a48ca8",
    ("miura", 11): "6c38a10ea8773cf87e5285211c1c5f6784ac9881a008ed302b647a6fecc47aad",
    ("miura", 13): "ba6e0864937a2fb58694e9b26ff8e381726f06961e344fe5406d6394ca119e03",
}
# flow --r 13 on both alternating words of length 8, c = LONG_C[:8]; the two
# words end in different directions, so both reach the closed-form guard on
# the last family tangent
LONG_FLOW_HASHES = {
    "0,1,0,1,0,1,0,1": "65c2bfd4f03cbf7e194134a0cdb8c809d32fd30bdfb1fcbf2ca770d29f81258b",
    "1,0,1,0,1,0,1,0": "9818bd51a21be32fecd88aa9ecaf4ea11e98e62cf16075770d993e1d2d5ca51b",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("demo", sorted(DEMO_HASHES))
def test_demo_output_matches_recorded_hash(demo):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert _sha256(out.getvalue()) == DEMO_HASHES[demo]


@pytest.mark.parametrize("suite", sorted(VERIFY_HASHES))
def test_verify_json_matches_recorded_hash(suite):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", suite, "--seed", "7", "--samples", "1", "--json"])
    assert code == 0
    assert _sha256(out.getvalue()) == VERIFY_HASHES[suite]


@pytest.mark.parametrize("command, length", sorted(LONG_WORD_HASHES))
def test_long_word_output_matches_recorded_hash(command, length):
    word = ",".join(str(k % 2) for k in range(length))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([command, word, "--c=" + ",".join(LONG_C[:length])])
    assert code == 0
    assert _sha256(out.getvalue()) == LONG_WORD_HASHES[command, length]


@pytest.mark.parametrize("word", sorted(LONG_FLOW_HASHES))
def test_long_word_flow_matches_recorded_hash(word):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["flow", word, "--c=" + ",".join(LONG_C[:8]), "--r", "13"])
    assert code == 0
    assert _sha256(out.getvalue()) == LONG_FLOW_HASHES[word]
