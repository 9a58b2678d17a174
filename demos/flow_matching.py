"""Match the mKdV vector fields against the family tangents, exactly.

The oper attached to a generated pair is conjugate to d/dx + L1 by an
explicit product of dressing factors, so every flow value is computable in
closed form: conjugate the r-th power of the cyclic generator, project to
degree zero, differentiate.  Tangents of the family come from
differentiating each Wronskian step of one generation run.  The
decomposition of the field over the tangents is then one exact linear
solve, and above an explicit threshold in r the field vanishes identically.
"""

import random
from fractions import Fraction

from mkdv_a22.flows import decompose_flow, family_tangents, mkdv_field, vanishing_threshold
from mkdv_a22.generation import generate_multistep, sample_trace


def main():
    print("One-step families (closed forms):")
    for word in ((0,), (1,)):
        trace = generate_multistep(word, (Fraction(3),))
        field = mkdv_field(trace, 1)
        gamma = decompose_flow(field, family_tangents(trace)).gamma
        print(f"  J={word}: field at r=1 is ({field}) * h0, gamma = {gamma[0]}")
        vanished = [r for r in (5, 7, 11, 13) if mkdv_field(trace, r).is_zero()]
        print(f"          flows r in {vanished} vanish identically")

    rng = random.Random(99)
    print("\nMulti-step families, exact decomposition of every flow:")
    for word in ((0, 1), (1, 0), (0, 1, 0), (1, 0, 1, 0)):
        trace = sample_trace(word, rng)
        tangents = family_tangents(trace)
        shown = []
        for r in (1, 5, 7, 11, 13):
            field = mkdv_field(trace, r)
            if field.is_zero():
                tag = "0 (threshold)" if vanishing_threshold(word, r) else "0"
                shown.append(f"r={r}: {tag}")
            else:
                dec = decompose_flow(field, tangents)
                assert dec.residual_zero
                shown.append(f"r={r}: gamma=({', '.join(str(g) for g in dec.gamma)})")
        print(f"  J={word} at c={tuple(str(x) for x in trace.c)}:")
        for line in shown:
            print(f"      {line}")


if __name__ == "__main__":
    main()
