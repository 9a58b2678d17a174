"""Push mKdV flow values through the scalar reductions into KdV flows.

A diagonal oper maps to three third-order operators d^3 + u1 d + u0 via the
ordered factorizations; their KdV flows use fractional powers in the formal
pseudodifferential algebra.  For every generated family, pushing the mKdV
flow value through the derivative of a scalar map must equal the KdV flow
value at the image operator, coefficient by coefficient.
"""

import random
from fractions import Fraction

from mkdv_a22.generation import generate_multistep, sample_c
from mkdv_a22.miura import consistency_check, embed_a1, miura_from_trace, miura_map
from mkdv_a22.psdo import cube_root, from_diffop3, kdv_field


def main():
    t = generate_multistep((0,), (Fraction(3),))
    emb = embed_a1(miura_from_trace(t))
    print("Scalar reductions of the one-step family at c = 3:")
    for i in (0, 1, 2):
        op = miura_map(i, emb)
        print(f"  map {i}: u1 = {op.u1},  u0 = {op.u0}")

    op0 = miura_map(0, emb)
    root = cube_root(op0, 8)
    cube = root * root * root
    target = from_diffop3(op0)
    exact = all(cube.coeff(k) == target.coeff(k) for k in range(cube.floor, 4))
    print(f"\nCube root of map 0 down to order {root.floor}; recomposition exact: {exact}")
    print(f"  first coefficients: a0 = {root.coeff(0)}, a-1 = {root.coeff(-1)}")

    u1_dot, u0_dot = kdv_field(op0, 5)
    print(f"  fifth KdV flow on this operator: ({u1_dot}, {u0_dot})  <- stationary")

    rng = random.Random(7)
    print("\nConsistency of the two flow computations (exact equality):")
    for word in ((), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)):
        c = sample_c(word, rng) if word else ()
        trace = generate_multistep(word, c)
        verdicts = [
            consistency_check(trace, r, i) for r in (1, 5) for i in (0, 1, 2)
        ]
        print(f"  J={str(word):12s} r in (1,5), all three maps: {all(verdicts)}")


if __name__ == "__main__":
    main()
