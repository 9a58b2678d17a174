"""Grow critical-point pairs from (1, 1) and verify them numerically.

Each step solves the first-order Wronskian equation Wr(y_j, t) = a * rhs
for the unique monic, normalized solution and adds c times the old
component.  The roots of the resulting pairs satisfy the coupled critical
equations

    sum 2/(u0_i - u0_i') - sum 4/(u0_i - u1_i') = 0
    sum 8/(u1_i - u1_i') - sum 4/(u1_i - u0_i') = 0

which the final section checks with a floating-point root finder.
"""

import random
from fractions import Fraction

from mkdv_a22.exact import wronskian
from mkdv_a22.generation import (
    bethe_residuals,
    generate_multistep,
    is_fertile,
    is_generic,
    sample_trace,
    wronskian_rhs,
)


def main():
    print("Two closed-form families:")
    t = generate_multistep((0, 1), (Fraction(2), Fraction(5)))
    print(f"  (0,1) at c=(2,5):   y0 = {t.final.y0},  y1 = {t.final.y1}")
    t = generate_multistep((1, 0), (Fraction(1), Fraction(0)))
    print(f"  (1,0) at c=(1,0):   y0 = {t.final.y0},  y1 = {t.final.y1}")
    print("  (the second solves Wr(y0~, x+1) = a*(x+1)^4, forcing degree 5)")

    rng = random.Random(2024)
    word = (0, 1, 0, 1)
    trace = sample_trace(word, rng)
    print(f"\nFour steps along {word} at c = {tuple(str(x) for x in trace.c)}:")
    for step, (j, a) in enumerate(zip(trace.J, trace.consts)):
        old, new = trace.pairs[step], trace.pairs[step + 1]
        identity = wronskian(old.component(j), new.component(j)) == wronskian_rhs(old, j) * a
        k = new.degrees()
        print(
            f"  step {step + 1}: direction {j}, degrees ({k.k0}, {k.k1}), "
            f"Wr(old, new) = {a} * rhs exactly: {identity}"
        )
    print(f"  final pair generic: {is_generic(trace.final)}, fertile: {is_fertile(trace.final)}")

    print("\nNumeric check of the critical equations at the roots:")
    for word in ((0,), (0, 1), (1, 0), (0, 1, 0), (0, 1, 0, 1)):
        pair = sample_trace(word, rng).final
        rep = bethe_residuals(pair, 1e-8)
        k = pair.degrees()
        print(
            f"  {str(word):14s} degrees ({k.k0}, {k.k1}): "
            f"max residual {rep.max_residual:.2e}  ok={rep.ok}"
        )


if __name__ == "__main__":
    main()
