"""Exact engine for Wronskian-generated critical-point families and the
twisted mKdV / KdV hierarchies of type A2(2).

The package is organized bottom-up:

* ``exact``      rationals, polynomials, rational functions, linear solving
* ``loop``       the sl(3) loop algebra in the lambda realization
* ``generation`` Wronskian generation of critical-point pairs
* ``psdo``       pseudodifferential calculus, cube roots, KdV flows
* ``flows``      mKdV vector fields on generated families, exact tangents
* ``miura``      Miura opers, gauge moves, scalar (third-order) reductions,
                 and the mKdV-to-KdV diagram
* ``verify``     seeded verification suites over all of the above
* ``cli``        command-line front end (``mkdv-a22``)
"""

from .exact import (
    Poly,
    Rat,
    RatFunc,
    laurent_at_infinity,
    log_derivative,
    solve_linear,
    wronskian,
)
from .generation import (
    BetheReport,
    DegreeVector,
    GenerationTrace,
    InfertileError,
    PolyPair,
    bethe_residuals,
    degree_transform,
    degree_vector,
    generate_multistep,
    generate_step,
    is_fertile,
    is_generic,
    wronskian_solve,
)
from .loop import (
    CARTAN,
    CartanData,
    LaurentMat,
    conjugate,
    exp_dressing,
    grade_project,
    lambda_decompose,
    lambda_power,
)
from .psdo import DiffOp3, PsDO, cube_root, frac_power_plus, kdv_field, psdo_mul
from .flows import (
    FlowSample,
    decompose_flow,
    dressing_product,
    family_tangents,
    flow_sample,
    mkdv_field,
    vanishing_threshold,
)
from .miura import (
    MiuraOper,
    MiuraOperA1,
    alpha_pairing,
    consistency_check,
    d_miura_map,
    embed_a1,
    gauge_step,
    miura_from_pair,
    miura_from_trace,
    miura_map,
    ricatti_check,
)

__version__ = "0.1.0"
