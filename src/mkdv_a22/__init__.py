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

Import each name from its module; the package root exports only
``__version__``.
"""

__version__ = "0.1.0"
