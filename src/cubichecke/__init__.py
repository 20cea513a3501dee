"""Exact computation with the cubic cyclotomic Hecke algebras on 3 and 4 strands.

The package constructs the regular representations of these algebras over the
field of rational functions in the three braid-generator eigenvalues, verifies
the defining relations symbolically, and classifies semisimplicity, blocks,
composition series and the full census of simple modules with diagonalizable
generators.
"""

__version__ = "0.1.0"

