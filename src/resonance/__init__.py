"""Exact combinatorics of the resonance arrangement.

The arrangement in R^n whose normals are all nonzero 0/1 vectors:
characteristic polynomials by independent methods, Betti numbers
through the broken-circuit complex, Stirling-number closed forms, the
four-element circuit census, and a compiler embedding any rational
matrix's matroid as a minor of a large enough resonance matroid.
"""
