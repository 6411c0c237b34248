"""Sidon sets, Singer perfect difference sets, and extension checking in Z_v.

The package decides whether a finite Sidon set embeds, up to affine maps,
into a perfect difference set of some finite cyclic group, three different
ways: a fast scan against cached Singer constructions, exhaustive
enumeration of all perfect difference sets at small moduli, and a seeded
depth-first search that assumes nothing about where difference sets come
from.  On top of those sit the density and closure scans for size-4 sets.
"""

__version__ = "0.1.0"
