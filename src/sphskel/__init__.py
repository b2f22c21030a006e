"""Exact verification of the generalized Mukai inequality on spherical skeletons.

The package computes the invariant P(R) of a spherical skeleton
R = (Delta, S^p, Sigma, Gamma) by exact rational linear programming and
compares it with the combinatorial budget |R+| - |R+_{S^p}|.  A built-in
catalog reproduces the case-by-case analysis for the non-symmetric
spherically closed reductive spherical systems (cases 31-39 and 41-50 of
the standard classification).
"""

from sphskel.rootsys import RootSystem, build_root_system
from sphskel.skeleton import BoundaryDivisor, Color, SphericalSkeleton, SphericalSystem
from sphskel.mukai import MukaiVerdict, check_conjecture

__all__ = [
    "RootSystem",
    "build_root_system",
    "Color",
    "BoundaryDivisor",
    "SphericalSystem",
    "SphericalSkeleton",
    "MukaiVerdict",
    "check_conjecture",
]

__version__ = "0.1.0"
