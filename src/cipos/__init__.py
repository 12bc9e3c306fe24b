"""Exact intersection-theoretic positivity certificates for complete
intersections in projective space and their jet towers."""

__version__ = "0.1.0"
