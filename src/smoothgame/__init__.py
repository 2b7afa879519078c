"""Online learning of action-bounded functions: games, bounds, polynomials."""

__version__ = "0.1.0"
