"""Certified patch robustness via derandomized smoothing of a
token-dropping vision transformer."""

__version__ = "0.1.0"
