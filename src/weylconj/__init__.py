"""Presentation-by-conjugation decisions for extended affine Weyl groups."""

__version__ = "0.1.0"
