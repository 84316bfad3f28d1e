"""Analogue component library."""
