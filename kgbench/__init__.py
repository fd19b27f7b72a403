"""Benchmark of the jamie_ray KG engine (see README.md)."""
