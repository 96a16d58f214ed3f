"""Benchmark of the sqrtpoly library; see perfbench/README.md."""
