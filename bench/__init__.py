"""Benchmark of the repro serving stack; see bench/README.md."""
