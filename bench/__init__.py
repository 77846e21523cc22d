"""Benchmark for the pdial CLI: seeded workloads, a latency stub server,
output checks and a traced per-layer run. Entry point: ``bench/run.py``."""
