"""The repository benchmark: three workloads, end-to-end and per-layer
metrics, output checks, and a steadiness mode.  See README.md."""
