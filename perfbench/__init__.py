"""The carlitz benchmark: four verifier workloads measured end to end, and a
traced run that reports per-layer numbers.  Entry point: `run.py`."""
