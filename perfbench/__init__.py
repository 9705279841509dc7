"""The repository benchmark: TPC-H-lite federation workloads (see run.py)."""
