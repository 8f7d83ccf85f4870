"""One benchmark for the adaptive integration engine.

``python3 perfbench/run.py --workload <name>`` runs one closed-loop workload
through the public API, checks every answer and prints its metrics; see
``perfbench/README.md``.
"""
