"""The benchmark suite: six named workloads measured end to end and per layer.

See ``README.md`` in this directory; ``run.py`` is the entry point.
"""
