"""Bare setuptools entry point; the package declares no install metadata.

Everything runs from a checkout with ``PYTHONPATH=src`` (``make test``,
``python -m repro``); the benchmark suite puts ``src`` on the path
itself.
"""

from setuptools import setup

setup()
