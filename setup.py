"""Legacy setuptools shim.

All metadata lives in ``pyproject.toml``.  This file exists so that
``pip install -e .`` works in offline environments without the
``wheel`` package (pip falls back to ``setup.py develop``).
"""

from setuptools import setup

setup()
