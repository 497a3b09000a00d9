"""Packaging for the ``repro`` library (the ``src/`` layout).

``pip install -e .`` installs the packages under ``src/`` so that
``import repro`` works without ``PYTHONPATH=src``.  The library has no
runtime dependencies; the test and benchmark suites need ``pytest`` and
``hypothesis``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-umzi",
    version="1.0.0",
    description=(
        "Reproduction of Umzi: Unified Multi-Zone Indexing for "
        "Large-Scale HTAP (EDBT 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
