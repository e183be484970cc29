"""Packaging for the DAC'09 NoC-synthesis reproduction.

The base install is dependency-free on purpose — every algorithm has a
pure-Python implementation, so the package works in offline containers
without build isolation (``pip install -e . --no-use-pep517``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-noc",
    version="1.0.0",
    description=(
        "Voltage-island-aware NoC topology synthesis (DAC'09 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[],
    entry_points={"console_scripts": ["repro-noc=repro.cli:main"]},
)
