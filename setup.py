"""Package metadata for the DP-Sync reproduction.

``pip install -e .`` installs the ``repro`` package from ``src/`` with its
runtime dependencies.  Tests additionally need pytest, pytest-benchmark and
hypothesis, and the empirical ε auditor (``repro.testing.audit``) needs
scipy.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "DP-Sync: hiding update patterns in secure outsourced databases "
        "with differential privacy (reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "cryptography"],
)
