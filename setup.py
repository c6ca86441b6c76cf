"""Setuptools entry point.

The environment this reproduction targets may lack the ``wheel``
package and network access, so the build configuration is duplicated
here in classic ``setup.py`` form to keep ``pip install -e .`` working
with legacy (non-PEP-517) editable installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "GraphZeppelin reproduction: storage-friendly sketching for "
        "connected components on dynamic graph streams"
    ),
    author="repro contributors",
    license="Apache-2.0",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "scipy", "networkx"],
    },
    entry_points={
        "console_scripts": ["repro-graph=repro.cli:main"],
    },
)
