"""Packaging for the slicing reproduction.

Kept as a plain ``setup.py`` (no pyproject) so ``pip install -e .
--no-use-pep517`` works in offline environments lacking the ``wheel``
package.
"""

from setuptools import find_packages, setup

setup(
    name="repro-distributed-slicing",
    version="1.0.0",
    description=(
        "Reproduction of 'Distributed Slicing in Dynamic Systems' "
        "(ICDCS 2007) with reference, vectorized and sharded "
        "multi-process simulation backends"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        # numpy powers the disorder metrics and the repro.vectorized
        # bulk backend (million-node runs); scipy provides the normal
        # quantiles behind the Theorem 5.1 confidence machinery.
        "numpy>=1.22",
        "scipy>=1.8",
    ],
    extras_require={
        # `pip install '.[fast]'` stays a no-op alias now that the bulk
        # backend's dependency is part of the core install.
        "fast": ["numpy>=1.22"],
        # repro.sampling.graph_analysis (overlay statistics for the
        # sampler tests and ablations); no engine imports it.
        "analysis": ["networkx"],
        "test": ["pytest", "hypothesis", "pytest-benchmark", "networkx"],
    },
)
