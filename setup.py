"""Setuptools shim.

The execution environment has no network access and no ``wheel`` package, so
PEP 660 editable installs (which build a wheel) fail.  Keeping a classic
``setup.py`` lets ``pip install -e . --no-build-isolation --no-use-pep517``
fall back to ``setup.py develop``.  It declares no metadata: the package is
imported from ``src/`` (``PYTHONPATH=src``), and its dependencies are listed
in ``requirements-dev.txt``.
"""

from setuptools import setup

setup()
