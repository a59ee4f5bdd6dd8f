"""Test-session setup: BLAS on one thread unless the environment says
otherwise, set before any test module imports numpy (and so before
``gvlab`` can), for the reasons given in ``gvlab/__init__.py``."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
