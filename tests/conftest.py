"""Pins the BLAS libraries to one thread before any test module imports
NumPy, as ``perfbench/run.py`` does: the suite's matrices are small, so
extra BLAS threads only spin and contend with each other."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
