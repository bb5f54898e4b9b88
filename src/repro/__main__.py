"""``python -m repro`` — see :mod:`repro.cli`.

Native BLAS/OpenMP thread pools are pinned to one thread before numpy
loads (``import repro`` loads none of it), as ``scripts/run_paper_grid.py``
does: ``batch run --workers N`` then uses N cores instead of N × (BLAS
threads), and serial and pooled runs share one BLAS thread count.
"""

import os

# Pin native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
