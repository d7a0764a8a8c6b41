"""The sparse-LU inertia count that `eigensolve.count_below` replaced, kept
as an independent oracle for the Kronecker-structure count."""
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from robinspectra.discretize import DiscreteForm
from robinspectra.errors import FactorizationError


def superlu_count_below(F: DiscreteForm, tau: float) -> int:
    """Exact number of eigenvalues strictly below tau, by inertia.

    Factors A - tau*I with a diagonal-pivot (no row interchange) sparse LU in
    symmetric mode; the signs of the U diagonal then give the inertia.  A
    near-zero pivot means tau sits on an eigenvalue: tau is perturbed by
    1e-10 and the factorization retried.
    """
    A = F.matrix.tocsc()
    dim = A.shape[0]
    eye = sp.identity(dim, format="csc")
    t = tau
    for attempt in range(4):
        B = (A - t * eye).tocsc()
        try:
            lu = spla.splu(
                B,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError:
            t = tau + (attempt + 1) * 1e-10
            continue
        d = lu.U.diagonal()
        dmax = float(np.max(np.abs(d)))
        if dmax == 0 or float(np.min(np.abs(d))) < 1e-13 * dmax:
            t = tau + (attempt + 1) * 1e-10
            continue
        return int(np.sum(d < 0))
    raise FactorizationError(
        f"zero pivot persists near tau={tau}; perturb tau and retry"
    )
