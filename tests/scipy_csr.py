"""scipy's matrix API on graphain's sparse records; the tests' reference."""

import scipy.sparse as sp


def scipy_csr(a):
    """``a`` (a ``graph.CscMatrix``) as a ``scipy.sparse.csr_matrix``,
    converted by scipy from the same arrays, for ``@``, ``.dot`` and
    ``.toarray()``: its products run scipy's CSR kernel, not the CSC kernel
    that ``graph.csc_matmul`` calls."""
    return sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape).tocsr()
