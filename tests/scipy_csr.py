"""scipy's matrix API on graphain's CSR records; the tests' reference."""

import scipy.sparse as sp


def scipy_csr(a):
    """``a`` (a ``graph.CsrMatrix``) as a ``scipy.sparse.csr_matrix`` on the
    same arrays, for ``@``, ``.dot`` and ``.toarray()``."""
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
