"""Views of package objects that only the tests need."""

from springercenter.exactla import SparseMatrix


def transpose(mat):
    """The transpose of a SparseMatrix."""
    return SparseMatrix(mat.ncols, mat.nrows,
                        {(c, r): v for (r, c), v in mat.entries.items()})


def weights(mod):
    """The weights of a BModule's nonzero weight spaces, sorted."""
    return sorted(mod.spaces)


def character(mod):
    """A BModule's character: weight -> dim of its weight space."""
    return {mu: len(lbls) for mu, lbls in mod.spaces.items()}
