"""Exception hierarchy shared across the toolkit."""


class ScharmError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ScharmError, ValueError):
    """A domain invariant or an argument's allowed range was violated."""


class AsymmetricMatrix(ValidationError):
    def __init__(self, i, j):
        self.index = (i, j)
        super().__init__(f"matrix is not symmetric at ({i}, {j})")


class NegativeEntry(ValidationError):
    def __init__(self, i, j):
        self.index = (i, j)
        super().__init__(f"negative entry at ({i}, {j})")


class NonzeroDiagonal(ValidationError):
    def __init__(self, i):
        self.index = (i, i)
        super().__init__(f"nonzero diagonal entry at ({i}, {i})")


class NonIntegerEntry(ValidationError):
    def __init__(self, i, j=None):
        self.index = (i, j)
        super().__init__(f"non-integer entry at ({i}, {j})")


class LengthMismatch(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class EmptyCohort(ValidationError):
    pass


class EmptyInput(ValidationError):
    pass


class RankDeficientSites(ValidationError):
    pass


class RankDeficientDesign(ValidationError):
    def __init__(self, rank):
        self.rank = rank
        super().__init__(f"design matrix has rank {rank} < 4")


class TooFewObservations(ValidationError):
    pass


class InsufficientSubjects(ValidationError):
    pass


class UnknownSite(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class SpectrumOutOfRange(ValidationError):
    pass


class NonFiniteLoss(ScharmError):
    def __init__(self, epoch, batch):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")


class EmptyHistory(ValidationError):
    pass


class ParseError(ScharmError):
    pass


class IoError(ScharmError):
    pass
