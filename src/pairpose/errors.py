"""Exception types shared across the package."""


class PairposeError(Exception):
    """Base class for every failure raised by this package."""


class NonFiniteInput(PairposeError):
    """A value that must be finite contained NaN or infinity."""


class SizeMismatch(PairposeError):
    """Two point clouds or record lists that must agree in length do not."""


class ShapeMismatch(PairposeError):
    """Tensor operands have incompatible shapes."""


class NonScalarLoss(PairposeError):
    """backward() was called on a tensor that is not 1x1."""


class NonFiniteLoss(PairposeError):
    """Training produced a NaN/inf loss; message carries the step index."""


class DegenerateNeighborhood(PairposeError):
    """A k-NN neighborhood has covariance rank < 2, so no normal exists."""


class DegenerateConfiguration(PairposeError):
    """Correspondences are rank-deficient; least-squares pose is not unique."""


class AllPairsDegenerate(PairposeError):
    """Every sampled correspondence pair was degenerate."""


class EmptySet(PairposeError):
    """An operation requiring a non-empty pose set received an empty one."""


class TooFewPoints(PairposeError):
    """A cloud has fewer points than the operation needs."""


class EmptyRecords(PairposeError):
    """Metric aggregation over zero evaluation records."""


class EverythingOccluded(PairposeError):
    """Culling plus occlusion left too few scene points to proceed."""


class MalformedHeader(PairposeError):
    """A PLY header is missing required lines or is not ASCII."""


class MissingNormals(PairposeError):
    """A PLY file lacks nx/ny/nz properties."""


class SchemaViolation(PairposeError):
    """A serialized file does not match its declared format schema."""
