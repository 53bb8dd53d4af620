"""Exception types raised across the package."""


class RangesegError(Exception):
    """Base class for all package errors."""


class ScanFormatError(RangesegError):
    """Binary scan or label payload does not match the file format."""


class InvalidPointError(RangesegError):
    """A point carries non-finite coordinates or zero range."""


class ClassMapError(RangesegError):
    """Raw label id missing from the class map, or malformed map file."""


class MissingLabelsError(RangesegError):
    """Operation requires labeled scans but a scan has no labels."""


class SceneSpecError(RangesegError):
    """Synthetic scene description is unusable."""


class ProjectionError(RangesegError):
    """Projection produced no valid pixels or was fed degenerate input."""


class DimensionError(RangesegError):
    """Tensor or array shapes do not line up."""


class InvalidDistributionError(RangesegError):
    """Gaussian tensor with negative variance."""


class StaleStateError(RangesegError):
    """Backward pass requested without a cached forward pass."""


class InvalidTargetError(RangesegError):
    """Class index outside the class range: a loss target or a kNN pixel label."""


class EmptyBatchError(RangesegError):
    """Loss evaluated on a batch with no valid pixels."""


class MetricError(RangesegError):
    """Metric undefined for the accumulated counts."""


class ConfigError(RangesegError):
    """Invalid model, training, or file configuration."""


class TrainingDivergedError(RangesegError):
    """Loss or parameters went non-finite during training."""


class InvalidTrialsError(RangesegError):
    """Monte-Carlo sampling asked for fewer than one trial."""


class CheckpointError(RangesegError):
    """Base class for checkpoint container failures."""


class IncompatibleCheckpointError(CheckpointError):
    """Bad magic bytes or unsupported format version."""


class CorruptCheckpointError(CheckpointError):
    """Container truncated or internally inconsistent."""
