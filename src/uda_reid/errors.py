"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration field is missing, malformed, or out of range."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")


class FormatError(ValueError):
    """A serialized file is malformed; the message names the failing byte."""

    def __init__(self, offset, message):
        super().__init__(f"format error at byte {offset}: {message}")


class MiningError(ValueError):
    """A labelling has too few usable classes for a PK batch."""

    def __init__(self, labels, message):
        super().__init__(f"{message} (labels: {sorted(set(int(l) for l in labels))})")


class NormalizationError(ValueError):
    """A vector expected to be normalizable has zero (or non-finite) norm."""


class DegenerateStructureError(ValueError):
    """A neighborhood structure is empty everywhere; the operation is undefined."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; the message names its position."""

    def __init__(self, epoch=None, iteration=None, message=""):
        where = "" if epoch is None else f" at epoch {epoch}"
        where += "" if iteration is None else f", iteration {iteration}"
        super().__init__(f"divergence{where}: {message}")
