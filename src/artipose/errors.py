"""Exception hierarchy shared across the package.

Two broad families matter to callers: input/configuration problems
(rejected before any work happens) and numerical/runtime failures.
The CLI maps the former to exit code 2 and the latter to exit code 3.
"""


class ArtiposeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ArtiposeError):
    """Invalid input data or configuration, detectable before computation."""


class ConfigError(InputError):
    """Malformed or inconsistent run configuration."""


class ParseError(InputError):
    """Malformed file content (mesh, mask, raster or manifest)."""


class DegenerateRotation6D(ArtiposeError):
    """Six-number rotation input whose columns cannot be orthonormalized."""


class InvalidRotation(ArtiposeError):
    """Matrix is not a proper rotation within tolerance."""


class NonPositiveDepth(ArtiposeError):
    """Translation depth is zero or negative where a positive one is required."""


class PointBehindCamera(ArtiposeError):
    """A point to project has non-positive camera-frame depth."""


class DegenerateMesh(ArtiposeError):
    """Mesh violates a geometric precondition (empty, flat or zero-area faces)."""


class BBoxMismatch(ArtiposeError):
    """Vertex coordinates escape the bounding box used to normalize them."""


class EmptyRender(ArtiposeError):
    """Rasterization produced no covered pixel."""


class TooFewCorrespondences(ArtiposeError):
    """Fewer than the minimal number of 2D-3D pairs for pose solving."""


class NonFiniteResidual(ArtiposeError):
    """Optimization encountered a non-finite residual at its starting point."""


class NoConsensus(ArtiposeError):
    """Robust estimation found no hypothesis with sufficient inlier support."""


class EmptyMask(ArtiposeError):
    """A mask required to be non-empty has no set pixel."""


class NoAnnotations(ArtiposeError):
    """No ground-truth annotations exist for the requested class."""


class EmptySequence(ArtiposeError):
    """An operation over a sequence received no frames."""
